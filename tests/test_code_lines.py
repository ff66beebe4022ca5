import runpy
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
code_lines = runpy.run_path(str(TOOL))["code_lines"]

SOURCE = '''\
"""Module docstring,
over two lines."""

import math  # code with a trailing comment: 1


# A comment-only line.
def area(r):  # 2
    """Function docstring."""
    return math.pi * (  # 3
        r  # 4
        * r  # 5
    )  # 6


class Shape:  # 7
    """Class docstring,

    with a blank line."""

    NAME = """a string that
    is no docstring"""  # 8, 9

    async def run(self):  # 10
        "Docstring of an async def."
        if self:  # 11
            "A string statement in an if block."  # 12
'''


def test_code_lines_skips_comments_and_docstrings():
    assert code_lines(SOURCE) == 12


def test_code_lines_of_an_empty_or_docstring_only_module():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0
