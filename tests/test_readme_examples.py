"""The README's CLI examples, run in-process against a committed transcript.

Each `farey-approx` line of the `sh` block under `## CLI` is split with
shlex (so its trailing comment goes), run through `cli.run` in a directory
holding the README's constraint-file example as `constraints.txt`, and its
command, exit code, stdout and stderr are compared with
`tests/readme_output.txt`.  After a deliberate output change, rewrite that
file with `PYTHONPATH=src python tests/test_readme_examples.py`.
"""

import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from fareyapprox.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "readme_output.txt"


def readme_examples() -> tuple[list[list[str]], str]:
    # The argv of each CLI example line, and the constraint-file example.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    calls = [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("farey-approx ")
    ]
    constraints = re.search(r"^### Constraint input file\n.*?^```\n(.*?)^```", text, re.M | re.S)
    return calls, constraints.group(1)


def transcript(workdir: Path) -> str:
    calls, constraints = readme_examples()
    (workdir / "constraints.txt").write_text(constraints, encoding="utf-8")
    parts = []
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            parts.append(
                f"$ farey-approx {shlex.join(argv)}\n[exit {code}]\n"
                f"[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}"
            )
    finally:
        os.chdir(old)
    return "\n".join(parts)


def test_readme_examples_are_found():
    calls, constraints = readme_examples()
    assert len(calls) == 12 and all(calls)
    assert "sqrt2 1" in constraints


def test_readme_cli_examples_match_the_transcript(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(transcript(Path(tmp)), encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
