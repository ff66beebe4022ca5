"""Count the code lines of each module of the package.

A code line is a line that holds a token other than a comment or a
docstring: the string that is the whole first statement of a module, a
class or a function.  Blank lines, comment-only lines and docstring lines
do not count; every line a multi-line expression or string spans does.
The source is read with ``tokenize`` only, never imported or run.

    python tools/code_lines.py [directory]

prints one line per module of the directory (``src/fareyapprox`` by
default) and the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` holding a token other than a comment or docstring."""
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    # A docstring may open the module, and the body of a def or class whose
    # header ends a line (the INDENT that follows says so).
    doc_next, header = True, False
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.INDENT:
            doc_next = header
        if tok.type not in _LAYOUT:
            statement.append(tok)
        if tok.type != tokenize.NEWLINE:
            continue
        is_doc = doc_next and all(t.type == tokenize.STRING for t in statement)
        if not is_doc:
            for t in statement:
                rows.update(range(t.start[0], t.end[0] + 1))
        words = [t.string for t in statement[:2]]
        keyword = words[1] if words[0] == "async" else words[0]
        header = keyword in ("def", "class") and statement[-1].string == ":"
        doc_next, statement = False, []
    return len(rows)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "fareyapprox"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
