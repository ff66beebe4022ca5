"""CLI transcripts: argv lists run in-process through ``cli.run``.

``transcript`` runs each call in a working directory and writes out its
command, exit code, stdout and stderr.  It serves the README examples
(``tests/test_readme_examples.py``) and ``usage_errors``: the usage and
error cases below, plus one valid call per subcommand, whose golden is
``tests/cli_output/usage_errors.txt``, built at ``COLUMNS=80``.  Only the
standard library is used, so ``tools/interpreters.py`` can build both
transcripts under an interpreter without pytest.  After a deliberate
output change, rewrite the usage golden with
``PYTHONPATH=src python tests/transcripts.py``.
"""

import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

from fareyapprox.cli import run

ROOT = Path(__file__).resolve().parents[1]
USAGE_GOLDEN = ROOT / "tests" / "cli_output" / "usage_errors.txt"
_INPUT = {"constraints.txt": "sqrt2 1\n1/3 1\n"}
USAGE_ERRORS = [
    # Top-level: no command, help, an unknown option or command.
    [], ["-h"], ["--help"], ["--bogus"], ["nonsense"], ["nonsense", "--order", "5"],
    ["-h", "farey"], ["--", "farey", "--order", "3"],
    # A subcommand's own parse: missing, bad and unknown options, stray
    # tokens, abbreviations, "--" and values that look like options.
    ["farey"], ["farey", "--order"], ["farey", "--order", "x"], ["farey", "--order", "0"],
    ["farey", "--ord", "3"], ["farey", "--order", "3", "--bogus"],
    ["farey", "--order", "3", "stray"], ["farey", "--order", "3", "--"],
    ["farey", "--", "--order", "3"], ["farey", "--order", "3", "--from=--"],
    ["farey", "--order", "3", "--from", "-1/2"], ["farey", "-h"],
    ["neighbors", "-x", "1/3", "--order", "5"], ["neighbors", "--x=--", "--order", "5"],
    ["neighbors", "--x", "-1/2", "--order", "5"],
    ["neighbors", "--x", "1/3", "--order", "5", "--precision", "0"],
    ["neighbors", "--x", "1/3", "--order", "5", "--bogus", "-x"],
    ["solve", "--input", "constraints.txt", "--epsilon", "1/10", "--method", "fast"],
    ["sweep", "-h"], ["selftest", "extra"],
    # One valid call per subcommand.
    ["farey", "--order", "5"],
    ["neighbors", "--x", "5/16", "--order", "7"],
    ["subdivide", "--lo", "0", "--hi", "1/5", "--order", "5", "--gap", "1/20"],
    ["solve", "--input", "constraints.txt", "--epsilon", "1/10"],
    ["dirichlet", "--input", "constraints.txt", "--T", "10"],
    ["sweep", "--input", "constraints.txt", "--grid", "1/2,1/4,1/8"],
    ["compare", "--input", "constraints.txt", "--epsilon", "1/10", "--T", "10"],
    ["selftest"],
]


def transcript(calls: list[list[str]], workdir: Path, files: dict[str, str]) -> str:
    """Each call's command, exit code, stdout and stderr, run in ``workdir`` holding ``files``."""
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    parts = []
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            parts.append(
                f"$ {shlex.join(['farey-approx', *argv])}\n[exit {code}]\n"
                f"[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}"
            )
    finally:
        os.chdir(old)
    return "\n".join(parts)


def usage_errors(workdir: Path) -> str:
    return transcript(USAGE_ERRORS, workdir, _INPUT)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        USAGE_GOLDEN.write_text(usage_errors(Path(tmp)), encoding="utf-8")
    sys.stdout.write(f"wrote {USAGE_GOLDEN}\n")
