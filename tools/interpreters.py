"""Run the demos and the README's CLI examples under other Pythons.

    python tools/interpreters.py --python PATH [--python PATH ...]

``pyproject.toml`` admits Python >= 3.10.  For each interpreter given,
the tool runs every script of ``demos/`` from the repository root with
``src`` on the path, as ``tests/test_demos.py`` does, and requires exit
0, an empty stderr and stdout equal to ``tests/demo_output/<name>.txt``.
It then builds the README transcript with ``transcript`` of
``tests/test_readme_examples.py``, which needs no pytest, under the same
interpreter, and compares it with ``tests/readme_output.txt``; likewise
the usage and error transcript, ``usage_errors`` of ``tests/transcripts.py``,
with ``tests/cli_output/usage_errors.txt``.  Last it
runs ``python -m fareyapprox selftest`` and ``python -m fareyapprox
--help`` and compares them with ``tests/cli_output/selftest.txt`` and
``tests/cli_output/help.txt``, the goldens ``tests/test_cli.py`` reads.
Every check runs with ``COLUMNS=80``, the width the help golden is
wrapped at.

Only the standard library is used, here and in what the interpreters
run, so an interpreter without pytest can be checked.  One line is
printed per interpreter and check, ``same`` or what differs; the exit
code is 1 if any check differs and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300
# Writes the transcript that <builder> makes in a temporary directory to stdout.
_TRANSCRIPT = (
    "import sys, tempfile\n"
    "from pathlib import Path\n"
    "import test_readme_examples, transcripts\n"
    "with tempfile.TemporaryDirectory() as tmp:\n"
    "    sys.stdout.write({builder}(Path(tmp)))\n"
)


def check(cmd: list[str], expected: str) -> str:
    """``same`` if ``cmd`` exits 0 with an empty stderr and stdout ``expected``, else what differs."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
        "PYTHONIOENCODING": "utf-8",
        "PYTHONDONTWRITEBYTECODE": "1",
        "COLUMNS": "80",
    }
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"cannot run: {exc}"
    out, err = proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {(err.strip().splitlines() or [''])[-1]}"
    if err:
        return f"stderr: {err.splitlines()[0]}"
    if out == expected:
        return "same"
    got, want = out.splitlines(), expected.splitlines()
    line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"stdout differs from line {line + 1} ({len(got)} lines, {len(want)} expected)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--python", action="append", required=True, help="an interpreter to check")
    args = parser.parse_args(argv)
    checks = [
        (f"demos/{demo.name}", [str(demo)], ROOT / "tests" / "demo_output" / f"{demo.stem}.txt")
        for demo in sorted((ROOT / "demos").glob("*.py"))
    ]
    checks += [
        (name, ["-c", _TRANSCRIPT.format(builder=builder)], ROOT / "tests" / golden)
        for name, builder, golden in (
            ("README transcript", "test_readme_examples.transcript", "readme_output.txt"),
            ("usage and error transcript", "transcripts.usage_errors", "cli_output/usage_errors.txt"),
        )
    ]
    checks += [
        (f"-m fareyapprox {command}", ["-m", "fareyapprox", command], ROOT / "tests" / "cli_output" / golden)
        for command, golden in (("selftest", "selftest.txt"), ("--help", "help.txt"))
    ]
    differs = 0
    for python in args.python:
        for name, cmd, golden in checks:
            result = check([python, *cmd], golden.read_text(encoding="utf-8"))
            print(f"{python} {name}: {result}", flush=True)
            differs += result != "same"
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
