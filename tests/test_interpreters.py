import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "interpreters.py"
INTERPRETERS = runpy.run_path(str(TOOL))
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


def test_interpreters_tool_matches_the_goldens_under_this_python():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--python", sys.executable],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        *(f"{sys.executable} demos/{name}: same" for name in DEMOS),
        f"{sys.executable} README transcript: same",
        f"{sys.executable} usage and error transcript: same",
        f"{sys.executable} -m fareyapprox selftest: same",
        f"{sys.executable} -m fareyapprox --help: same",
    ]


def test_interpreters_tool_reports_each_difference(tmp_path, capsys):
    check = INTERPRETERS["check"]
    assert check([sys.executable, "-c", "print('a')"], "a\n") == "same"
    assert check([sys.executable, "-c", "print('a'); print('c')"], "a\nb\n") == (
        "stdout differs from line 2 (2 lines, 2 expected)"
    )
    assert check([sys.executable, "-c", "print('a')"], "a\nb\n") == (
        "stdout differs from line 2 (1 lines, 2 expected)"
    )
    assert check([sys.executable, "-c", "import sys; sys.stderr.write('w\\n')"], "") == "stderr: w"
    assert check([sys.executable, "-c", "raise SystemExit('bad')"], "") == "exit 1: bad"
    missing = str(tmp_path / "no-python")
    assert INTERPRETERS["main"](["--python", missing]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(DEMOS) + 4 and all(line.startswith(f"{missing} ") for line in lines)
    assert all(": cannot run: " in line for line in lines)
