"""Run the listed mutants of the exact kernels against their tests.

    python tools/mutants.py

Each entry of ``MUTANTS`` names one small change to the source: a file
of the repository, a text that occurs in it exactly once, the text that
replaces it, and what the tests should make of it, ``killed`` or
``equivalent: <reason>`` for a change that cannot alter any answer.  The
tool first copies ``src``, ``tests`` and ``pyproject.toml`` into one
snapshot, so a file edited while it runs reaches none of the runs.  It
copies that snapshot into a temporary directory once per mutant, applies
that one change, and runs

    python -m pytest -q -x -rfE -p no:cacheprovider --hypothesis-seed=0 \
        tests/test_simultaneous.py tests/test_farey.py tests/test_mediants.py

there, one process at a time.  It prints each mutant as ``killed`` with
the first failing test, or as ``survived``.  The unchanged copy is run
first and must pass, so a broken environment does not read as kills.
The exit code is 1 if a mutant not listed as equivalent survives or a
mutant listed as equivalent is killed (the list is then wrong), 2 if
the unchanged copy fails, and 0 otherwise.

A run takes minutes, so tier-1 runs none of it; ``tests/test_mutants.py``
checks only that every listed text still occurs exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIM = "src/fareyapprox/simultaneous.py"
MED = "src/fareyapprox/mediants.py"
TESTS = ["tests/test_simultaneous.py", "tests/test_farey.py", "tests/test_mediants.py"]
# A mutant whose tests run longer than this counts as killed: a scan that
# no longer ends is a fault the tests would hang on.
TIMEOUT_S = 900

# (name, file, old text, new text, expected outcome)
MUTANTS = [
    # _first_fit's hit loop: the step past a block's end is read back off
    # where it left the pivot's shifted residue s.
    ("undo-q1-edge", SIM,
     "q -= q1 if s >= u else", "q -= q1 if s > u else", "killed"),
    ("undo-q3-edge", SIM,
     "else q3 if s >= w - v else", "else q3 if s > w - v else", "killed"),
    ("undo-q2-q3-swapped", SIM,
     "q -= q1 if s >= u else q3 if s >= w - v else q2", "q -= q1 if s >= u else q2 if s >= w - v else q3",
     "killed"),
    # The first item's residue wraps with one compare in each branch.
    ("wrap-g1-strict", SIM,
     "r = r - g1 if r >= g1 else r + f1", "r = r - g1 if r > g1 else r + f1", "killed"),
    ("wrap-g2-strict", SIM,
     "r = r - g2 if r >= g2 else r + f2", "r = r - g2 if r > g2 else r + f2", "killed"),
    ("wrap-g3-strict", SIM,
     "r = r - g3 if r >= g3 else r + f3", "r = r - g3 if r > g3 else r + f3", "killed"),
    ("q1-branch-inclusive", SIM, "if s < wu:", "if s <= wu:", "killed"),
    # A hit's exact test takes the first item, whose window it is in, last.
    ("hit-test-plan-order", SIM, "_fits(exact, q)", "_fits(items, q)", "killed"),
    # The windows: the first item's shifted rule and the ceiling that
    # widens both onto their convergents' residues.
    ("first-window-narrow", SIM, "fw = 2 * fh + 1", "fw = 2 * fh", "killed"),
    ("pivot-window-floor", SIM,
     "h = -(-pb * ((pa * last + pc) // pden) // pd)", "h = pb * ((pa * last + pc) // pden) // pd",
     "killed"),
    ("first-window-floor", SIM,
     "fh = -(-fb * ((fa * last + fc) // fden) // fd)", "fh = fb * ((fa * last + fc) // fden) // fd",
     "killed"),
    # A fixed window (the Dirichlet bound) is one block.
    ("fixed-window-halved", SIM,
     "if pa else hi - lo + 1", "if pa else (hi - lo) // 2 + 1", "killed"),
    # _first_in_window's Euclid-style descent.
    ("first-in-window-short-step", SIM,
     "if a <= w:", "if a < w:",
     "equivalent: at a = w the Euclid round gives the same j as the short step"),
    ("first-in-window-open-end", SIM,
     "j = ((j + 1) * m - b + w - 1) // a", "j = ((j + 1) * m - b + w) // a",
     "equivalent: the interval holds one multiple of a and is shorter than a, so a cannot divide its open end"),
    # A pair whose own gap meets the bound is a subdivision chain of length 0.
    ("empty-chain-forbidden", MED, "p = max(0,", "p = max(1,", "killed"),
    # A sweep point reuses the previous point's answer only for the same q,
    # and its bounds multiply the point's (en, ed) into factors set up once.
    ("witness-reuse-any-q", SIM,
     "if witness is not None and q == witness.q:", "if witness is not None:", "killed"),
    ("bound-factor-wrong", SIM,
     "(xn, xd, tn * xd, td) for", "(xn, xd, tn * td, td) for", "killed"),
]


def _snapshot(dest: Path) -> None:
    # The files every run copies: src, tests and pyproject.toml as they are now.
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, dest / tree, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(snapshot: Path, mutant: tuple[str, str, str, str, str] | None) -> tuple[bool, str]:
    # (passed, first failing test) of the test files on a fresh copy of the
    # snapshot with the mutant applied, or with none.
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp) / "tree"
        shutil.copytree(snapshot, work)
        if mutant is not None:
            _, file, old, new, _ = mutant
            path = work / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *TESTS]
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timeout after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return True, ""
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return False, failed[0] if failed else f"pytest exit {proc.returncode}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-snapshot-") as tmp:
        snapshot = Path(tmp)
        _snapshot(snapshot)
        passed, first = _run_tests(snapshot, None)
        if not passed:
            print(f"the unchanged copy fails: {first}")
            return 2
        wrong = 0
        for mutant in MUTANTS:
            name, expected = mutant[0], mutant[4]
            passed, first = _run_tests(snapshot, mutant)
            equivalent = expected.startswith("equivalent")
            if passed:
                print(f"{name}: survived" + (" (equivalent)" if equivalent else ""), flush=True)
            else:
                print(f"{name}: killed by {first}" + (" (listed as equivalent)" if equivalent else ""),
                      flush=True)
            wrong += passed != equivalent
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
