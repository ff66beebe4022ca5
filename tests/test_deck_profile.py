"""tools/deck_profile.py: one workload's deck, timed request by request."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "deck_profile.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("deck_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_deck_profile_lists_every_stratum():
    # One pass over the sweep deck: every answer checks out, and each
    # stratum of the deck gets its line before the slowest requests, with
    # its count of exact tests and of the item remainders they compute
    # last.  A second run counts the same tests and remainders.
    deck = load_tool().load_workloads().DECKS["sweep"]
    fits, remainders = [], []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(TOOL), "--workload", "sweep", "--seed", "1", "--passes", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        table, slowest = proc.stdout.split("\nslowest 10 requests\n")
        header, columns, *rows = table.splitlines()
        assert columns.split()[-2:] == ["fits", "remainders"]
        assert [row.split()[0] for row in rows] == list(deck)
        assert [int(row.split()[1]) for row in rows] == list(deck.values())
        assert all(len(row.split()) == 6 for row in rows)
        fits.append([int(row.split()[-2]) for row in rows])
        remainders.append([int(row.split()[-1]) for row in rows])
        assert header.endswith(
            f", {sum(fits[-1])} _fits calls and {sum(remainders[-1])} item remainders per pass"
        )
        assert len(slowest.splitlines()) == 1 + 10
    assert fits[0] == fits[1] and sum(fits[0]) > 0
    assert remainders[0] == remainders[1]
    # Every call computes at least one remainder.
    assert all(f <= r for f, r in zip(fits[0], remainders[0]))


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_ends_quietly(unbuffered):
    # The reader closes the pipe before the table is printed: the tool
    # exits 1 with nothing on stderr, whether its stdout is buffered (the
    # table meets the closed pipe at the flush) or not (at the first line).
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), "--workload", "farey-cli", "--passes", "1"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    try:
        _, stderr = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert (proc.returncode, stderr) == (1, b"")


def test_a_wrong_answer_exits_1(monkeypatch, capsys):
    # workloads.check reports a problem: it is printed and the exit code
    # is 1, with no timing table.
    tool = load_tool()
    load = tool.load_workloads

    def failing_check():
        workloads = load()
        workloads.check = lambda fa, req, result: f"{req.id}: wrong"
        return workloads

    monkeypatch.setattr(tool, "load_workloads", failing_check)
    assert tool.main(["--workload", "farey-cli", "--passes", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("problem: fc-") and "stratum" not in out
