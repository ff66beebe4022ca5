import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import pairwise
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fareyapprox.cli as cli
import fareyapprox.farey as farey
import fareyapprox.mediants as mediants
import fareyapprox.simultaneous as simultaneous
from fareyapprox import (
    BudgetExceededError,
    InfeasibleError,
    InvalidInputError,
    farey_sequence,
    format_rational,
    subdivide,
)
from fareyapprox.cli import _build_parser, run
from fareyapprox.selftest import run_selftest
from oracles import consecutive_pairs, subdivision_failures
import transcripts


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_farey_lines(capsys):
    code, out, err = invoke(capsys, ["farey", "--order", "5"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[0] == "0/1" and lines[-1] == "1/1"
    assert lines[5] == "1/2"


def test_farey_range_filter(capsys):
    code, out, _ = invoke(capsys, ["farey", "--order", "5", "--from", "1/3", "--to", "2/3"])
    assert code == 0
    assert out.splitlines() == ["1/3", "2/5", "1/2", "3/5", "2/3"]


@st.composite
def farey_windows(draw):
    order = draw(st.integers(1, 60))
    terms = list(farey_sequence(order))
    ends = st.one_of(
        st.sampled_from([F(-1, 2), F(0), F(1), F(3, 2)]),
        st.sampled_from(terms),
        st.builds(F, st.integers(-20, 140), st.integers(1, 120)),
    )
    lo = draw(st.one_of(st.none(), ends))
    hi = draw(st.one_of(st.none(), ends))
    return order, terms, lo, hi, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(farey_windows())
def test_farey_window_matches_filtered_sequence(window):
    # The listing starts at --from instead of filtering from 0/1; hi < lo
    # and ends outside [0, 1] list nothing or everything.
    order, terms, lo, hi, joined = window
    expected = [t for t in terms if (lo is None or t >= lo) and (hi is None or t <= hi)]
    argv = ["farey", "--order", str(order)]
    for option, end in (("--from", lo), ("--to", hi)):
        if end is not None:
            argv += [f"{option}={end}"] if joined else [option, str(end)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    assert out.getvalue() == "".join(f"{t.numerator}/{t.denominator}\n" for t in expected)


def test_farey_listing_starts_at_from():
    # F_300000 has about 2.7*10**10 terms below 999999/1000000; the listing
    # must not build them.
    proc = subprocess.run(
        [sys.executable, "-m", "fareyapprox", "farey", "--order", "300000",
         "--from", "999999/1000000"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1/1\n", "")


def test_farey_listing_stops_at_to():
    # Listing F_300000 whole would take hours; the recurrence must stop at
    # the first term past --to.
    proc = subprocess.run(
        [sys.executable, "-m", "fareyapprox", "farey", "--order", "300000",
         "--to", "1/300000"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0/1\n1/300000\n", "")


@pytest.mark.parametrize(
    "argv, head",
    [
        (["farey", "--order", "100000"], [b"0/1\n", b"1/100000\n"]),
        (["neighbors", "--x", "5/16", "--order", "7"], []),
    ],
)
def test_cli_ends_quietly_when_stdout_closes(argv, head):
    # A reader that takes the head of the output and closes the pipe ends
    # the CLI with exit code 1 and nothing on stderr.  F_100000 has about
    # 3*10**9 terms, so the listing meets the closed pipe at a write; the
    # neighbors line, shorter than stdout's buffer, meets it at the flush
    # that would otherwise fail again at the interpreter's exit.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fareyapprox", *argv],
        env={**env, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    lines = [proc.stdout.readline() for _ in head]
    proc.stdout.close()
    try:
        _, stderr = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert (lines, proc.returncode, stderr) == (head, 1, b"")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_into_a_closed_stdout_ends_quietly(unbuffered):
    # The reader closes the pipe before the help text is written: exit 1
    # with nothing on stderr, whether the help meets the closed pipe at
    # its write (unbuffered) or at the flush in main (buffered).
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fareyapprox", "sweep", "--help"],
        env={**env, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    try:
        _, stderr = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert (proc.returncode, stderr) == (1, b"")


def chunked_windows(terms):
    # The CLI writes the listing 4096 terms at a time.  Ends on a chunk
    # edge, next to one and between terms; hi < lo; ends outside [0, 1].
    chunk = 4096
    between = [(a.numerator + b.numerator) / F(a.denominator + b.denominator)
               for a, b in pairwise(terms)]
    yield None, None
    for i in (chunk - 2, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk):
        if i < len(terms):
            yield None, terms[i]
            yield None, between[i]
            yield terms[i - chunk + 1], None
            yield terms[i - chunk + 1], terms[i]
            yield between[i - chunk], terms[i]
    yield between[100], between[100 + chunk]
    yield terms[len(terms) - chunk - 1], None
    yield between[len(terms) - chunk - 2], None
    yield terms[500], terms[499]
    yield between[500], between[499]
    yield F(-1, 2), F(3, 2)
    yield F(-1), terms[chunk]
    yield terms[chunk], F(2)
    yield F(3, 2), None
    yield None, F(-1, 2)


@pytest.mark.parametrize("order, length", [(120, 4387), (200, 12233)])
def test_farey_listing_spanning_chunks_matches_filtered_sequence(order, length):
    terms = list(farey_sequence(order))
    assert len(terms) == length
    for lo, hi in chunked_windows(terms):
        expected = [t for t in terms if (lo is None or t >= lo) and (hi is None or t <= hi)]
        argv = ["farey", "--order", str(order)]
        for option, end in (("--from", lo), ("--to", hi)):
            if end is not None:
                argv += [f"{option}={end}"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        assert out.getvalue() == "".join(f"{t.numerator}/{t.denominator}\n" for t in expected), argv


def test_neighbors_pair_json(capsys):
    code, out, _ = invoke(capsys, ["neighbors", "--x", "5/16", "--order", "7"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "kind": "pair",
        "left": "2/7",
        "right": "1/3",
        "order": 7,
        "precision": 64,
    }


def test_neighbors_exact_json(capsys):
    code, out, _ = invoke(capsys, ["neighbors", "--x", "0.5", "--order", "7"])
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "exact"
    assert obj["value"] == obj["left"] == obj["right"] == "1/2"


def test_neighbors_out_of_range(capsys):
    code, out, err = invoke(capsys, ["neighbors", "--x", "3/2", "--order", "7"])
    assert code == 1 and out == "" and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["neighbors", "--x", "pi", "--order", "5", "--precision", "5000"],
        ["neighbors", "--x", "1e4000", "--order", "5"],
        ["neighbors", "--x", "sqrt2", "--order", "10", "--precision", "5000"],
    ],
    ids=["pi-5000", "1e4000", "sqrt2-5000"],
)
def test_neighbors_quotes_a_long_value_by_its_head(capsys, argv):
    # An out-of-range value of thousands of digits is quoted by its first
    # 20 characters, as parse_rational quotes a long literal: one short line.
    code, out, err = invoke(capsys, argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 120
    assert err.endswith("... outside [0, 1]\n")
    if argv[2] == "1e4000":
        assert err == f"error: value 1{'0' * 19}... outside [0, 1]\n"


def test_subdivide_quotes_a_long_end_by_its_head(capsys):
    # FareyPair quotes each end as farey_neighbors quotes its value: one of
    # thousands of digits by its first 20 characters, in one short line.
    argv = ["subdivide", "--lo", "sqrt2", "--hi", "1", "--order", "1", "--gap", "1/2",
            "--precision", "5000"]
    err = "error: not an ordered pair in [0, 1]: 35355339059327376220..., 1\n"
    assert invoke(capsys, argv) == (1, "", err)


def test_farey_first_write_is_bounded(monkeypatch):
    # Lines of 8,000 characters are written after about 1 MB of text, not
    # after a chunk of 4096 of them, so a closed pipe is met early.
    sizes = []

    class ClosedPipe:
        def write(self, text):
            sizes.append(len(text))
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run(["farey", "--order", "9" * 4000]) == 1
    assert len(sizes) == 1 and sizes[0] <= 2**20


def test_subdivide_output(capsys):
    code, out, _ = invoke(
        capsys, ["subdivide", "--lo", "1/3", "--hi", "1/2", "--order", "3", "--gap", "1/7"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["1/3", "2/5", "1/2"]
    trailer = json.loads("\n".join(lines[3:]))
    assert trailer["points"] == 3
    assert trailer["max_gap"] == "1/10"
    assert trailer["min_gap"] == "1/15"
    assert trailer["max_denominator"] == 5


def test_subdivide_infeasible_exit_code(capsys):
    code, out, err = invoke(
        capsys,
        ["subdivide", "--lo", "0/1", "--hi", "1/7", "--order", "7",
         "--gap", "1/100", "--max-denom", "10"],
    )
    assert code == 2 and out == ""
    assert "infeasible" in err
    # A gap bound the chain meets only past the denominator cap.
    argv = ["subdivide", "--lo", "0", "--hi", "1", "--order", "1",
            "--gap", "1/2", "--max-denom", "1"]
    assert invoke(capsys, argv) == (
        2, "", "infeasible: gap bound 1/2 needs a chain denominator of 2 > 1\n"
    )


def test_subdivide_gap_must_be_positive(capsys):
    # Checked before --max-denom's default divides by the gap.
    for gap in ("0", "-1/7"):
        argv = ["subdivide", "--lo", "1/3", "--hi", "1/2", "--order", "3", "--gap", gap]
        assert invoke(capsys, argv) == (1, "", "error: gap bound must be positive\n")


def test_subdivide_rejects_non_consecutive_pair(capsys):
    code, _, err = invoke(
        capsys, ["subdivide", "--lo", "1/5", "--hi", "1/2", "--order", "5", "--gap", "1/7"]
    )
    assert code == 1 and "error" in err


@st.composite
def feasible_subdivisions(draw):
    # A consecutive pair whose chain grows on the drawn side, and a gap bound
    # from the widest rung (the longest chain) up to the pair's own gap (the
    # two endpoints alone).
    order = draw(st.integers(1, 40))
    descending = draw(st.booleans()) or order == 1
    base = draw(st.sampled_from([
        p for p in consecutive_pairs(order)
        if (p.right.denominator >= p.left.denominator) == descending
    ]))
    k1, k2 = base.left.denominator, base.right.denominator
    anchor, step = (k2, k1) if descending else (k1, k2)
    widest_rung = F(1, anchor * (anchor + step))
    share = draw(st.sampled_from([F(0), F(1)]) | st.integers(1, 999).map(lambda i: F(i, 1000)))
    return base, widest_rung + (base.right - base.left - widest_rung) * share


@settings(max_examples=200, deadline=None)
@given(feasible_subdivisions())
@example((consecutive_pairs(1)[0], F(1)))  # 0/1, 1/1 alone
@example((consecutive_pairs(40)[0], F(1, 1640)))  # 1602 points from 0/1 to 1/40
@example((consecutive_pairs(40)[-1], F(1, 1640)))  # the same, ascending to 1/1
def test_subdivide_gap_summary_matches_subtraction(case):
    # The trailer's gaps come from denominators; check them against the
    # differences of the printed points.
    base, gap = case
    argv = ["subdivide", "--lo", str(base.left), "--hi", str(base.right),
            "--order", str(base.order), "--gap", str(gap)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    lines = out.getvalue().splitlines()
    start = lines.index("{")
    points = [F(line) for line in lines[:start]]
    trailer = json.loads("\n".join(lines[start:]))
    gaps = [b - a for a, b in pairwise(points)]
    assert trailer["points"] == len(points) >= 2
    assert F(trailer["max_gap"]) == max(gaps) <= gap
    assert F(trailer["min_gap"]) == min(gaps)
    assert trailer["max_denominator"] == max(p.denominator for p in points)


@st.composite
def subdivide_calls(draw):
    # A consecutive pair with a gap bound that gives the two endpoints
    # alone, a chain on either side, or no chain at all, and --max-denom
    # and --max-points left out, tight or invalid.
    order = draw(st.integers(1, 40))
    base = draw(st.sampled_from(consecutive_pairs(order)))
    k1, k2 = base.left.denominator, base.right.denominator
    anchor, step = max(k1, k2), min(k1, k2)
    widest_rung = F(1, anchor * (anchor + step))
    pair_gap = base.right - base.left
    gap = draw(st.one_of(
        st.sampled_from([pair_gap, widest_rung, widest_rung * F(99, 100)]),
        st.integers(1, 1000).map(lambda i: widest_rung + (pair_gap - widest_rung) * F(i, 1000)),
        st.integers(1, 10**6).map(lambda n: F(1, n)),
    ))
    max_denom = draw(st.none() | st.integers(-1, 3000))
    max_points = draw(st.none() | st.integers(0, 40) | st.integers(0, 3000))
    return base, gap, max_denom, max_points


def library_subdivide(base, gap, max_denom, max_points):
    # What the CLI should print, built from subdivide() and Fraction
    # subtraction, with the CLI's defaults and its exit codes.
    if max_denom is None:
        max_denom = max(math.ceil(1 / gap), base.left.denominator, base.right.denominator)
    if max_points is None:
        max_points = cli._MAX_POINTS
    try:
        sub = subdivide(base, gap, max_denom, max_points=max_points)
    except InfeasibleError as exc:
        return 2, "", f"infeasible: {exc}\n"
    except BudgetExceededError as exc:
        return 1, "", f"budget exceeded: {exc}\n"
    except InvalidInputError as exc:
        return 1, "", f"error: {exc}\n"
    points = sub.points
    assert subdivision_failures(points, base, gap, max_denom) == []
    if len(points) > 2:
        # One rung fewer, next to the far endpoint, leaves a gap too wide.
        if base.right.denominator >= base.left.denominator:
            assert points[2] - points[0] > gap
        else:
            assert points[-1] - points[-3] > gap
    gaps = [b - a for a, b in pairwise(points)]
    trailer = {
        "points": len(points),
        "max_gap": format_rational(max(gaps)),
        "min_gap": format_rational(min(gaps)),
        "gap_bound": format_rational(sub.gap_bound),
        "denom_bound": sub.denom_bound,
        "max_denominator": max(p.denominator for p in points),
        "precision": 64,
    }
    lines = "".join(format_rational(p) + "\n" for p in points)
    return 0, lines + json.dumps(trailer, indent=2) + "\n", ""


@settings(max_examples=300, deadline=None)
@given(subdivide_calls())
@example((consecutive_pairs(1)[0], F(1), None, None))  # 0/1, 1/1 alone
@example((consecutive_pairs(40)[0], F(1, 1640), None, None))  # 1602 points, descending
@example((consecutive_pairs(40)[-1], F(1, 1640), None, None))  # the same, ascending
@example((consecutive_pairs(40)[0], F(1, 1640), 79, None))  # one denominator short
@example((consecutive_pairs(40)[0], F(1, 1640), None, 1601))  # one point short
def test_subdivide_cli_matches_library(case):
    # The CLI prints the planner's pairs; subdivide() wraps the same pairs
    # in Fractions.  Both must give the same points, gaps and errors.
    base, gap, max_denom, max_points = case
    argv = ["subdivide", "--lo", str(base.left), "--hi", str(base.right),
            "--order", str(base.order), "--gap", format_rational(gap)]
    argv += [] if max_denom is None else ["--max-denom", str(max_denom)]
    argv += [] if max_points is None else ["--max-points", str(max_points)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert (code, out.getvalue(), err.getvalue()) == library_subdivide(*case)


def test_solve_feasible(tmp_path, capsys):
    path = write(tmp_path, "feasible.txt", "# two targets, one denominator\n1/3 1\n2/3 1\n")
    code, out, _ = invoke(capsys, ["solve", "--input", path, "--epsilon", "1/10"])
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "brute"
    assert obj["q"] == 3
    assert obj["ps"] == [1, 2]
    assert obj["errors"] == ["0/1", "0/1"]
    assert obj["epsilon"] == "1/10"
    assert obj["precision"] == 64


def test_solve_malformed_input(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "1/2 1\noops\n")
    code, out, err = invoke(capsys, ["solve", "--input", path, "--epsilon", "1/8"])
    assert code == 1 and out == ""
    assert ":2:" in err  # line number reported
    good = write(tmp_path, "good.txt", "1/2 1\n")
    assert invoke(capsys, ["solve", "--input", good, "--epsilon", " "]) == (
        1, "", "error: empty rational literal\n"
    )


@pytest.mark.parametrize(
    "text, lineno", [("sqrt2 0\n", 1), ("sqrt3 1\nphi -1/2\n", 2)], ids=["zero", "negative"]
)
def test_constraint_file_rejects_a_non_positive_weight(tmp_path, capsys, text, lineno):
    path = write(tmp_path, "weights.txt", text)
    assert invoke(capsys, ["solve", "--input", path, "--epsilon", "1/8"]) == (
        1, "", f"error: {path}:{lineno}: tolerance weight must be positive\n"
    )


def test_solve_missing_file(capsys):
    code, out, err = invoke(capsys, ["solve", "--input", "no-such-file.txt", "--epsilon", "1/10"])
    assert code == 1 and out == "" and err != ""


def test_solve_compose_method(tmp_path, capsys):
    path = write(tmp_path, "pair.txt", "1/3 1\n1/7 1\n")
    code, out, _ = invoke(capsys, ["solve", "--input", path, "--epsilon", "1/10", "--method", "compose"])
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "compose"
    assert obj["q"] == 21
    assert obj["satisfies_constraints"] is False


def test_solve_compose_caps_the_first_stage(tmp_path, capsys):
    path = write(tmp_path, "root.txt", "sqrt2 1\n")
    argv = ["solve", "--input", path, "--epsilon", "1e-40", "--method", "compose", "--precision", "80"]
    assert invoke(capsys, argv) == (
        1,
        "",
        "budget exceeded: stage denominator 5494168403412088213319314492946575384825 exceeds cap "
        "1000000000000000000000000000000\n",
    )


def test_precision_flag_applies_and_is_echoed(tmp_path, capsys):
    path = write(tmp_path, "pi.txt", "pi 1\n")
    code, out, _ = invoke(
        capsys, ["solve", "--input", path, "--epsilon", "1/10", "--precision", "3"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["precision"] == 3
    # pi truncated to 3 digits is 3141/1000, matched exactly at q = 1000
    assert obj["q"] <= 1000
    code, out2, _ = invoke(
        capsys, ["solve", "--input", path, "--epsilon", "1/10", "--precision", "6"]
    )
    assert json.loads(out2)["q"] != obj["q"] or json.loads(out2) != obj


def test_dirichlet_command(tmp_path, capsys):
    path = write(tmp_path, "one.txt", "phi 1\n")
    code, out, _ = invoke(capsys, ["dirichlet", "--input", path, "--T", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "dirichlet"
    assert obj["T"] == 3
    assert obj["q"] == 2


def test_dirichlet_reports_a_contradicted_pigeonhole_as_internal_error(
    tmp_path, capsys, monkeypatch
):
    # A scan that finds no q where the pigeonhole argument guarantees one
    # is a fault of the program, not an infeasible input.
    monkeypatch.setattr(simultaneous, "_first_fit", lambda *args: None)
    path = write(tmp_path, "roots.txt", "sqrt2 1\nsqrt3 1\n")
    assert invoke(capsys, ["dirichlet", "--input", path, "--T", "10"]) == (
        1,
        "",
        "internal error: no q in 1..99 with all distances <= 1/10; "
        "this contradicts the pigeonhole guarantee for exact inputs\n",
    )


def test_sweep_json_and_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "half.txt", "1/2 1\n")
    code, out, _ = invoke(capsys, ["sweep", "--input", path, "--grid", "1/2,1/4,1/8"])
    assert code == 0
    obj = json.loads(out)
    assert obj["grid"] == ["1/2", "1/4", "1/8"]
    assert obj["feasible"] == [True, True, True]
    assert obj["epsilon0"] == "1/2"
    assert obj["witnesses"][0]["q"] == 1

    bad = write(tmp_path, "hard.txt", "3/7 1/2\n")
    code, out, _ = invoke(capsys, ["sweep", "--input", bad, "--grid", "1/4,1/8"])
    assert code == 2
    assert json.loads(out)["epsilon0"] is None


def test_sweep_csv(tmp_path, capsys):
    path = write(tmp_path, "half.txt", "1/2 1\n")
    code, out, _ = invoke(capsys, ["sweep", "--input", path, "--grid", "1/2,1/4", "--csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "epsilon,feasible,q,max_error"
    assert lines[1] == "1/2,true,1,1/2"
    assert lines[2] == "1/4,true,2,0/1"
    # An infeasible point leaves q and max_error empty.
    path = write(tmp_path, "narrow.txt", "1/2 1/2\n")
    assert invoke(capsys, ["sweep", "--input", path, "--grid", "1,1/4", "--csv"]) == (
        0, "epsilon,feasible,q,max_error\n1/1,false,,\n1/4,true,2,0/1\n", ""
    )


def test_sweep_generated_grids(tmp_path, capsys):
    path = write(tmp_path, "half.txt", "1/2 1\n")
    code, out, _ = invoke(
        capsys,
        ["sweep", "--input", path, "--eps-max", "1/2", "--eps-min", "1/8", "--points", "4"],
    )
    assert code == 0
    assert json.loads(out)["grid"] == ["1/2", "3/8", "1/4", "1/8"]

    code, out, _ = invoke(
        capsys,
        ["sweep", "--input", path, "--eps-max", "1/2", "--eps-min", "1/8",
         "--points", "3", "--geometric"],
    )
    assert code == 0
    grid = [F(g.replace("/", "") and g) for g in json.loads(out)["grid"]]
    assert grid[0] == F(1, 2) and grid[-1] == F(1, 8)
    assert all(a > b for a, b in zip(grid, grid[1:]))
    # middle point approximates the geometric mean 1/4
    assert abs(grid[1] - F(1, 4)) < F(1, 10**6)


def test_sweep_grid_validation(tmp_path, capsys):
    path = write(tmp_path, "half.txt", "1/2 1\n")
    code, _, err = invoke(capsys, ["sweep", "--input", path, "--grid", "1/8,1/4"])
    assert code == 1 and "descending" in err
    code, _, err = invoke(capsys, ["sweep", "--input", path])
    assert code == 1
    code, out, err = invoke(
        capsys,
        ["sweep", "--input", path, "--eps-max", "1/2", "--eps-min", "1/8", "--points", "10001"],
    )
    assert code == 1 and out == "" and "capped" in err
    assert invoke(
        capsys,
        ["sweep", "--input", path, "--eps-max", "1/2", "--eps-min", "1/2", "--points", "3"],
    ) == (1, "", "error: need --points >= 2 and --eps-min < --eps-max\n")


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--eps-max", "1", "--eps-min", "1/2", "--points", "2"], "--eps-max, --eps-min, --points"),
        (["--points", "0"], "--points"),
        (["--eps-min", "1/2"], "--eps-min"),
        (["--geometric"], "--geometric"),
    ],
)
def test_sweep_rejects_grid_with_generated_grid_options(tmp_path, capsys, extra, named):
    # --grid is a whole grid: an option of the generated grid next to it
    # would be dropped, so the call fails and names what was given.
    path = write(tmp_path, "third.txt", "1/3 1\n")
    assert invoke(capsys, ["sweep", "--input", path, "--grid", "1/3", *extra]) == (
        1, "", f"error: --grid cannot be combined with {named}\n"
    )


def test_compare_non_uniform_weights(tmp_path, capsys):
    path = write(tmp_path, "mixed.txt", "1/3 1\n2/3 2\n")
    code, _, err = invoke(capsys, ["compare", "--input", path, "--epsilon", "1/10", "--T", "4"])
    assert code == 1 and "uniform" in err


def test_comments_and_blank_lines(tmp_path, capsys):
    path = write(tmp_path, "commented.txt", "\n# header\n1/2 1  # trailing\n\n")
    code, out, _ = invoke(capsys, ["solve", "--input", path, "--epsilon", "1/4"])
    assert code == 0
    assert json.loads(out)["q"] == 2
    path = write(tmp_path, "only-comment.txt", "# nothing else\n")
    assert invoke(capsys, ["solve", "--input", path, "--epsilon", "1/4"]) == (
        1, "", f"error: {path}: no constraints found\n"
    )


def test_constraint_file_with_utf8_bom(tmp_path, capsys):
    text = "sqrt2 1\nphi 1/2\n"
    plain = write(tmp_path, "plain.txt", text)
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    argv = ["solve", "--epsilon", "1/100", "--input"]
    expected = invoke(capsys, [*argv, plain])
    assert expected[0] == 0
    assert invoke(capsys, [*argv, str(bom)]) == expected


def test_constraint_file_not_utf8(tmp_path, capsys):
    # UTF-16 with its byte-order mark: rejected as input, not a traceback.
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe" + "1/2 1\n".encode("utf-16-le"))
    assert invoke(capsys, ["solve", "--input", str(path), "--epsilon", "1/2"]) == (
        1, "", f"error: {path}: not UTF-8 text (invalid start byte)\n"
    )


def test_constraint_file_with_signed_constants(tmp_path, capsys):
    argv = ["solve", "--epsilon", "1/100", "--input"]
    code_p, out_p, _ = invoke(capsys, [*argv, write(tmp_path, "p.txt", "sqrt2 1\npi 1/2\n")])
    code_n, out_n, _ = invoke(capsys, [*argv, write(tmp_path, "n.txt", "-sqrt2 1\n-pi 1/2\n")])
    assert code_p == code_n == 0
    pos, neg = json.loads(out_p), json.loads(out_n)
    assert neg["q"] == pos["q"]
    assert neg["ps"] == [-p for p in pos["ps"]]
    assert neg["errors"] == pos["errors"]


def test_oversized_literal_and_precision_fail_fast(tmp_path):
    # The exponent is refused before Fraction builds 10**999999999.
    ok = write(tmp_path, "x.txt", "1/3 1\n")
    huge = write(tmp_path, "huge.txt", "1/3 1\n1e1_0000_0 1\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for path, extra in (
        (ok, ["--epsilon", "1e-999999999"]),
        (ok, ["--epsilon", "1e-999_999_999"]),
        (ok, ["--epsilon", "1/8", "--precision", "1000000000"]),
        (huge, ["--epsilon", "1/8"]),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "fareyapprox", "solve", "--input", path, *extra],
            env=env,
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("value", ["0", "-3", "5001"])
def test_precision_out_of_range_names_the_option(tmp_path, capsys, value):
    # The option is checked once, before any input is read: the message
    # names it, not line 1 of the file, and a missing file is not reached.
    path = write(tmp_path, "in.txt", "sqrt2 1\n")
    missing = str(tmp_path / "missing.txt")
    expected = (1, "", "error: --precision must be an integer in 1..5000\n")
    for argv in (
        ["solve", "--input", path, "--epsilon", "1/100"],
        ["solve", "--input", missing, "--epsilon", "1/100"],
        ["sweep", "--input", path, "--grid", "1/2,1/4"],
        ["neighbors", "--x", "1/2", "--order", "3"],
        SUBDIVIDE,
    ):
        assert invoke(capsys, [*argv, "--precision", value]) == expected


def test_scan_budget_env(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "sqrt2.txt", "sqrt2 1\n")
    monkeypatch.setenv("FAREY_APPROX_MAX_SCAN", "5")
    code, out, err = invoke(capsys, ["solve", "--input", path, "--epsilon", "1/1000"])
    assert code == 1 and out == ""
    assert "budget exceeded" in err
    code, out, err = invoke(capsys, ["sweep", "--input", path, "--grid", "1/2,1/1000"])
    assert code == 1 and out == ""
    assert "budget exceeded" in err

    monkeypatch.setenv("FAREY_APPROX_MAX_SCAN", "bogus")
    code, _, err = invoke(capsys, ["solve", "--input", path, "--epsilon", "1/1000"])
    assert code == 1 and "FAREY_APPROX_MAX_SCAN" in err


@pytest.mark.parametrize(
    "argv, items",
    [
        (["solve", "--epsilon", "1e-5000"], 2),
        (["compare", "--epsilon", "1e-5000", "--T", "10"], 2),
        (["solve", "--epsilon", "1e-5000", "--method", "compose", "--precision", "5000"], 2),
        (["dirichlet", "--T", "1" + "0" * 2200], 2),
        (["dirichlet", "--T", "1" + "0" * 3999], 3000),
    ],
)
def test_budget_error_with_a_count_too_long_to_print(tmp_path, capsys, argv, items):
    # q_max = 10**5000, compose's stage denominator and T**n - 1 have more
    # digits than str() prints, so the message gives their size; T**n is
    # never taken for the last case.
    path = write(tmp_path, "roots.txt", "sqrt2 1\nsqrt3 1\n" * (items // 2))
    start = time.perf_counter()
    code, out, err = invoke(capsys, [argv[0], "--input", path, *argv[1:]])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1
    assert " or more " in err


@contextlib.contextmanager
def no_digit_limit():
    # Lift str()'s limit on int digits, where the interpreter has one.
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_budget_messages_under_any_digit_limit(tmp_path, capsys):
    # A count str() refuses under the limit in force is given by its size.
    # The Dirichlet bound T**n - 1 is never taken for 8 targets and a T of
    # 601 digits, so its message is the same lower bound whatever the limit.
    path = write(tmp_path, "sqrt2.txt", "sqrt2 1\n")
    solve = ["solve", "--input", path, "--epsilon", "1e-1000"]
    dirichlet = ["dirichlet", "--input", write(tmp_path, "eight.txt", "sqrt2 1\n" * 8),
                 "--T", "1" + "0" * 600]
    bound = (1, "", "budget exceeded: T**n - 1 = 2**15943 or more exceeds scan budget 10000000\n")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert invoke(capsys, solve) == (
            1, "", "budget exceeded: scan budget exhausted after 10000000 of 2**3321 or more "
            "denominators\n"
        )
        assert invoke(capsys, dirichlet) == bound
    finally:
        sys.set_int_max_str_digits(old)
    assert invoke(capsys, dirichlet) == bound
    with no_digit_limit():
        assert invoke(capsys, dirichlet) == bound


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_literal_past_a_lowered_digit_limit_names_it(tmp_path, capsys):
    # A literal within MAX_LITERAL_DIGITS but past the interpreter's limit
    # is refused with that limit, wherever a literal is read.
    long = "1/1" + "0" * 700
    path = write(tmp_path, "long.txt", f"{long} 1\n")
    short = write(tmp_path, "short.txt", "1/3 1\n")
    message = ("literal '1/100000000000000000'... has a number of more than 640 digits, "
               "the interpreter's limit (PYTHONINTMAXSTRDIGITS)\n")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for argv, prefix in (
            (["solve", "--input", short, "--epsilon", long], ""),
            (["solve", "--input", path, "--epsilon", "1/10"], f"{path}:1: "),
            (["neighbors", "--x", long, "--order", "5"], ""),
            (["farey", "--order", "5", "--from", long], ""),
        ):
            assert invoke(capsys, argv) == (1, "", f"error: {prefix}{message}")
    finally:
        sys.set_int_max_str_digits(old)


_LONG_FILES = {"sqrt2.txt": "sqrt2 1\n", "sqrt3.txt": "sqrt3 1\n", "zero.txt": "0 1\n",
               "huge.txt": "1e9000 1\n"}


@pytest.mark.parametrize(
    "argv, short, code",
    [
        # Witness errors with denominators of 4400+ digits.
        (["solve", "--input", "sqrt2.txt", "--epsilon", "1/10", "--precision", "4400"],
         ["--precision", "64"], 0),
        (["solve", "--input", "sqrt3.txt", "--epsilon", "1/10", "--precision", "4400"],
         ["--precision", "64"], 0),
        # epsilon echoed back, feasible and with an empty range.
        (["solve", "--input", "zero.txt", "--epsilon", "1e-5000"], ["--epsilon", "1e-50"], 0),
        (["solve", "--input", "zero.txt", "--epsilon", "1e5000"], ["--epsilon", "1e50"], 2),
        # A JSON int of 9001 digits: p for the target 10**9000.
        (["solve", "--input", "huge.txt", "--epsilon", "1/10"], ["--input", "zero.txt"], 0),
        # Subdivision messages.
        (["subdivide", "--lo", "0", "--hi", "1/7", "--order", "7", "--gap", "1e-5000",
          "--max-denom", "10"], ["--gap", "1e-50"], 2),
    ],
    ids=["solve-sqrt2", "solve-sqrt3", "solve-tiny-eps", "solve-huge-eps",
         "solve-huge-p", "subdivide-tiny-gap"],
)
def test_values_past_the_print_limit_print_exactly(tmp_path, capsys, argv, short, code):
    # No traceback, the exit code of the same call with short values, under
    # 1 s, and the very text str() would print with no digit limit.
    for name, text in _LONG_FILES.items():
        write(tmp_path, name, text)

    def placed(args):
        return [str(tmp_path / a) if a in _LONG_FILES else a for a in args]

    start = time.perf_counter()
    got = invoke(capsys, placed(argv))
    assert time.perf_counter() - start < 1
    assert got[0] == code
    assert len(got[1]) + len(got[2]) > 5000 and got[2].count("\n") <= 1
    shortened = argv + short  # argparse keeps the last value of an option
    assert invoke(capsys, placed(shortened))[0] == code
    with no_digit_limit():
        assert invoke(capsys, placed(argv)) == got


def floor_root(lam, m, scale=10**24):
    # The largest root with (root/scale)**m <= lam < 1, by binary search.
    lo, hi = 0, scale
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**m * lam.denominator <= lam.numerator * scale**m:
            lo = mid
        else:
            hi = mid - 1
    return lo


def round96(x):
    # x rounded down to 96 significant bits: floor(x * 2**s) / 2**s with
    # s = 96 + (bits of the denominator) - (bits of the numerator).
    s = 96 + x.denominator.bit_length() - x.numerator.bit_length()
    if s >= 0:
        return F(x.numerator * 2**s // x.denominator, 2**s)
    return F(x.numerator // (x.denominator << -s) << -s)


@pytest.mark.parametrize("count", [181, 200, 1000])
def test_geometric_grid_points_are_rounded_to_96_bits(tmp_path, capsys, count):
    # Every interior point is the previous one times the ratio, rounded
    # down to 96 bits, so a grid prints at any count up to the cap.
    path = write(tmp_path, "sqrt2.txt", "sqrt2 1\n")
    code, out, err = invoke(
        capsys,
        ["sweep", "--input", path, "--eps-max", "1/10", "--eps-min", "1/1000", "--geometric",
         "--csv", "--points", str(count)],
    )
    assert code == 0 and err == "" and out.count("\n") == count + 1
    grid = [F(row.split(",")[0]) for row in out.splitlines()[1:]]
    assert grid[0] == F(1, 10) and grid[-1] == F(1, 1000) and len(grid) == count
    assert all(a > b for a, b in pairwise(grid))
    ratio = F(floor_root(F(1, 100), count - 1), 10**24)
    assert all(b == round96(a * ratio) for a, b in pairwise(grid[:-1]))


@st.composite
def geometric_spans(draw):
    # eps_max, eps_min and a point count; the ratio eps_min/eps_max is drawn
    # anywhere in (0, 1), or within a few parts in 10**6 of 1.
    top = F(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
    den = draw(st.integers(2, 10**30))
    near_one = draw(st.booleans())
    num = max(1, den - draw(st.integers(1, 3))) if near_one else draw(st.integers(1, den - 1))
    return top, top * F(num, den), draw(st.integers(2, 170))


@settings(max_examples=200, deadline=None)
@given(geometric_spans())
@example((F(1), F(1, 10**30), 2))  # the ratio 10**-30 is below the scale: too extreme
@example((F(1, 2), F(1, 3), 2))  # count 2: the grid is the two ends
@example((F(1, 2), F(1, 8), 3))  # (root/10**24)**2 == 1/4 exactly: root = 5 * 10**23
@example((F(1), F(25 * 10**46 - 1, 10**48), 3))  # just below that square: 5 * 10**23 - 1
@example((F(1), F(999_999, 1_000_000), 170))  # a ratio near 1 at the largest count drawn
@example((F(1), F(10**30 - 1, 10**30), 170))  # closer to 1 than the scale: too fine
def test_geometric_ratio_is_the_floor_root(span):
    # The grid's ratio is root/10**24 for the largest root with
    # root**m * lam.denominator <= lam.numerator * 10**(24m), lam = eps_min/eps_max.
    top, bottom, count = span
    args = argparse.Namespace(
        grid=None, eps_max=format_rational(top), eps_min=format_rational(bottom), points=count,
        geometric=True,
    )
    lam, m, scale = bottom / top, count - 1, 10**24
    bound = lam.numerator * scale**m
    try:
        points = cli._build_grid(args)
    except InvalidInputError as exc:
        if str(exc) == "geometric grid too extreme for the fixed ratio scale":
            assert lam.denominator > bound
            return
        # Too fine: the last interior point, the top times the ratio m - 1
        # times with each product rounded down, is not above the bottom.
        assert str(exc) == "geometric grid too fine for the fixed ratio scale"
        point, ratio = top, F(floor_root(lam, m), scale)
        for _ in range(m - 1):
            point = round96(point * ratio)
        assert count > 2 and point <= bottom
        return
    assert points[0] == top and points[-1] == bottom and len(points) == count
    assert all(a > b for a, b in pairwise(points))
    assert lam.denominator <= bound  # root >= 1
    if count == 2:
        return
    root = floor_root(lam, m)
    assert root**m * lam.denominator <= bound < (root + 1) ** m * lam.denominator
    assert points[1] == round96(top * F(root, scale))


def test_geometric_grid_too_fine_for_the_ratio_scale(tmp_path, capsys):
    # bottom/top = 1 - 10**-30: the ratio, a multiple of 10**-24 at or below
    # the true 169th root, takes the last interior point below eps_min,
    # which the error blames on the ratio's scale, not on the user's grid.
    path = write(tmp_path, "sqrt2.txt", "sqrt2 1\n")
    assert invoke(
        capsys,
        ["sweep", "--input", path, "--eps-max", "1", "--eps-min",
         "0.999999999999999999999999999999", "--points", "170", "--geometric"],
    ) == (1, "", "error: geometric grid too fine for the fixed ratio scale\n")


def test_geometric_grid_of_halves_has_no_point_cap():
    # With the ratio exactly 1/2 point k is 2**-k, under 3,011 digits for
    # every k <= 10,000, so only the digit check may bound a geometric grid,
    # never the count of points alone.
    args = argparse.Namespace(
        grid=None, eps_max="1", eps_min=f"1/{2**1999}", points=2000, geometric=True
    )
    points = cli._build_grid(args)
    assert len(points) == 2000
    assert all(b == a / 2 for a, b in pairwise(points))


def test_geometric_grid_at_the_point_cap_is_fast(tmp_path):
    # The ratio for 10,000 points is found in 80 comparisons and each point
    # keeps 96 bits, so the whole grid is built and printed in about a second.
    path = write(tmp_path, "sqrt2.txt", "sqrt2 1\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "fareyapprox", "sweep", "--input", path, "--eps-max", "1/2",
         "--eps-min", "1/3", "--points", "10000", "--geometric"],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.encode()) < 5_000_000
    assert len(json.loads(proc.stdout)["grid"]) == 10_000


def test_usage_errors(capsys):
    assert invoke(capsys, [])[0] == 1
    assert invoke(capsys, ["farey"])[0] == 1  # missing --order
    assert invoke(capsys, ["farey", "--order", "5", "--bogus"])[0] == 1
    assert invoke(capsys, ["farey", "--order", "0"]) == (
        1, "", "error: Farey order must be a positive integer\n"
    )
    assert invoke(capsys, ["nonsense"])[0] == 1
    assert invoke(capsys, ["--help"])[0] == 0
    assert invoke(capsys, ["farey", "-h"])[0] == 0
    code, _, err = invoke(capsys, ["farey", "--order", "5", "--from"])
    assert code == 1 and "expected one argument" in err
    code, _, err = invoke(capsys, ["farey", "--order", "5", "-x"])
    assert code == 1 and "unrecognized arguments: -x" in err


LONG_INT = "1" + "0" * 4400
LONG_INT_TEXT = (
    "'10000000000000000000'... has more than 4300 digits, "
    "the interpreter's limit (PYTHONINTMAXSTRDIGITS)"
)
SUBDIVIDE = ["subdivide", "--lo", "0", "--hi", "1", "--order", "1", "--gap", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--input", "c.txt", "--epsilon", "1/2", "--T", LONG_INT],
        ["farey", "--order", LONG_INT],
        ["sweep", "--input", "c.txt", "--eps-max", "1/2", "--eps-min", "1/4", "--points", LONG_INT],
        ["solve", "--input", "c.txt", "--epsilon", "1/2", "--precision", LONG_INT],
        [*SUBDIVIDE, "--max-denom", LONG_INT],
        [*SUBDIVIDE, "--max-points", LONG_INT],
    ],
)
def test_oversized_int_option_is_quoted_short(capsys, argv):
    # argparse alone would quote all 4,401 digits, past the interpreter's
    # limit; the message quotes the first 20 characters and names the
    # limit, after the usage.
    option = argv[argv.index(LONG_INT) - 1]
    code, out, err = invoke(capsys, argv)
    assert code == 1 and out == "" and len(err.encode()) < 400
    assert err.endswith(f"error: argument {option}: {LONG_INT_TEXT}\n")


def test_bad_int_option_messages(capsys):
    code, out, err = invoke(capsys, ["dirichlet", "--input", "c.txt", "--T", LONG_INT])
    assert (code, out) == (1, "") and len(err.encode()) < 300
    assert err.splitlines()[-1] == f"farey-approx dirichlet: error: argument --T: {LONG_INT_TEXT}"
    # A value of at most 20 characters keeps argparse's own text; a longer
    # malformed one within the limit is quoted to 20 characters.
    code, out, err = invoke(capsys, ["farey", "--order", "abc"])
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (
        "farey-approx farey: error: argument --order: invalid int value: 'abc'"
    )
    code, out, err = invoke(capsys, ["farey", "--order", "1" * 30 + "x"])
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (
        "farey-approx farey: error: argument --order: invalid int value: '11111111111111111111'..."
    )


def test_negative_looking_values_are_values(capsys):
    # A value with one leading "-" parses with or without "=".
    listing = (0, "0/1\n1/3\n1/2\n2/3\n1/1\n", "")
    assert invoke(capsys, ["farey", "--order", "3", "--from", "-1/2"]) == listing
    neighbors = invoke(capsys, ["neighbors", "--x", "-sqrt2", "--order", "3"])
    assert neighbors == invoke(capsys, ["neighbors", "--x=-sqrt2", "--order", "3"])
    code, out, err = neighbors
    assert code == 1 and out == "" and "outside [0, 1]" in err


# Goldens that tools/interpreters.py also compares under other Pythons.
_GOLDENS = Path(__file__).resolve().parent / "cli_output"
_TOP_HELP = (_GOLDENS / "help.txt").read_text(encoding="utf-8")
_SUBDIVIDE_USAGE = """\
usage: farey-approx subdivide [-h] --lo LO --hi HI --order ORDER --gap GAP
                              [--max-denom MAX_DENOM]
                              [--max-points MAX_POINTS]
                              [--precision PRECISION]
"""
_SUBDIVIDE_HELP = _SUBDIVIDE_USAGE + """
options:
  -h, --help            show this help message and exit
  --lo LO
  --hi HI
  --order ORDER
  --gap GAP             upper bound for consecutive gaps
  --max-denom MAX_DENOM
  --max-points MAX_POINTS
  --precision PRECISION
                        decimal digits kept for named constants (default 64)
"""
# Every named constant exceeds 1, so --x takes none of them.
_NEIGHBORS_HELP = """\
usage: farey-approx neighbors [-h] --x X --order ORDER [--precision PRECISION]

options:
  -h, --help            show this help message and exit
  --x X                 value in [0, 1] to bracket; every named constant
                        exceeds 1, so names do not apply
  --order ORDER
  --precision PRECISION
                        decimal digits kept for named constants (default 64)
"""
_MISSING_REQUIRED = _SUBDIVIDE_USAGE + (
    "farey-approx subdivide: error: the following arguments are required: --hi, --gap\n"
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["-h"], (0, _TOP_HELP, "")),
        (["subdivide", "-h"], (0, _SUBDIVIDE_HELP, "")),
        (["neighbors", "-h"], (0, _NEIGHBORS_HELP, "")),
        (["subdivide", "--lo", "1/3", "--order", "3"], (1, "", _MISSING_REQUIRED)),
    ],
)
def test_help_and_usage_bytes(capsys, monkeypatch, argv, expected):
    # Golden: help and usage text at 80 columns, the same on a second call
    # in the same process.
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(capsys, argv) == expected
    assert invoke(capsys, argv) == expected


def test_cached_parser_carries_no_state(tmp_path, capsys, monkeypatch):
    # One parser serves every run() call; each call in a sequence that sets
    # an option, fails to parse or prints help, and then leaves them out,
    # must print what it prints on a parser of its own.
    assert cli._build_parser() is cli._build_parser()
    pair = write(tmp_path, "pair.txt", "1/3 1\n2/3 1\n")
    mix = write(tmp_path, "mix.txt", "sqrt2 1\n1/3 1\n")
    solve = ["solve", "--input", pair, "--epsilon", "1/10"]
    sweep = ["sweep", "--input", mix, "--grid", "1/2,1/4,1/8"]
    calls = [
        solve + ["--method", "compose"], solve,
        sweep + ["--csv"], sweep,
        sweep + ["--points", "x"], sweep,
        ["farey", "--order", "5", "--bogus"], ["farey", "--order", "5"],
        ["solve", "--epsilon", "1/10"], solve + ["--precision", "30"], solve,
        ["-h"], ["neighbors", "--x", "5/16", "--order", "7"],
        ["sweep", "-h"], sweep,
    ]
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [invoke(capsys, argv) for argv in calls]
    assert [invoke(capsys, argv) for argv in calls] == fresh


def test_usage_and_error_transcript(tmp_path, monkeypatch):
    # Golden: exit code, stdout and stderr of usage errors, help, "--",
    # values that look like options and one valid call per subcommand.
    monkeypatch.setenv("COLUMNS", "80")
    golden = transcripts.USAGE_GOLDEN.read_text(encoding="utf-8")
    assert transcripts.usage_errors(tmp_path) == golden


@pytest.mark.parametrize(
    "argv, passes",
    [(["neighbors", "--x", "1/3", "--order", "5"], 0), ([], 1), (["-h"], 1), (["nonsense"], 1)],
)
def test_top_level_parser_runs_only_without_a_command(capsys, monkeypatch, argv, passes):
    # An argv that names a subcommand is parsed by that subcommand alone.
    parser = cli._build_parser()
    parse_known_args = parser.parse_known_args
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return parse_known_args(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    invoke(capsys, argv)
    assert len(calls) == passes


SELFTEST_STDOUT = (_GOLDENS / "selftest.txt").read_text(encoding="utf-8")


def test_selftest_passes_and_is_deterministic(capsys):
    # Golden: every group line and count, so a refactor of the checks
    # cannot silently drop or rename one.
    assert invoke(capsys, ["selftest"]) == (0, SELFTEST_STDOUT, "")
    assert invoke(capsys, ["selftest"]) == (0, SELFTEST_STDOUT, "")


def test_selftest_writes_to_stdout_at_call_time():
    # sys.stdout is looked up when the report is written, so a redirect
    # made after the package was imported receives it.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_selftest() == 0
    assert out.getvalue() == SELFTEST_STDOUT


def failed_selftest(capsys):
    code, out, _ = invoke(capsys, ["selftest"])
    assert code == 1
    return out


def test_selftest_fault_injection(capsys, monkeypatch):
    true_gap = mediants.descending_step_gap

    def corrupted(base, i):
        return true_gap(base, i) + F(1, 10**9)

    monkeypatch.setattr(mediants, "descending_step_gap", corrupted)
    assert "FAIL descending step gap" in failed_selftest(capsys)


def test_selftest_catches_a_skipped_farey_term(capsys, monkeypatch):
    pairs = farey._farey_pairs

    def skip_second(order, *window):
        # Only F_25 loses a term; the gap identities list F_8.
        return (t for k, t in enumerate(pairs(order, *window)) if order != 25 or k != 1)

    monkeypatch.setattr(farey, "_farey_pairs", skip_second)
    assert "farey properties order=25: FAIL" in failed_selftest(capsys)


def test_selftest_catches_a_false_compose_flag(capsys, monkeypatch):
    compose = simultaneous.compose_solve

    def always_claims(cs, eps):
        sol = compose(cs, eps)
        return simultaneous.Solution(sol.q, sol.ps, sol.errors, eps, "compose", True)

    monkeypatch.setattr(simultaneous, "compose_solve", always_claims)
    out = failed_selftest(capsys)
    assert "compose vs oracle: FAIL" in out
    assert "flag True but checker says False" in out


def test_selftest_catches_a_broken_oracle(capsys, monkeypatch):
    fits = simultaneous._fits

    def reject_odd(items, q):
        return q % 2 == 0 and fits(items, q)

    monkeypatch.setattr(simultaneous, "_fits", reject_odd)
    assert "oracle vs Fraction scan: FAIL" in failed_selftest(capsys)


def test_selftest_catches_an_oracle_scanning_past_its_range(capsys, monkeypatch):
    first_fit = simultaneous._first_fit

    def overshoot(items, lo, hi, path):
        return first_fit(items, lo, 2 * hi, path)

    monkeypatch.setattr(simultaneous, "_first_fit", overshoot)
    assert "oracle vs Fraction scan: FAIL" in failed_selftest(capsys)


def test_selftest_catches_a_sweep_skipping_the_previous_witness(capsys, monkeypatch):
    first_fit = simultaneous._first_fit

    def skip_start(items, lo, hi, path):
        # Only a sweep starts above q = 1.
        return first_fit(items, lo + 1 if lo > 1 else lo, hi, path)

    monkeypatch.setattr(simultaneous, "_first_fit", skip_start)
    out = failed_selftest(capsys)
    assert "oracle vs Fraction scan: ok" in out
    assert "sweep vs oracle: FAIL" in out


def test_sweep_determinism(tmp_path, capsys):
    path = write(tmp_path, "mix.txt", "sqrt2 1\n1/3 1\n")
    argv = ["sweep", "--input", path, "--grid", "1/2,1/4,1/8,1/16"]
    code1, out1, _ = invoke(capsys, argv)
    code2, out2, _ = invoke(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["epsilon0"] == "1/2"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fareyapprox", "farey", "--order", "2"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0/1", "1/2", "1/1"]


_SQRT2_ERROR = (
    "73593128807148535949338273709057642909843738691557804699607863/"
    "30000000000000000000000000000000000000000000000000000000000000000"
)


def _sol(method, q, ps, errors, epsilon, **extra):
    return {"method": method, "q": q, "ps": ps, "errors": errors, "epsilon": epsilon, **extra}


_INFEASIBLE_3_7 = {"infeasible": True, "reason": "no feasible denominator in 1..4"}
_GOLDEN_FILES = {"pair.txt": "1/3 1\n2/3 1\n", "hard.txt": "3/7 1/2\n", "mix.txt": "sqrt2 1\n1/3 1\n"}


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (
            ["compare", "--input", "pair.txt", "--epsilon", "1/10", "--T", "4"],
            0,
            {
                "epsilon": "1/10",
                "constrained": _sol("brute", 3, [1, 2], ["0/1", "0/1"], "1/10"),
                "dirichlet_T": 4,
                "dirichlet": _sol("dirichlet", 3, [1, 2], ["0/1", "0/1"], "1/4"),
                "q_bound_constrained": "10/1",
                "q_bound_dirichlet": 16,
                "max_error_constrained": "0/1",
                "max_error_dirichlet": "0/1",
            },
        ),
        (
            ["compare", "--input", "hard.txt", "--epsilon", "1/8", "--T", "3"],
            0,
            {
                "epsilon": "1/8",
                "constrained": _INFEASIBLE_3_7,
                "dirichlet_T": 3,
                "dirichlet": _sol("dirichlet", 2, [1], ["1/14"], "1/3"),
                "q_bound_constrained": "4/1",
                "q_bound_dirichlet": 3,
                "max_error_constrained": None,
                "max_error_dirichlet": "1/14",
            },
        ),
        (
            ["sweep", "--input", "hard.txt", "--grid", "1/2,1/4,1/8"],
            2,
            {
                "grid": ["1/2", "1/4", "1/8"],
                "feasible": [False, True, False],
                "epsilon0": None,
                "witnesses": [None, _sol("brute", 2, [1], ["1/14"], "1/4"), None],
            },
        ),
        (
            ["solve", "--input", "hard.txt", "--epsilon", "1/8"],
            2,
            {**_INFEASIBLE_3_7, "epsilon": "1/8"},
        ),
        (
            ["solve", "--input", "pair.txt", "--epsilon", "1/10", "--method", "compose"],
            0,
            _sol("compose", 3, [1, 2], ["0/1", "0/1"], "1/10", satisfies_constraints=True),
        ),
        (
            ["dirichlet", "--input", "mix.txt", "--T", "5"],
            0,
            {**_sol("dirichlet", 12, [17, 4], [_SQRT2_ERROR, "0/1"], "1/5"), "T": 5},
        ),
    ],
)
def test_json_output_bytes(tmp_path, capsys, argv, code, expected):
    # Pins whole stdout: key order, indentation and the trailing precision.
    for name, text in _GOLDEN_FILES.items():
        write(tmp_path, name, text)
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    out = json.dumps({**expected, "precision": 64}, indent=2) + "\n"
    assert invoke(capsys, argv) == (code, out, "")


# --- fuzz ------------------------------------------------------------------

_ODD = st.sampled_from(
    ["1/0", "-0", "+3/4", "1_000/7", "-2.5e-3", "1e-40", "1e99999", "1__0", "nan", "1/", "x",
     "", "-", "--", "-h", "0", "-3", "1.5"]
)
_UNIT = st.integers(1, 300).flatmap(lambda d: st.integers(0, d).map(f"{{}}/{d}".format))
_REALS = st.one_of(
    _UNIT,
    st.builds("{}/{}".format, st.integers(-20, 300), st.integers(1, 30)),
    st.sampled_from(["sqrt2", "-sqrt2", "PHI", "-e", "pi"]),
)
_INTS = st.integers(1, 200).map(str)
# A consecutive pair of F_N and its order, so that subdivide gets past its checks.
_PAIRS = st.integers(1, 30).flatmap(
    lambda n: st.sampled_from([(str(a), str(b), str(n)) for a, b in pairwise(farey_sequence(n))])
)
_SUBPARSERS = next(
    a.choices for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
)
_ITEM = st.builds("{} {}".format, _REALS, st.sampled_from(["1", "1/2", "2", "1/10"]))
_BLANK = st.sampled_from(["", "   ", "# comment", "1/2 1 # trailing", "\t1/3\t2"])
_ODD_LINE = st.builds("{} 1".format, _ODD) | st.sampled_from(["1/2", "1/2 1 1", "1/2 0", "1/2 -1"])
# A constraint-file line: an item eight times in ten.
_LINE = st.sampled_from([_ITEM] * 8 + [_BLANK, _ODD_LINE]).flatmap(lambda line: line)


@st.composite
def cli_calls(draw):
    # Every option of a subcommand, from its parser: each is left out one
    # time in twenty and given an odd value one time in twenty.
    command = draw(st.sampled_from(sorted(_SUBPARSERS)))
    lo, hi, order = draw(_PAIRS)
    by_dest = {
        "lo": st.just(lo), "hi": st.just(hi), "order": st.just(order),
        "grid": st.lists(_REALS, min_size=1, max_size=6).map(",".join),
        "method": st.sampled_from(["brute", "compose"]), "input": st.none(),
    }
    argv = [command]
    for action in _SUBPARSERS[command]._actions[1:]:  # all but -h
        option = action.option_strings[0]
        roll = draw(st.sampled_from(["keep"] * 18 + ["odd", "drop"]))
        if action.nargs == 0 or roll == "drop":
            argv += [option] if roll == "keep" else []
            continue
        default = _INTS if action.type is int else _REALS
        value = draw(_ODD if roll == "odd" else by_dest.get(action.dest, default))
        forms = [[option]] if value is None else [[option, value], [f"{option}={value}"]]
        argv += draw(st.sampled_from(forms))
    argv += draw(st.sampled_from([[]] * 18 + [["--bogus"], ["-x"], ["extra"]]))
    lines = draw(st.lists(_LINE, min_size=1, max_size=5))
    return argv, draw(st.sampled_from(["", "\ufeff"])) + "\n".join(lines)


@settings(max_examples=300, deadline=5000)
@given(call=cli_calls())
@example(call=(["neighbors", "--order", "3", "--x=--"], ""))  # argparse made --x=-- a list
@example(call=(["solve", "--input", "--epsilon", "1/2"], b"\xff\xfe1/2 1"))  # not UTF-8
def test_cli_fuzz_exits_cleanly(tmp_path_factory, call):
    # Every argv and constraint file ends in exit 0, 1 or 2 with no
    # exception escaping.  Orders, --precision and the other integers stay
    # at most 200 and the scan budget at 20000, so each example is quick.
    # A file given as bytes is written as it is.
    argv, text = call
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    argv = [f"--input={path}" if a == "--input" else a for a in argv]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FAREY_APPROX_MAX_SCAN", "20000")
        mp.setattr("fareyapprox.cli.run_selftest", lambda: 0)  # pinned by the golden test
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run(argv) in (0, 1, 2)
