import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from fareyapprox.cli import run


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


def test_subdivide_rejects_non_consecutive_pair(capsys):
    code, _, err = invoke(
        capsys, ["subdivide", "--lo", "1/5", "--hi", "1/2", "--order", "5", "--gap", "1/7"]
    )
    assert code == 1 and "error" in err


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


def test_solve_infeasible(tmp_path, capsys):
    path = write(tmp_path, "infeasible.txt", "3/7 1/2\n")
    code, out, _ = invoke(capsys, ["solve", "--input", path, "--epsilon", "1/8"])
    assert code == 2
    obj = json.loads(out)
    assert obj["infeasible"] is True and "reason" in obj


def test_solve_malformed_input(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "1/2 1\noops\n")
    code, out, err = invoke(capsys, ["solve", "--input", path, "--epsilon", "1/8"])
    assert code == 1 and out == ""
    assert ":2:" in err  # line number reported


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


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_sweep_geometric_grid_too_long_to_print(tmp_path, capsys):
    # Point k of a geometric grid has a denominator of up to 24*k digits;
    # with 200 points here, str() refuses to print the last ones.
    sqrt2 = write(tmp_path, "sqrt2.txt", "sqrt2 1\n")
    argv = ["sweep", "--input", sqrt2, "--eps-max", "1/10", "--eps-min", "1/1000",
            "--geometric", "--points"]
    assert invoke(capsys, [*argv, "181"])[0] == 0
    code, out, err = invoke(capsys, [*argv, "200"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_compare_command(tmp_path, capsys):
    path = write(tmp_path, "pair.txt", "1/3 1\n2/3 1\n")
    code, out, _ = invoke(capsys, ["compare", "--input", path, "--epsilon", "1/10", "--T", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["constrained"]["q"] == 3
    assert obj["q_bound_constrained"] == "10/1"
    assert obj["q_bound_dirichlet"] == 16
    assert obj["dirichlet_T"] == 4
    assert obj["max_error_constrained"] == "0/1"


def test_compare_non_uniform_weights(tmp_path, capsys):
    path = write(tmp_path, "mixed.txt", "1/3 1\n2/3 2\n")
    code, _, err = invoke(capsys, ["compare", "--input", path, "--epsilon", "1/10", "--T", "4"])
    assert code == 1 and "uniform" in err


def test_comments_and_blank_lines(tmp_path, capsys):
    path = write(tmp_path, "commented.txt", "\n# header\n1/2 1  # trailing\n\n")
    code, out, _ = invoke(capsys, ["solve", "--input", path, "--epsilon", "1/4"])
    assert code == 0
    assert json.loads(out)["q"] == 2


def test_constraint_file_with_utf8_bom(tmp_path, capsys):
    text = "sqrt2 1\nphi 1/2\n"
    plain = write(tmp_path, "plain.txt", text)
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    argv = ["solve", "--epsilon", "1/100", "--input"]
    expected = invoke(capsys, [*argv, plain])
    assert expected[0] == 0
    assert invoke(capsys, [*argv, str(bom)]) == expected


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


def test_usage_errors(capsys):
    assert invoke(capsys, [])[0] == 1
    assert invoke(capsys, ["farey"])[0] == 1  # missing --order
    assert invoke(capsys, ["farey", "--order", "5", "--bogus"])[0] == 1
    assert invoke(capsys, ["nonsense"])[0] == 1
    assert invoke(capsys, ["--help"])[0] == 0


def test_selftest_passes_and_is_deterministic(capsys):
    code1, out1, _ = invoke(capsys, ["selftest"])
    code2, out2, _ = invoke(capsys, ["selftest"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "all passed" in out1
    assert "checks run" in out1


def test_selftest_fault_injection(capsys, monkeypatch):
    from fractions import Fraction

    import fareyapprox.mediants as mediants

    true_gap = mediants.descending_step_gap

    def corrupted(base, i):
        return true_gap(base, i) + Fraction(1, 10**9)

    monkeypatch.setattr(mediants, "descending_step_gap", corrupted)
    code, out, _ = invoke(capsys, ["selftest"])
    assert code == 1
    assert "FAIL" in out
    assert "descending step gap" in out


def test_selftest_catches_a_broken_oracle(capsys, monkeypatch):
    import fareyapprox.simultaneous as simultaneous

    walk = simultaneous._window_hits

    def skip_odd(*args):
        return (q for q in walk(*args) if q % 2 == 0)

    monkeypatch.setattr(simultaneous, "_window_hits", skip_odd)
    code, out, _ = invoke(capsys, ["selftest"])
    assert code == 1
    assert "oracle vs Fraction scan: FAIL" in out


def test_selftest_catches_an_oracle_scanning_past_its_range(capsys, monkeypatch):
    import fareyapprox.simultaneous as simultaneous

    walk = simultaneous._window_hits

    def overshoot(xn, xd, lo, hi, width):
        return walk(xn, xd, lo, 2 * hi, width)

    monkeypatch.setattr(simultaneous, "_window_hits", overshoot)
    code, out, _ = invoke(capsys, ["selftest"])
    assert code == 1
    assert "oracle vs Fraction scan: FAIL" in out


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
