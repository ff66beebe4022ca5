"""CLI calls whose inputs reach the documented size limits.

Every draw runs ``python -m fareyapprox`` in its own process under the
default scan budget, reads at most ``HEAD`` bytes of its stdout and then
closes it, as a reader such as ``head -c`` would.  The call must end
within ``BOUND_S`` seconds with exit code 0, 1 or 2, and its stderr must be
empty or one line that starts with one of the CLI's own prefixes: never
``internal error:`` and never a traceback.

The draws reach literals of ``MAX_LITERAL_DIGITS`` digits and exponents
of ``MAX_LITERAL_EXPONENT`` in absolute value, one past each as well,
``--precision`` up to ``MAX_PRECISION`` + 1, ``--order``, ``--T`` and
``--max-denom`` of up to ``MAX_LITERAL_DIGITS`` digits, and ``--points``
up to ``_MAX_POINTS`` + 1, with and without ``--geometric``.  The
examples pin the slowest calls known: a listing at an order of 4,000
nines and a 10,000-point geometric sweep down to 1e-9999.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fareyapprox.cli import _MAX_POINTS
from fareyapprox.rationals import (
    CONSTANT_NAMES,
    MAX_LITERAL_DIGITS,
    MAX_LITERAL_EXPONENT,
    MAX_PRECISION,
)

SRC = Path(__file__).resolve().parents[1] / "src"
HEAD = 64 * 1024
BOUND_S = 20
PREFIXES = ("error: ", "budget exceeded: ", "infeasible: ")
_DIGITS = "1234567890" * (MAX_LITERAL_DIGITS // 10 + 1)

# A digit count of a literal, up to one past the cap, and of an integer
# option, up to the cap (the interpreter reads up to 4300).
_LITERAL_SIZE = st.integers(1, MAX_LITERAL_DIGITS + 1)
_INT = st.integers(1, MAX_LITERAL_DIGITS).map(lambda n: _DIGITS[:n])
_EXPONENT = st.integers(-12, 3) | st.integers(-MAX_LITERAL_EXPONENT - 1, MAX_LITERAL_EXPONENT + 1)
_MANTISSA = st.one_of(
    _LITERAL_SIZE.map(lambda n: _DIGITS[:n]),
    _LITERAL_SIZE.map(lambda n: "0." + _DIGITS[:n]),
    _LITERAL_SIZE.map(lambda n: "1/" + _DIGITS[:n]),
)
_LITERAL = st.one_of(
    _MANTISSA,
    st.builds("{}e{}".format, _MANTISSA, _EXPONENT),
    st.builds("1e{}".format, _EXPONENT),
    st.sampled_from(CONSTANT_NAMES),
)
_PRECISION = st.integers(1, MAX_PRECISION + 1).map(str)
_POINTS = st.integers(2, _MAX_POINTS + 1).map(str)
_ITEMS = st.lists(st.builds("{} {}".format, _LITERAL, _LITERAL), min_size=1, max_size=3)


@st.composite
def limit_calls(draw):
    # (argv, constraint-file lines or None): the file's path follows --input.
    command = draw(st.sampled_from(["farey", "neighbors", "subdivide", "solve", "dirichlet",
                                    "sweep", "compare"]))
    if command == "farey":
        argv = ["farey", "--order", draw(_INT)]
        for option in ("--from", "--to"):
            if draw(st.booleans()):
                argv += [option, draw(_LITERAL)]
        return argv, None
    argv = [command, "--precision", draw(_PRECISION)]
    if command == "neighbors":
        return argv + ["--x", draw(_LITERAL), "--order", draw(_INT)], None
    if command == "subdivide":
        # 0/1 and 1/N are consecutive in F_N.
        order = draw(_INT)
        argv += ["--lo", "0", "--hi", f"1/{order}", "--order", order, "--gap", draw(_LITERAL)]
        if draw(st.booleans()):
            argv += ["--max-denom", draw(_INT)]
        if draw(st.booleans()):
            argv += ["--max-points", draw(_POINTS)]
        return argv, None
    argv += ["--input"]
    if command in ("solve", "compare"):
        argv += ["--epsilon", draw(_LITERAL)]
    if command in ("dirichlet", "compare"):
        argv += ["--T", draw(_INT)]
    if command == "solve":
        argv += ["--method", draw(st.sampled_from(["brute", "compose"]))]
    if command == "sweep":
        if draw(st.booleans()):
            argv += ["--grid", ",".join(draw(st.lists(_LITERAL, min_size=1, max_size=4)))]
        else:
            argv += ["--eps-max", draw(_LITERAL), "--eps-min", draw(_LITERAL),
                     "--points", draw(_POINTS)]
            if draw(st.booleans()):
                argv += ["--geometric"]
        if draw(st.booleans()):
            argv += ["--csv"]
    return argv, draw(_ITEMS)


def run_bounded(argv, cwd):
    # (exit code, seconds, stderr) of one call whose stdout is read up to
    # HEAD bytes and then closed; a call past BOUND_S is killed and ends as
    # exit code None.
    env = {k: v for k, v in os.environ.items() if k != "FAREY_APPROX_MAX_SCAN"}
    env["PYTHONPATH"] = str(SRC)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "fareyapprox", *argv], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)

    def read_head():
        proc.stdout.read(HEAD)
        proc.stdout.close()

    reader = threading.Thread(target=read_head, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=BOUND_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = None
    seconds = time.monotonic() - start
    reader.join()
    err = proc.stderr.read().decode("utf-8", "replace")
    proc.stderr.close()
    return code, seconds, err


@settings(max_examples=25, deadline=None, derandomize=True)
@given(limit_calls())
@example((["farey", "--order", "9" * 4000], None))
@example((["sweep", "--input", "--eps-max", "1", "--eps-min", "1e-9999", "--points", "10000",
           "--geometric"], ["sqrt2 1", "pi 1/2"]))
def test_calls_at_the_size_limits_end_cleanly(tmp_path_factory, call):
    argv, lines = call
    cwd = tmp_path_factory.getbasetemp()
    if lines is not None:
        (cwd / "items.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [a if a != "--input" else "--input=items.txt" for a in argv]
    code, seconds, err = run_bounded(argv, cwd)
    assert code is not None, f"{argv[0]} still running after {BOUND_S} s"
    assert code in (0, 1, 2)
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n") and err.startswith(PREFIXES)), \
        err[:300]
