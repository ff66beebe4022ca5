"""Seeded workloads, request execution and answer checks for the benchmark.

Every request a run sends comes from a committed pool in
``reference.json``.  Each pool entry holds one request's inputs, the
stratum it belongs to (its kind, verdict and work size) and the digest
of its answer at the commit that generated the pool.  A run's deck is a
seeded draw of a fixed number of entries from each stratum, in seeded
order, so any seed gets answers that can be checked against committed
digests, and every seed gets the same mix of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"

# Requests per stratum in one pass over a deck.  The mixes are sized so
# that the median and the tail percentile each fall inside a cluster of
# strata of similar work, not on a boundary between clusters, which keeps
# both steady from seed to seed.
DECKS = {
    # Library calls to the oracle, the pigeonhole baseline and compare.
    # Work bands are q-ranges of about 10^2 .. 10^6; close to half the
    # requests are infeasible and scan their whole range.
    "solve-mix": {
        "brute-inf-1e3": 14,
        "brute-inf-1e4": 8,
        "brute-inf-1e5": 10,
        "brute-inf-1e6": 1,
        "brute-feas-1e2": 10,
        "brute-feas-1e3": 10,
        "brute-feas-1e4": 6,
        "brute-feas-1e5": 2,
        "dirichlet-1e3": 5,
        "dirichlet-1e4": 3,
        "dirichlet-1e5": 1,
        "compare-inf-1e3": 3,
        "compare-feas-1e3": 3,
        "compare-inf-1e4": 2,
        "compare-feas-1e4": 2,
    },
    # epsilon_threshold over grids whose points share most of their scan,
    # each grid mixing feasible points and infeasible full scans.
    "sweep": {
        "sweep-n2-geometric": 6,
        "sweep-n2-linear": 6,
        "sweep-n3-geometric": 6,
        "sweep-n3-linear": 6,
        "sweep-n4-geometric": 6,
        "sweep-n4-linear": 6,
    },
    # In-process CLI calls with little oracle work: parsing, Farey and
    # mediant code, argument handling and JSON output.
    "farey-cli": {
        "cli-neighbors": 80,
        "cli-subdivide": 16,
        "cli-subdivide-infeasible": 4,
        "cli-farey": 24,
        "cli-compose": 8,
        "cli-solve": 8,
        "cli-sweep": 4,
    },
}
WORKLOADS = tuple(DECKS)

# The highest tail percentile reported, in tenths of a percent.  Without a
# ceiling a faster program, making more passes in the same time, would
# move the tail to a higher percentile and look slower.  Every deck puts
# p90 inside a cluster of requests of like cost.
TAIL_CEILING = 900


def import_program():
    """Import ``fareyapprox`` from this checkout's ``src`` and return it.

    Refuses to run against any other copy of the package, so a benchmark
    result always describes the code next to it.
    """
    package_dir = ROOT / "src" / "fareyapprox"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {package_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    import fareyapprox
    import fareyapprox.cli  # noqa: F401  (part of the measured set-up)

    if Path(fareyapprox.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"benchmark: imported fareyapprox from {fareyapprox.__file__}")
    return fareyapprox


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def build_deck(reference: dict, workload: str, seed: int) -> list[dict]:
    """The pool entries one pass sends, in order; a function of the seed only."""
    rng = random.Random(f"{workload}:{seed}")
    pool = reference["workloads"][workload]
    deck = []
    for stratum, count in DECKS[workload].items():
        entries = [e for e in pool if e["stratum"] == stratum]
        if len(entries) < count:
            raise SystemExit(f"benchmark: stratum {stratum} has {len(entries)} entries, needs {count}")
        deck.extend(rng.sample(entries, count))
    rng.shuffle(deck)
    return deck


class Request:
    """One deck entry with its inputs turned into program values."""

    __slots__ = ("id", "kind", "digest", "cs", "eps", "T", "grid", "argv")

    def __init__(self, entry: dict):
        self.id = entry["id"]
        self.kind = entry["spec"]["kind"]
        self.digest = entry["digest"]
        self.cs = self.eps = self.T = self.grid = self.argv = None


def materialize(fa, deck: list[dict], workdir: Path) -> list[Request]:
    """Parse every deck entry's inputs; write constraint files for CLI entries.

    Parsing goes through ``fareyapprox.rationals`` at call time, so a
    traced set-up records it.
    """
    requests = []
    for entry in deck:
        spec = entry["spec"]
        req = Request(entry)
        if req.kind == "cli":
            argv = list(spec["argv"])
            if "file" in spec:
                path = workdir / f"{req.id}.txt"
                path.write_text("".join(line + "\n" for line in spec["file"]), encoding="utf-8")
                argv = [str(path) if a == "{input}" else a for a in argv]
            req.argv = argv
        else:
            rationals = fa.rationals
            xs = [rationals.parse_real(x, spec["precision"]) for x in spec["xs"]]
            ts = [rationals.parse_rational(t) for t in spec["ts"]]
            req.cs = fa.simultaneous.ConstraintSet(tuple(zip(xs, ts)))
            if "eps" in spec:
                req.eps = Fraction(spec["eps"])
            req.T = spec.get("T")
            if "grid" in spec:
                req.grid = tuple(Fraction(g) for g in spec["grid"])
        requests.append(req)
    return requests


def execute(fa, req: Request):
    """Send one request; the only code inside a request's timed interval.

    Every program function is looked up on its module at call time, so the
    traced run's wrappers see the call.
    """
    sim = fa.simultaneous
    if req.kind == "brute":
        return sim.brute_force_solve(req.cs, req.eps)
    if req.kind == "dirichlet":
        return sim.dirichlet_solve(req.cs.xs, req.T)
    if req.kind == "compare":
        return sim.compare(req.cs, req.eps, req.T)
    if req.kind == "sweep":
        return sim.epsilon_threshold(req.cs, req.grid)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fa.cli.run(req.argv)
    return code, out.getvalue()


def _solution_record(sim, result):
    if isinstance(result, sim.Solution):
        return {"q": result.q, "ps": list(result.ps)}
    return {"infeasible": True}


def answer_record(fa, kind: str, result) -> dict:
    """The parts of an answer that must never change between commits."""
    sim = fa.simultaneous
    if kind in ("brute", "dirichlet"):
        return _solution_record(sim, result)
    if kind == "compare":
        return {
            "constrained": _solution_record(sim, result.constrained),
            "dirichlet": _solution_record(sim, result.dirichlet),
        }
    if kind == "sweep":
        return {
            "feasible": list(result.feasible),
            "epsilon0": None if result.epsilon0 is None else str(result.epsilon0),
            "witnesses": [None if w is None else _solution_record(sim, w) for w in result.witnesses],
        }
    code, stdout = result
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _solution_problem(sim, cs, eps, result) -> str | None:
    if isinstance(result, sim.Solution) and not sim.check_solution(cs, eps, result.q, result.ps).overall:
        return f"q={result.q} fails check_solution at eps={eps}"
    return None


def _dirichlet_problem(fa, xs, T, sol) -> str | None:
    worst = max(fa.rationals.nearest_int_distance(sol.q * x) for x in xs)
    if not 1 <= sol.q < T ** len(xs) or worst > Fraction(1, T):
        return f"dirichlet q={sol.q} has max ||q x|| = {worst} > 1/{T}"
    return None


def verify(fa, req: Request, result) -> str | None:
    """Independent re-checks of an answer; None when it passes them all."""
    sim = fa.simultaneous
    if req.kind == "brute":
        return _solution_problem(sim, req.cs, req.eps, result)
    if req.kind == "dirichlet":
        return _dirichlet_problem(fa, req.cs.xs, req.T, result)
    if req.kind == "compare":
        return _solution_problem(sim, req.cs, req.eps, result.constrained) or _dirichlet_problem(
            fa, req.cs.xs, req.T, result.dirichlet
        )
    if req.kind == "sweep":
        for eps, ok, wit in zip(result.grid, result.feasible, result.witnesses):
            if ok != (wit is not None):
                return f"grid point {eps}: feasible={ok} but witness={wit}"
            problem = _solution_problem(sim, req.cs, eps, wit)
            if problem:
                return problem
    return None


def check(fa, req: Request, result) -> str | None:
    """None if the answer matches its committed digest and passes verify()."""
    got = digest(answer_record(fa, req.kind, result))
    if got != req.digest:
        return f"{req.id}: digest {got} != reference {req.digest}"
    return verify(fa, req, result)
