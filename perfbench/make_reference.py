"""Build ``reference.json``: the request pools and their answer digests.

Usage: python3 perfbench/make_reference.py

The pools are drawn from a fixed generator seed, run once through the
program, sorted into strata by verdict and work, and stored with the
digest of each answer.  Runs of the benchmark compare against these
digests, so the file pins the answers of the commit that generated it.
Within a stratum, the entries kept are those whose time on the
generating machine was closest to the stratum's median, so the file is
not reproducible bit for bit.  Regenerate it only to redefine the
benchmark, never to make a changed answer pass.
"""

from __future__ import annotations

import json
import math
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import workloads

GENERATOR_SEED = "fareyapprox-perfbench-pools-v1"
NAMES = ("sqrt2", "sqrt3", "sqrt5", "phi", "e", "pi")
CLI_NAMES = ("pi", "e", "sqrt2", "phi")
WEIGHTS = ("1", "1/2", "1/10")
CLI_PRECISIONS = (64, 1000, 2000)
SWEEP_WORK = (34_000, 46_000)
FAREY_TERMS = (4_800, 5_200)


def pool_size(count: int) -> int:
    return max(8, 3 * count)


def band(work: int) -> int | None:
    """k when work is within a factor 10**0.15 of 10**k."""
    if work < 1:
        return None
    k = round(math.log10(work))
    return k if abs(math.log10(work) - k) <= 0.15 else None


def random_rational(rng: random.Random) -> str:
    den = rng.randrange(10**11, 10**19)
    return f"{rng.randrange(1, 4 * den)}/{den}"


def random_targets(rng: random.Random, n: int) -> list[str]:
    xs = rng.sample(NAMES, rng.randint(0, n))
    xs += [random_rational(rng) for _ in range(n - len(xs))]
    rng.shuffle(xs)
    return xs


def brute_spec(rng, stratum):
    _, verdict, size = stratum.split("-")
    k = int(size[2:])
    if verdict == "inf":
        n = rng.choice((3, 4, 6) if k >= 5 else (2, 3, 4, 6))
        ts = [rng.choice(WEIGHTS) for _ in range(n)]
        ts[rng.randrange(n)] = "1/10"
        q = round(10**k * rng.uniform(0.97, 1.03))
    else:
        n = rng.choice((1, 2, 3, 4, 6))
        ts = [rng.choice(WEIGHTS if k < 4 else WEIGHTS[:2]) for _ in range(n)]
        q = round(10 ** (k + rng.uniform(0.2, 1.0)))
    t_min = min(Fraction(t) for t in ts)
    return {"kind": "brute", "xs": random_targets(rng, n), "ts": ts, "precision": 64,
            "eps": str(t_min / q)}


def dirichlet_spec(rng, stratum):
    k = int(stratum.split("-")[1][2:])
    n = rng.choice((1, 2, 3, 4, 6))
    T = max(2, round(2 * 10 ** (k / n) * rng.uniform(0.8, 1.25)))
    if T**n > 3 * 10**6:
        return None
    return {"kind": "dirichlet", "xs": random_targets(rng, n), "ts": ["1"] * n,
            "precision": 64, "T": T}


def compare_spec(rng, stratum):
    _, verdict, size = stratum.split("-")
    k = int(size[2:])
    n = rng.choice((2, 3, 4))
    t = "1/10" if verdict == "inf" else rng.choice(WEIGHTS[:2])
    q = round(10**k * rng.uniform(0.6, 0.9))
    T = max(2, round(2 * 10 ** ((k - (1 if verdict == "inf" else 0.2)) / n) * rng.uniform(0.9, 1.1)))
    return {"kind": "compare", "xs": random_targets(rng, n), "ts": [t] * n, "precision": 64,
            "eps": str(Fraction(t) / q), "T": T}


def sweep_spec(rng, stratum):
    _, n_text, grid_kind = stratum.split("-")
    n = int(n_text[1:])
    ts = [rng.choice(WEIGHTS) for _ in range(n)]
    t_min = min(Fraction(t) for t in ts)
    m = rng.randint(5, 9)
    q_hi = rng.randint(6_000, 20_000)
    q_lo = max(50, round(q_hi / rng.uniform(4, 20)))
    if grid_kind == "geometric":
        qs = sorted({round(q_lo * (q_hi / q_lo) ** (i / (m - 1))) for i in range(m)})
        grid = [t_min / q for q in qs]
    else:
        top, bottom = t_min / q_lo, t_min / q_hi
        grid = [top - (top - bottom) * Fraction(i, m - 1) for i in range(m)]
    if not SWEEP_WORK[0] <= sum(math.floor(t_min / g) for g in grid) <= 2 * SWEEP_WORK[1]:
        return None
    return {"kind": "sweep", "xs": random_targets(rng, n), "ts": ts, "precision": 64,
            "grid": [str(g) for g in grid]}


def constraint_file(rng, count):
    names = rng.sample(CLI_NAMES, count)
    return [f"{name} {rng.choice(WEIGHTS)}" for name in names]


def cli_spec(rng, stratum, fa):
    kind = stratum[4:]
    if kind == "neighbors":
        if rng.random() < 0.5:
            x = "0." + "".join(rng.choice("0123456789") for _ in range(rng.randint(20, 60)))
        else:
            den = rng.randrange(10**6, 10**15)
            x = f"{rng.randrange(1, den)}/{den}"
        order = round(10 ** rng.uniform(3, 12))
        return {"kind": "cli", "argv": ["neighbors", "--x", x, "--order", str(order)]}
    if kind.startswith("subdivide"):
        # Just above a/b with small b, the bracketing pair at a large order
        # is a/b and a neighbour of denominator near the order, so a long
        # ascending chain fits under the gap bound.
        order = rng.randint(1000, 2000)
        b = rng.randint(2, 20)
        a = rng.randrange(1, b)
        x = Fraction(a, b) + Fraction(1, b * order * rng.randint(2, 50))
        pair = fa.farey.farey_neighbors(x, order)
        if not isinstance(pair, fa.farey.FareyPair):
            return None
        k1, k2 = pair.left.denominator, pair.right.denominator
        anchor, step = max(k1, k2), min(k1, k2)
        points = rng.randint(1000, 3000)
        if points * step * step > anchor * anchor:
            return None
        gap = Fraction(1, step * (anchor + points * step))
        argv = ["subdivide", "--lo", str(pair.left), "--hi", str(pair.right),
                "--order", str(order), "--gap", str(gap)]
        if kind == "subdivide-infeasible":
            argv += ["--max-denom", str(anchor + points * step - 1)]
        return {"kind": "cli", "argv": argv}
    if kind == "farey":
        order = rng.randint(140, 300)
        hi = Fraction(rng.randint(*FAREY_TERMS), round(0.304 * order * order))
        if hi >= 1:
            return None
        lo = hi - Fraction(rng.randint(400, 500), round(0.304 * order * order))
        lo = Fraction(math.floor(lo * 997), 997)
        hi = Fraction(math.ceil(hi * 991), 991)
        return {"kind": "cli", "argv": ["farey", "--order", str(order), "--from", str(lo),
                                        "--to", str(hi)]}
    precision = str(rng.choice(CLI_PRECISIONS))
    if kind == "compose":
        eps = f"1/{rng.randint(100, 100_000)}"
        return {"kind": "cli", "file": constraint_file(rng, rng.randint(2, 4)),
                "argv": ["solve", "--input", "{input}", "--epsilon", eps, "--method",
                         "compose", "--precision", precision]}
    lines = constraint_file(rng, rng.randint(1, 3) if kind == "solve" else rng.randint(2, 3))
    t_min = min(Fraction(line.split()[1]) for line in lines)
    if kind == "solve":
        eps = str(t_min / rng.randint(200, 3000))
        return {"kind": "cli", "file": lines,
                "argv": ["solve", "--input", "{input}", "--epsilon", eps, "--precision", precision]}
    qs = sorted(rng.sample(range(100, 1500), rng.randint(3, 4)))
    grid = ",".join(str(t_min / q) for q in qs)
    return {"kind": "cli", "file": lines,
            "argv": ["sweep", "--input", "{input}", "--grid", grid, "--precision", precision]}


def classify(fa, stratum, spec, result) -> tuple[bool, int]:
    """Whether a finished request belongs to ``stratum``, and its work (q-range)."""
    sim = fa.simultaneous
    kind = spec["kind"]
    if kind in ("brute", "compare"):
        constrained = result if kind == "brute" else result.constrained
        feasible = isinstance(constrained, sim.Solution)
        t_min = min(Fraction(t) for t in spec["ts"])
        work = constrained.q if feasible else math.floor(t_min / Fraction(spec["eps"]))
        if kind == "compare":
            work += result.dirichlet.q
        got = f"{kind}-{'feas' if feasible else 'inf'}-1e{band(work)}"
        return got == stratum, work
    if kind == "dirichlet":
        return stratum == f"dirichlet-1e{band(result.q)}", result.q
    if kind == "sweep":
        t_min = min(Fraction(t) for t in spec["ts"])
        work = sum(w.q if w else math.floor(t_min / g) for g, w in zip(result.grid, result.witnesses))
        mixed = any(result.feasible) and not all(result.feasible)
        return mixed and SWEEP_WORK[0] <= work <= SWEEP_WORK[1], work
    code, _ = result
    if stratum == "cli-subdivide-infeasible":
        return code == 2, 0
    if stratum == "cli-farey":
        order, hi = int(spec["argv"][2]), Fraction(spec["argv"][6])
        terms = sum(1 for _ in _terms_until(fa, order, hi))
        return code == 0 and FAREY_TERMS[0] <= terms <= FAREY_TERMS[1], terms
    if stratum in ("cli-solve", "cli-sweep"):
        return code in (0, 2), 0
    return code == 0, 0


def _terms_until(fa, order, hi):
    for term in fa.farey.farey_sequence(order):
        yield term
        if term > hi:
            return


SPEC_MAKERS = {"brute": brute_spec, "dirichlet": dirichlet_spec, "compare": compare_spec,
               "sweep": sweep_spec}


def build_pools(fa, workdir: Path, log) -> dict:
    rng = random.Random(GENERATOR_SEED)
    pools = {}
    for workload, deck in workloads.DECKS.items():
        prefix = "".join(word[0] for word in workload.split("-"))
        pool: list[dict] = []
        for stratum, count in deck.items():
            fitting, tried, started = [], 0, time.perf_counter()
            while len(fitting) < 2 * pool_size(count):
                tried += 1
                if tried > 5000:
                    raise SystemExit(f"could not fill stratum {stratum}")
                maker = stratum.split("-")[0]
                spec = (cli_spec(rng, stratum, fa) if maker == "cli"
                        else SPEC_MAKERS[maker](rng, stratum))
                if spec is None:
                    continue
                entry = {"id": "candidate", "spec": spec, "digest": None}
                [req] = workloads.materialize(fa, [entry], workdir)
                call_start = time.perf_counter()
                result = workloads.execute(fa, req)
                call_s = time.perf_counter() - call_start
                fits, work = classify(fa, stratum, spec, result)
                if not fits:
                    continue
                problem = workloads.verify(fa, req, result)
                if problem:
                    raise SystemExit(f"pool entry fails its own check: {problem}")
                answer = workloads.digest(workloads.answer_record(fa, req.kind, result))
                fitting.append((call_s, work, spec, answer))
            # Keep the half whose time is closest to the stratum's median, so
            # the seeded draw changes the inputs but hardly the cost of a deck.
            median_s = sorted(f[0] for f in fitting)[len(fitting) // 2]
            kept = sorted(fitting, key=lambda f: abs(f[0] - median_s))[: pool_size(count)]
            for call_s, work, spec, answer in sorted(kept, key=lambda f: f[0]):
                pool.append({"id": f"{prefix}-{len(pool):04d}", "stratum": stratum,
                             "work": work, "spec": spec, "digest": answer})
            times = sorted(f[0] for f in kept)
            log(f"{workload:10s} {stratum:26s} kept {len(kept):3d} of {tried:4d} "
                f"in {time.perf_counter() - started:6.1f} s; call ms min/median/max "
                f"{1e3 * times[0]:.2f}/{1e3 * times[len(times) // 2]:.2f}/{1e3 * times[-1]:.2f}")
        pools[workload] = pool
    return pools


def main() -> int:
    fa = workloads.import_program()
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        pools = build_pools(fa, Path(tmp), lambda line: print(line, file=sys.stderr))
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"generator_seed": GENERATOR_SEED, "workloads": pools}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
