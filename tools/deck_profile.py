"""Time one benchmark workload's deck request by request, in-process.

    python tools/deck_profile.py --workload solve-mix --seed 7 --passes 5

Builds the deck that ``perfbench/run.py`` sends for the workload and
seed, with ``perfbench/workloads.py`` imported read-only, and sends it
``--passes`` times through ``workloads.execute`` in this process.  Every
answer of every pass is checked with ``workloads.check`` (its committed
digest and the independent re-checks); any problem is printed and the
exit code is 1.  Otherwise it prints, for each stratum of the deck, its
request count, the median time of its requests (each request's time is
its median over the passes), the stratum's share of a pass and its
requests' witness builds (calls of ``simultaneous._solution``, the one
builder of a scan's answer), their calls of the scans' exact test
``simultaneous._fits`` and the item remainders those calls compute (one
per item tested, up to the first item that rejects the q), then the ten
slowest requests with their own share.  The three are counted in one
more pass, untimed, so a change of time reads as less work (fewer builds
or calls) or as cheaper work (fewer remainders per call); they repeat
exactly from run to run.  Times are wall-clock seconds of this machine,
with no calibration, so they compare runs made one after the other on
one machine, not across machines.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SLOWEST = 10


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_work(workloads, fa, requests) -> list[tuple[int, int, int]]:
    # The witness builds, _fits calls and item remainders of each request
    # in one pass, with the module's _solution and _fits wrapped by
    # counters for the pass only.  The _fits wrapper puts the items through
    # the real _fits one at a time, in the order given, and stops at the
    # first that rejects q, as _fits does, so it counts one remainder per
    # item tested.
    sim = fa.simultaneous
    solution, fits = sim._solution, sim._fits
    builds = calls = remainders = 0

    def counting_solution(*args):
        nonlocal builds
        builds += 1
        return solution(*args)

    def counting_fits(items, q):
        nonlocal calls, remainders
        calls += 1
        for item in items:
            remainders += 1
            if not fits([item], q):
                return False
        return True

    counts = []
    sim._solution, sim._fits = counting_solution, counting_fits
    try:
        for req in requests:
            before = builds, calls, remainders
            workloads.execute(fa, req)
            counts.append((builds - before[0], calls - before[1], remainders - before[2]))
    finally:
        sim._solution, sim._fits = solution, fits
    return counts


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(prog="deck_profile", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    fa = workloads.import_program()
    deck = workloads.build_deck(workloads.load_reference(), args.workload, args.seed)
    times: list[list[float]] = [[] for _ in deck]
    problems = []
    with tempfile.TemporaryDirectory() as workdir:
        requests = workloads.materialize(fa, deck, Path(workdir))
        for _ in range(args.passes):
            for k, req in enumerate(requests):
                start = time.perf_counter()
                result = workloads.execute(fa, req)
                times[k].append(time.perf_counter() - start)
                problem = workloads.check(fa, req, result)
                if problem is not None:
                    problems.append(problem)
        builds, fits, remainders = zip(*count_work(workloads, fa, requests))
    if problems:
        for problem in problems:
            print(f"problem: {problem}")
        return 1

    medians = [statistics.median(ts) for ts in times]
    total = sum(medians)
    print(f"{args.workload} seed {args.seed}: {len(deck)} requests, {args.passes} passes, "
          f"{total * 1e3:.2f} ms per pass (sum of per-request medians), "
          f"{sum(builds)} witness builds, {sum(fits)} _fits calls and "
          f"{sum(remainders)} item remainders per pass")
    print(f"{'stratum':<28}{'requests':>9}{'median ms':>11}{'share':>8}{'builds':>8}{'fits':>9}"
          f"{'remainders':>12}")
    for stratum in workloads.DECKS[args.workload]:
        own = [k for k, entry in enumerate(deck) if entry["stratum"] == stratum]
        spent = [medians[k] for k in own]
        print(f"{stratum:<28}{len(own):>9}{statistics.median(spent) * 1e3:>11.3f}"
              f"{sum(spent) / total:>8.1%}{sum(builds[k] for k in own):>8}{sum(fits[k] for k in own):>9}"
              f"{sum(remainders[k] for k in own):>12}")
    print(f"\nslowest {min(SLOWEST, len(deck))} requests")
    print(f"{'id':<10}{'stratum':<28}{'ms':>9}{'share':>8}")
    slowest = sorted(zip(medians, deck), key=lambda pair: -pair[0])[:SLOWEST]
    for m, entry in slowest:
        print(f"{entry['id']:<10}{entry['stratum']:<28}{m * 1e3:>9.3f}{m / total:>8.1%}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone (as in `| head`): a quiet end, with
        # stdout pointed at devnull so that the flush at exit does not fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
