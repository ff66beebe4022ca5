"""The benchmark's committed pools, replayed through the program.

Every entry of ``perfbench/reference.json`` carries the digest of its
answer, so a changed output byte fails here and not only in a benchmark
run.  The pool and the digest rule are read from ``perfbench/`` and never
written.
"""

import importlib.util
from pathlib import Path

import pytest

import fareyapprox
import fareyapprox.cli  # noqa: F401  (workloads.execute calls fareyapprox.cli.run)

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


POOL_SIZES = {"solve-mix": 256, "sweep": 108, "farey-cli": 324}


@pytest.mark.parametrize("workload", POOL_SIZES)
def test_pool_replays_to_its_digests(workload, tmp_path):
    # materialize parses each entry's inputs and writes constraint files to
    # tmp_path; execute makes the call (cli.run with stdout captured for
    # farey-cli); check compares the answer with the entry's digest
    # (answer_record, digest).
    workloads = load_workloads()
    pool = workloads.load_reference()["workloads"][workload]
    assert len(pool) == POOL_SIZES[workload]
    requests = workloads.materialize(fareyapprox, pool, tmp_path)
    problems = [workloads.check(fareyapprox, req, workloads.execute(fareyapprox, req))
                for req in requests]
    assert [p for p in problems if p is not None] == []
