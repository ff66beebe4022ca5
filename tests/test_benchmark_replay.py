"""The benchmark's committed farey-cli pool, replayed through ``cli.run``.

Every entry of ``perfbench/reference.json`` carries the digest of its
answer, so a changed output byte fails here and not only in a benchmark
run.  The pool and the digest rule are read from ``perfbench/`` and never
written.
"""

import importlib.util
from pathlib import Path

import fareyapprox
import fareyapprox.cli  # noqa: F401  (workloads.execute calls fareyapprox.cli.run)

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_farey_cli_pool_replays_to_its_digests(tmp_path):
    # materialize writes each constraint file to tmp_path; execute captures
    # stdout around cli.run; check compares the exit code and the stdout
    # SHA-256 with the entry's digest (answer_record, digest).
    workloads = load_workloads()
    pool = workloads.load_reference()["workloads"]["farey-cli"]
    assert len(pool) == 324
    requests = workloads.materialize(fareyapprox, pool, tmp_path)
    problems = [workloads.check(fareyapprox, req, workloads.execute(fareyapprox, req))
                for req in requests]
    assert [p for p in problems if p is not None] == []
