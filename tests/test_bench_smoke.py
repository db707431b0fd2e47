"""Smoke run of the benchmark on tiny corpora: the workloads run the real CLI
and the benchmark checks their reports against its own independent counters
(a frontier coloring counter of its own, and networkx)."""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


WORKLOADS = ["verify-colorings", "count-polynomial", "scan-quartic", "verify-indsets-bulk"]


# --trace 1 wraps names of the chromacount modules in place, so a traced run
# fails when a module stops importing a name the tracer wraps
@pytest.mark.parametrize(
    "workload,trace",
    [pytest.param(w, "0", id=w) for w in WORKLOADS] + [pytest.param(w, "1", id=f"{w}-traced") for w in WORKLOADS],
)
def test_bench_tiny_run_is_correct(workload, trace):
    pytest.importorskip("networkx")
    argv = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload, "--trace", trace]
    proc = subprocess.run(
        argv + ["--size", "tiny", "--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0


def test_traced_names_resolve(monkeypatch):
    # a module that stops importing a wrapped name breaks --trace 1 with an
    # AttributeError; this finds it without running a workload
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import tracing

    for owner, attr, _ in tracing.WRAPPED + tracing.GENERATORS:
        assert callable(getattr(owner, attr, None)), (owner, attr)
