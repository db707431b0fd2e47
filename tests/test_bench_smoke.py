"""Smoke run of the benchmark on tiny corpora: the workloads run the real CLI
and the benchmark checks their reports against its own independent counters
(a frontier coloring counter of its own, and networkx)."""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["verify-colorings", "count-polynomial", "scan-quartic", "verify-indsets-bulk"])
def test_bench_tiny_run_is_correct(workload):
    pytest.importorskip("networkx")
    argv = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload]
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
