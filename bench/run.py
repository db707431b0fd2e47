"""Benchmark of chromacount's batch runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 each round starts three processes, one at a time:
calibrate.py (fixed reference work), a set-up probe (the workload's
subcommand on a one-graph input) and the workload's CLI command.  Rounds
repeat for S seconds.  wall_s and setup_s are the medians over the rounds
of the probe's and the workload's times, each scaled by CALIBRATION_S over
the round's calibration time; peak_rss_mb is the median peak RSS.  With
--trace 1 each round calls chromacount.cli.main in this process twice, once
plain and once with every layer wrapped (see tracing.py), and the per-layer
metrics are medians over the traced calls.  Either way the outputs are then
checked (see checks.py) and the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.

Inputs are made in bench/work/ from the seed; --size tiny shrinks every
corpus so that selftest.py runs in seconds.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "work")
CLI_ENV = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
# a run starts another round only while it should end within --seconds,
# once it has these many
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2

import checks  # noqa: E402  (HERE is on sys.path when run as a script)
import corpora  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Times are reported in seconds of a host on which calibrate.py takes
# CALIBRATION_S, about its median on the 2-vCPU machine the bounds were set on.
CALIBRATION = [sys.executable, os.path.join(HERE, "calibrate.py")]
CALIBRATION_S = 0.2


@dataclass
class Case:
    """One workload instance: the CLI arguments of the workload and of its
    set-up probe, and the check of a finished run's output.  `sample` holds
    the graphs whose counts the check recomputes independently."""

    argv: list[str]
    probe: list[str]
    out: str
    check: Callable[[str], list[str]]
    reset: Callable[[], None] = lambda: None
    sample: frozenset[str] = frozenset()


def _path(name: str) -> str:
    return os.path.join(WORK, name)


def _write_lines(name: str, lines: list[str]) -> str:
    with open(_path(name), "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return _path(name)


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


K4 = corpora.to_graph6([0b1110, 0b1101, 0b1011, 0b0111])
# fixed seed of the graphs that verify-colorings and count-polynomial
# relabel with the run's seed
CORPUS_SEED = 1


def verify_colorings(rng: random.Random, tiny: bool) -> Case:
    # the graphs are drawn once, so that every run makes the same number of
    # backtracking leaves (one per coloring); the seed relabels and reorders
    q = 4
    fixed = random.Random(CORPUS_SEED)
    sizes = [8, 8, 8] if tiny else [12] * 12 + [14] * 2
    graphs = [corpora.random_regular(n, 3, fixed) for n in sizes]
    graphs.append(corpora.disjoint_kdd(3, 1 if tiny else 2))
    graphs = [corpora.shuffled_labels(g, rng) for g in graphs]
    rng.shuffle(graphs)
    corpus = [corpora.to_graph6(g) for g in graphs]
    sample = frozenset(corpus)
    src, one, out = _write_lines("colorings.g6", corpus), _write_lines("one.g6", [K4]), _path("colorings.jsonl")
    common = ["verify", "--q", str(q), "--target", "colorings", "--jobs", "1", "--out"]
    return Case(
        [*common, out, "--graphs", src],
        [*common, _path("probe.jsonl"), "--graphs", one],
        out,
        lambda path: checks.check_verify_colorings(checks.read_report(path), corpus, q, sample),
        sample=sample,
    )


def count_polynomial(rng: random.Random, tiny: bool) -> Case:
    q = 3
    family = corpora.connected_regular_family(8 if tiny else 10, 3, random.Random(CORPUS_SEED))
    graphs = [corpora.shuffled_labels(g, rng) for g in family]
    rng.shuffle(graphs)
    corpus = [corpora.to_graph6(g) for g in graphs]
    sample = frozenset(corpus)
    src, one, out = _write_lines("cubic.g6", corpus), _write_lines("one.g6", [K4]), _path("count.jsonl")
    common = ["count", "--q", str(q), "--method", "both", "--out"]
    return Case(
        [*common, out, "--graph", src],
        [*common, _path("probe.jsonl"), "--graph", one],
        out,
        lambda path: checks.check_count(checks.read_report(path), corpus, q, sample),
        sample=sample,
    )


def scan_quartic(rng: random.Random, tiny: bool) -> Case:
    # the family is generated by the program; the seed has nothing to vary
    n, d, q, eps = (8 if tiny else 10), 4, 3, "0.4"
    out, store, probe_store = _path("scan.jsonl"), _path("records.json"), _path("probe-records.json")
    scan = ["scan", "--d", str(d), "--q", str(q)]

    def check(path: str) -> list[str]:
        family_out = _path("family.jsonl")
        rc = run_cli([*scan, "--n", str(n), "--eps", "0", "--out", family_out])
        if rc != 0:
            return [f"scan --eps 0 exited {rc}"]
        family = checks.read_report(family_out)
        with open(store, encoding="utf-8") as fh:
            stored = json.load(fh)
        return checks.check_family(family, n, d, q) + checks.check_scan(checks.read_report(path), family, stored, n, d, q, eps)

    def reset() -> None:
        _remove(store)
        _remove(probe_store)

    return Case(
        [*scan, "--n", str(n), "--eps", eps, "--records", store, "--out", out],
        [*scan, "--n", str(d + 1), "--eps", eps, "--records", probe_store, "--out", _path("probe.jsonl")],
        out,
        check,
        reset,
    )


def verify_indsets_bulk(rng: random.Random, tiny: bool) -> Case:
    corpus = []
    for k in range(200 if tiny else 10_000):
        d = 3 + k % 2
        n = rng.randrange(8, 17, 2) if d == 3 else rng.randrange(8, 17)
        corpus.append(corpora.to_graph6(corpora.random_regular(n, d, rng)))
    sample = frozenset(rng.sample(corpus, 12))
    src, one, out = _write_lines("bulk.g6", corpus), _write_lines("one.g6", [K4]), _path("bulk.jsonl")
    common = ["verify", "--target", "indsets", "--jobs", "1", "--out"]
    return Case(
        [*common, out, "--graphs", src],
        [*common, _path("probe.jsonl"), "--graphs", one],
        out,
        lambda path: checks.check_verify_indsets(checks.read_report(path), corpus, sample),
        sample=sample,
    )


WORKLOADS = {
    "verify-colorings": verify_colorings,
    "count-polynomial": count_polynomial,
    "scan-quartic": scan_quartic,
    "verify-indsets-bulk": verify_indsets_bulk,
}


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "chromacount.cli", *argv]


def run_cli(argv: list[str]) -> int:
    """Run the CLI once, untimed; its exit code."""
    return subprocess.run(cli_command(argv), env=CLI_ENV, stdout=subprocess.DEVNULL).returncode


class Spawner:
    """spawn.py in a child process: times processes from spawn to exit and
    reads their peak RSS."""

    def __enter__(self) -> Spawner:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawn.py")],
            env=CLI_ENV,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def run(self, command: list[str]) -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB and exit code of one process."""
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        wall, rss, rc = json.loads(self.proc.stdout.readline())
        return wall, rss, rc

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def measure(case: Case, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Rounds of (calibration, probe, workload, calibration) processes for
    `seconds`.  The times are scaled by CALIBRATION_S over the median
    calibration time of the run, which takes out the host's changes of speed
    between runs; the unscaled rounds go to stderr."""
    case.reset()
    run_cli(case.probe)  # byte-compiles the package and warms the file cache
    cals, setups, walls, rss = [], [], [], []
    attempted = failed = 0
    first = None
    with Spawner() as spawner:

        def calibrate() -> None:
            cal, _, cal_rc = spawner.run(CALIBRATION)
            if cal_rc != 0:
                raise RuntimeError("calibrate.py computed a wrong count")
            cals.append(cal)

        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_ROUNDS or time.perf_counter() + 2 * statistics.median(cals) + statistics.median(setups) + statistics.median(walls) < deadline:
            case.reset()
            calibrate()
            setup, _, probe_rc = spawner.run(cli_command(case.probe))
            wall, peak, rc = spawner.run(cli_command(case.argv))
            calibrate()
            digest = _digest(case.out) if rc == 0 else None
            first = first or digest
            attempted += 2
            failed += (probe_rc != 0) + (rc != 0 or digest != first)
            setups.append(setup)
            walls.append(wall)
            rss.append(peak)
    print("rounds " + json.dumps({"calibration": cals, "setup": setups, "wall": walls}), file=sys.stderr)
    scale = CALIBRATION_S / statistics.median(cals)
    metrics = {
        "wall_s": statistics.median(walls) * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": statistics.median(rss),
    }
    problems = case.check(case.out) if first else ["no run succeeded"]
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, attempted, failed, problems


def measure_traced(case: Case, seconds: float, workload: str) -> tuple[dict, int, int, list[str]]:
    """Rounds of (plain, traced) in-process calls of cli.main for `seconds`."""
    import tracing

    argv = case.argv
    rounds: list[dict] = []
    attempted = failed = 0
    first = None
    deadline = time.perf_counter() + seconds
    lengths = []
    while len(rounds) < MIN_TRACED_ROUNDS or time.perf_counter() + statistics.median(lengths) < deadline:
        case.reset()
        start = time.perf_counter()
        plain_rc = tracing.cli.main(argv)
        plain = time.perf_counter() - start
        plain_digest = _digest(case.out)
        case.reset()
        with tracing.Tracer() as tracer:
            rc = tracer.run_main(argv)
        digest = _digest(case.out)
        first = first or digest
        attempted += 2
        failed += (plain_rc != 0 or plain_digest != first) + (rc != 0 or digest != first)
        m = tracer.metrics()
        m["cli.report_bytes"] = os.path.getsize(case.out)
        m["trace.overhead_s"] = tracer.spans[0][2] - tracer.spans[0][1] - plain
        rounds.append(m)
        lengths.append(time.perf_counter() - start)
    tracer.dump(_path(f"trace-{workload}.json"))
    problems = case.check(case.out)
    metrics = {}
    for key, unit in tracing.PER_LAYER.items():
        values = [r[key] for r in rounds]
        if unit != "s" and len(set(values)) != 1:
            problems.append(f"{key} differs between traced rounds: {sorted(set(values))}")
        metrics[key] = {"value": statistics.median(values) if unit == "s" else values[0], "unit": unit}
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chromacount", "cli.py")):
        print(f"error: no chromacount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    case = WORKLOADS[args.workload](random.Random(args.seed), args.size == "tiny")
    if args.trace:
        metrics, attempted, failed, problems = measure_traced(case, args.seconds, args.workload)
    else:
        metrics, attempted, failed, problems = measure(case, args.seconds)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
