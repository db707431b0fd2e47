"""Self-test of the benchmark, in seconds:

    python3 bench/selftest.py

Runs every workload on a tiny corpus, traced and untraced, and checks the
result line against BENCHMARK.json.  Then it corrupts one record of each
workload's report at a time (a count off by one, a duplicated graph, a
flipped verdict, ...) and fails unless the output checks catch every
corruption.  Exits 1 if anything is wrong.
"""
from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7

import checks  # noqa: E402
import corpora  # noqa: E402
import run  # noqa: E402


def _set(rec: dict, key: str, value) -> dict:
    rec = copy.deepcopy(rec)
    rec[key] = value
    return rec


def _set_comparison(rec: dict, key: str, value) -> dict:
    rec = copy.deepcopy(rec)
    rec["comparisons"][0][key] = value
    return rec


def _first(report, kind):
    return next(i for i, r in enumerate(report) if r["type"] == kind)


def _replace(report, kind, make, among=None):
    # the first record of `kind` (with its graph in `among`, if given)
    i = next(i for i, r in enumerate(report) if r["type"] == kind and (among is None or r["graph6"] in among))
    return report[:i] + [make(report[i])] + report[i + 1:]


def _duplicate(report, kind):
    # the second record of `kind` becomes a copy of the first
    i = _first(report, kind)
    j = next(k for k in range(i + 1, len(report)) if report[k]["type"] == kind)
    return report[:j] + [copy.deepcopy(report[i])] + report[j + 1:]


def _plain(report, case):
    # sampled graphs off the equality case, so that only the count is wrong
    return {r["graph6"] for r in report if r["type"] == "verdict" and not r["equality"]} & case.sample


def _count_plus(step):
    return lambda rec: _set_comparison(rec, "lhs_base", str(int(rec["comparisons"][0]["lhs_base"]) + step))


VERDICT_CORRUPTIONS = {
    "count off by one": lambda r, case: _replace(r, "verdict", _count_plus(1), _plain(r, case)),
    "count off by q(q-1)": lambda r, case: _replace(r, "verdict", _count_plus(12), _plain(r, case)),
    "duplicated graph": lambda r, case: _duplicate(r, "verdict"),
    "verdict flipped": lambda r, case: _replace(r, "verdict", lambda rec: _set(rec, "holds", False)),
    "equality flipped": lambda r, case: _replace(r, "verdict", lambda rec: _set(rec, "equality", not rec["equality"])),
    "reference base off": lambda r, case: _replace(r, "verdict", lambda rec: _set_comparison(rec, "rhs_base", str(int(rec["comparisons"][0]["rhs_base"]) + 1))),
    "summary skips one": lambda r, case: _replace(r, "summary", lambda rec: _set(rec, "skipped", 1)),
}

CORRUPTIONS = {
    "verify-colorings": VERDICT_CORRUPTIONS,
    "verify-indsets-bulk": {
        "count off by one": lambda r, case: _replace(r, "verdict", _count_plus(1), _plain(r, case)),
        "duplicated graph": VERDICT_CORRUPTIONS["duplicated graph"],
        "verdict flipped": VERDICT_CORRUPTIONS["verdict flipped"],
        "equality flipped": VERDICT_CORRUPTIONS["equality flipped"],
        "reference base off": VERDICT_CORRUPTIONS["reference base off"],
        "graph dropped": lambda r, case: [rec for k, rec in enumerate(r) if k != _first(r, "verdict")],
        "summary total off": lambda r, case: _replace(r, "summary", lambda rec: _set(rec, "total", rec["total"] + 1)),
    },
    "count-polynomial": {
        "count off by one": lambda r, case: _replace(r, "count", lambda rec: {**rec, "value": str(int(rec["value"]) + 1)}),
        "both counts off by q(q-1)": lambda r, case: _replace(
            r, "count", lambda rec: {**rec, "value": str(int(rec["value"]) + 6), "polynomial_value": str(int(rec["value"]) + 6)}
        ),
        "cross-check mismatch": lambda r, case: _replace(r, "count", lambda rec: _set(rec, "cross_check", "mismatch")),
        "duplicated graph": lambda r, case: _duplicate(r, "count"),
    },
    "scan-quartic": {
        "count off by one": lambda r, case: _replace(r, "scan-row", lambda rec: _set(rec, "value", str(int(rec["value"]) + 1))),
        "alpha off by one": lambda r, case: _replace(r, "scan-row", lambda rec: _set(rec, "alpha", rec["alpha"] + 1)),
        "duplicated graph": lambda r, case: _duplicate(r, "scan-row"),
        "row dropped": lambda r, case: [rec for k, rec in enumerate(r) if k != _first(r, "scan-row")],
        "max off by one": lambda r, case: _replace(r, "scan-max", lambda rec: _set(rec, "max", str(int(rec["max"]) + 1))),
        "argmax wrong": lambda r, case: _replace(r, "scan-max", lambda rec: _set(rec, "argmax", run.K4)),
        "family size off": lambda r, case: _replace(r, "scan-max", lambda rec: _set(rec, "family_size", rec["family_size"] + 1)),
    },
}


def _relabelled_copy(rec: dict) -> dict:
    rows = corpora.from_graph6(rec["graph6"])
    return _set(rec, "graph6", corpora.to_graph6(corpora.shuffled_labels(rows, random.Random(1))))


FAMILY_CORRUPTIONS = {
    "isomorphic duplicate": lambda f: [f[0], _relabelled_copy(f[0])] + f[2:],
    "alpha off by one": lambda f: _replace(f, "scan-row", lambda rec: _set(rec, "alpha", rec["alpha"] - 1)),
    "count off by one": lambda f: _replace(f, "scan-row", lambda rec: _set(rec, "value", str(int(rec["value"]) + 1))),
    "member dropped": lambda f: f[1:],
}


def _write(path: str, report: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in report))


def _run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [] if result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 else [f"result {result}"]
    return problems + ([] if got == want else [f"metrics {sorted(got)} differ from BENCHMARK.json"])


def _scan_extras(scan: list[dict], report) -> None:
    # the family (written by the scan check at eps 0) and the records store
    family = checks.read_report(os.path.join(run.WORK, "family.jsonl"))
    for label, corrupt in FAMILY_CORRUPTIONS.items():
        report(f"scan-quartic family check catches {label}", checks.check_family(corrupt(family), 8, 4, 3), True)
    with open(os.path.join(run.WORK, "records.json"), encoding="utf-8") as fh:
        store = json.load(fh)
    for rec in store.values():
        rec["best"] = str(int(rec["best"]) + 1)
    report("scan-quartic catches a wrong records store", checks.check_scan(scan, family, store, 8, 4, 3, "0.4"), True)


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = 0

    def report(label: str, problems: list[str], expect_problems: bool) -> None:
        nonlocal bad
        ok = bool(problems) == expect_problems
        bad += not ok
        detail = problems[0] if problems else "no problem found"
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            report(f"{workload} --trace {trace} runs clean", _run(workload, trace, spec), False)
        # same seed, same inputs as the run above; its output is still in work/
        case = run.WORKLOADS[workload](random.Random(SEED), True)
        clean = checks.read_report(case.out)
        report(f"{workload} output passes", case.check(case.out), False)
        corrupt_path = os.path.join(run.WORK, "corrupt.jsonl")
        for label, corrupt in CORRUPTIONS[workload].items():
            _write(corrupt_path, corrupt(clean, case))
            report(f"{workload} catches {label}", case.check(corrupt_path), True)
        if workload == "scan-quartic":
            _scan_extras(clean, report)
    print("selftest:", "ok" if not bad else f"{bad} failure(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
