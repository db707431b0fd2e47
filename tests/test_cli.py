import argparse
import gc
import json
import math
import multiprocessing
import os
import random
import re
import resource
import stat
import subprocess
import sys
import time
import tracemalloc
import warnings
from functools import partial

import pytest

from chromacount import Graph, complete, complete_bipartite, cycle, disjoint_copies, write_graph6
from chromacount.cli import EXIT_CAP, EXIT_CROSSCHECK, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main

from helpers import k4_minus_edge, petersen, random_regular, reference_verify_report, regular_family

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_g6(tmp_path, name, graphs):
    path = tmp_path / name
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_count_k33(tmp_path, capsys):
    path = write_g6(tmp_path, "k33.g6", [complete_bipartite(3, 3)])
    code, out = run(capsys, ["count", "--graph", path, "--q", "3"])
    assert code == EXIT_OK
    (rec,) = json_lines(out)
    assert rec["value"] == "42"
    assert rec["graph6"] == write_graph6(complete_bipartite(3, 3))


def test_count_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out = run(capsys, ["count", "--graph", str(path), "--q", "3"])
    assert code == EXIT_OK
    assert out == ""


def test_count_formats(tmp_path, capsys):
    path = write_g6(tmp_path, "g.g6", [complete(3), cycle(5)])
    code, out = run(capsys, ["count", "--graph", path, "--q", "3", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,n,q,method,value"
    assert lines[1].endswith(",6") and lines[2].endswith(",30")
    code, out = run(capsys, ["count", "--graph", path, "--q", "3", "--format", "text"])
    assert code == EXIT_OK
    assert out.splitlines()[0].endswith(" q=3 6")


def test_count_parse_failure(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("I~~\n")
    code, _ = run(capsys, ["count", "--graph", str(path), "--q", "3"])
    assert code == EXIT_USAGE


def test_count_method_both_cross_checks(tmp_path, capsys, monkeypatch):
    path = write_g6(tmp_path, "g.g6", [cycle(5)])
    code, out = run(capsys, ["count", "--graph", path, "--q", "3", "--method", "both"])
    assert code == EXIT_OK
    assert json_lines(out)[0]["cross_check"] == "ok"

    import chromacount.counting as counting

    real = counting.count_colorings

    def faulty(g, q, method="backtrack"):
        value = real(g, q, method)
        return value + 1 if method == "polynomial" else value

    monkeypatch.setattr(counting, "count_colorings", faulty)
    code, out = run(capsys, ["count", "--graph", path, "--q", "3", "--method", "both"])
    assert code == EXIT_CROSSCHECK
    assert json_lines(out)[0]["cross_check"] == "mismatch"


def test_count_cap(tmp_path, capsys, monkeypatch):
    import chromacount.counting as counting
    from chromacount.graphs import Graph

    # no cap on n: an edgeless graph has q^n colourings
    path = write_g6(tmp_path, "big.g6", [Graph(16, (0,) * 16)])
    code, out = run(capsys, ["count", "--graph", path, "--q", "3", "--method", "polynomial"])
    assert code == EXIT_OK and json_lines(out)[0]["value"] == str(3**16)
    # the frontier state cap guards the polynomial
    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 3)
    path = write_g6(tmp_path, "k33.g6", [complete_bipartite(3, 3)])
    code = main(["count", "--graph", path, "--q", "3", "--method", "polynomial"])
    captured = capsys.readouterr()
    assert code == EXIT_CAP and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "state cap 3 " in captured.err


def test_backtracking_over_node_cap_exits_cap(tmp_path, capsys, monkeypatch):
    import chromacount.counting as counting

    monkeypatch.setattr(counting, "BACKTRACK_NODE_CAP", 100)
    path = write_g6(tmp_path, "k33.g6", [complete_bipartite(3, 3)])
    hfile = tmp_path / "h.json"
    hfile.write_text(json.dumps({"k": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    for argv in (["count", "--graph", path, "--q", "3", "--method", "backtrack"], ["verify", "--graphs", path, "--target", f"hom:{hfile}"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CAP and captured.out == "", argv
        assert captured.err == "error: homomorphism backtracking exceeds search-node cap 100\n", argv


def test_count_both_beyond_former_n_cap(tmp_path, capsys):
    graphs = [random_regular(n, 3, random.Random(seed)) for n in (20, 24) for seed in (1, 2)]
    graphs += [complete_bipartite(8, 8), disjoint_copies(petersen(), 2)]
    path = write_g6(tmp_path, "g.g6", graphs)
    code, out = run(capsys, ["count", "--graph", path, "--q", "3", "--method", "both"])
    assert code == EXIT_OK
    recs = json_lines(out)
    assert [r["n"] for r in recs] == [g.n for g in graphs]
    assert all(r["cross_check"] == "ok" and r["value"] == r["polynomial_value"] for r in recs)


def test_count_default_is_the_frontier_pass_with_the_backtracking_values(tmp_path, capsys):
    # the default report is the backtracking report with method "frontier"
    graphs = [g for n in (4, 6, 8) for g in regular_family(n, 3)]
    graphs += [petersen(), k4_minus_edge(), cycle(5), complete(1), complete(2)]
    path = write_g6(tmp_path, "g.g6", graphs)
    for q in range(6):
        for fmt in ("json", "csv", "text"):
            argv = ["count", "--graph", path, "--q", str(q), "--format", fmt]
            outs = [run(capsys, argv + method) for method in ([], ["--method", "frontier"], ["--method", "backtrack"])]
            assert [code for code, _ in outs] == [EXIT_OK] * 3, argv
            default, frontier, back = (out for _, out in outs)
            if fmt == "json":
                back = back.replace('"method": "backtrack"', '"method": "frontier"')
            elif fmt == "csv":
                back = back.replace(",backtrack,", ",frontier,")
            assert default == frontier == back, argv
            assert len(default.splitlines()) == len(graphs) + (fmt == "csv")


def test_count_answers_past_the_backtracking_node_cap(tmp_path, capsys, monkeypatch):
    # backtracking exits 65 at its node cap on both graphs
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import corpora

    for n in (20, 30):
        path = write_g6(tmp_path, "g.g6", [Graph(n, tuple(corpora.random_regular(n, 3, random.Random(1))))])
        start = time.perf_counter()
        code, out = run(capsys, ["count", "--graph", path, "--q", "4"])
        assert code == EXIT_OK and time.perf_counter() - start < 1, n
        code, verified = run(capsys, ["verify", "--graphs", path, "--q", "4"])
        assert code == EXIT_OK
        (rec,) = json_lines(out)
        assert rec["value"] == json_lines(verified)[0]["comparisons"][0]["lhs_base"], n


def test_count_over_state_cap_exits_cap(tmp_path, capsys, monkeypatch):
    import chromacount.counting as counting

    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 3)
    path = write_g6(tmp_path, "k33.g6", [complete_bipartite(3, 3)])
    code = main(["count", "--graph", path, "--q", "4"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_CAP, "")
    assert captured.err == "error: frontier pass exceeds state cap 3 at vertex 4 of 6\n"


def test_verify_cubic_corpus(tmp_path, capsys):
    graphs = [g for n in (4, 6, 8) for g in regular_family(n, 3)]
    path = write_g6(tmp_path, "cubic.g6", graphs)
    code, out = run(capsys, ["verify", "--graphs", path, "--q", "3"])
    assert code == EXIT_OK
    recs = json_lines(out)
    summary = recs[-1]
    assert summary["type"] == "summary"
    assert summary["failures"] == 0
    assert summary["verdicts"] == len(graphs)
    assert summary["equality"] == 1  # K_{3,3} alone
    graph6s = [r["graph6"] for r in recs[:-1]]
    assert graph6s == sorted(graph6s)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("target", ["colorings", "indsets", "hom"])
def test_verify_jobs_deterministic(tmp_path, capsys, monkeypatch, target, fmt):
    started = _spy_pool(monkeypatch)
    graphs = [g for n in (4, 6, 8) for g in regular_family(n, 3)] + [k4_minus_edge()]
    path = write_g6(tmp_path, "cubic.g6", graphs)
    argv = ["verify", "--graphs", path, "--format", fmt]
    if target == "colorings":
        argv += ["--q", "3"]
    elif target == "indsets":
        argv += ["--target", "indsets"]
    else:
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps({"k": 2, "edges": [[0, 1], [1, 1]]}))
        argv += ["--target", f"hom:{hfile}"]
    code1, out1 = run(capsys, argv + ["--jobs", "1"])
    assert not started
    code2, out2 = run(capsys, argv + ["--jobs", "2"])
    assert started == [2]
    assert code1 == code2 == EXIT_OK
    assert out1 == out2 and out1


@pytest.mark.parametrize("q", ["0", "1"])
def test_verify_at_q_at_most_one_compares_zero_with_zero(tmp_path, capsys, q):
    # c_q(G) and c_q(K_{d,d}) are both 0, so both cleared powers are 0
    path = write_g6(tmp_path, "g.g6", [complete_bipartite(3, 3), complete(4)])
    code, out = run(capsys, ["verify", "--graphs", path, "--q", q])
    assert code == EXIT_OK
    *verdicts, summary = json_lines(out)
    assert len(verdicts) == 2 and (summary["holds"], summary["equality"], summary["failures"]) == (2, 2, 0)
    for r in verdicts:
        assert (r["type"], r["q"], r["holds"], r["equality"], r["slack_log2"]) == ("verdict", int(q), True, True, 0.0)
        [c] = r["comparisons"]
        assert (c["lhs_base"], c["rhs_base"], c["holds"], c["equality"]) == ("0", "0", True, True)


def _fail_on_n_divisible_by_4(g, q):
    """conjecture_verdict, turned into a failed verdict when 4 divides n."""
    import chromacount.verdicts as verdicts

    v = verdicts.conjecture_verdict(g, q)
    return v._replace(holds=False, equality=False) if g.n % 4 == 0 else v


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_report_matches_whole_report_assembly(tmp_path, capsys, monkeypatch, fmt, jobs):
    import chromacount.cli as cli

    # the pool forks, so the workers inherit the failing verdict
    monkeypatch.setattr(cli, "conjecture_verdict", _fail_on_n_divisible_by_4)
    graphs = [*regular_family(6, 3), *regular_family(8, 3), complete(4), cycle(5), complete(4), k4_minus_edge(), complete_bipartite(2, 3)]
    random.Random(14).shuffle(graphs)
    records = [write_graph6(g) for g in graphs]
    path = write_g6(tmp_path, "mixed.g6", graphs)
    verdict = partial(cli.conjecture_verdict, q=3)
    results = [cli._verify_one((line, record), verdict, 3) for line, record in enumerate(records, 1)]
    # a duplicate record, skipped records, and verdicts that hold and fail
    assert len(set(records)) < len(records)
    assert {r["type"] for r in results} == {"verdict", "skipped"}
    assert {r["holds"] for r in results if r["type"] == "verdict"} == {True, False}
    report, bundle = reference_verify_report(results, fmt)

    argv = ["verify", "--graphs", path, "--q", "3", "--format", fmt, "--jobs", jobs]
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == EXIT_VIOLATION
    assert out.read_bytes() == report.encode()
    assert (tmp_path / "report.counterexamples.json").read_bytes() == bundle.encode()
    monkeypatch.chdir(tmp_path)
    code, stdout = run(capsys, argv)
    assert code == EXIT_VIOLATION and stdout == report
    assert (tmp_path / "counterexamples.json").read_bytes() == bundle.encode()


def test_verify_memory_stays_proportional_to_report(tmp_path):
    # drawn as the verify-indsets-bulk benchmark draws its corpus
    rng = random.Random(14)
    graphs = []
    for k in range(2000):
        d = 3 + k % 2
        n = rng.randrange(8, 17, 2) if d == 3 else rng.randrange(8, 17)
        graphs.append(random_regular(n, d, rng))
    path = write_g6(tmp_path, "bulk.g6", graphs)
    out = tmp_path / "bulk.jsonl"
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["verify", "--target", "indsets", "--graphs", path, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    size = out.stat().st_size
    assert peak < 3 * size, f"traced peak {peak} bytes for a report of {size} bytes"


def test_count_memory_grows_with_report_not_corpus(tmp_path):
    # count holds one rendered line per graph, not the parsed graphs and
    # their record dicts; the slope between two corpus sizes leaves out the
    # fixed cost of a run (holding every graph and dict cost about 8.5 bytes
    # per byte of report)
    rng = random.Random(14)
    graphs = []
    for k in range(1200):
        d = 3 + k % 2
        n = rng.randrange(8, 17, 2) if d == 3 else rng.randrange(8, 17)
        graphs.append(random_regular(n, d, rng))
    measured = []
    for size in (400, 1200):
        path = write_g6(tmp_path, f"bulk{size}.g6", graphs[:size])
        out = tmp_path / f"bulk{size}.jsonl"
        gc.collect()
        tracemalloc.start()
        try:
            code = main(["count", "--graph", path, "--q", "2", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        measured.append((peak, out.stat().st_size))
    (peak0, size0), (peak1, size1) = measured
    assert peak1 - peak0 < 4 * (size1 - size0), measured


def test_verify_indsets(tmp_path, capsys):
    graphs = [g for n in (4, 6, 8) for g in regular_family(n, 3)]
    path = write_g6(tmp_path, "cubic.g6", graphs)
    code, out = run(capsys, ["verify", "--graphs", path, "--target", "indsets"])
    assert code == EXIT_OK
    assert json_lines(out)[-1]["failures"] == 0


def test_verify_hom_target(tmp_path, capsys):
    hfile = tmp_path / "h.json"
    hfile.write_text(json.dumps({"k": 2, "edges": [[0, 1], [1, 1]]}))
    path = write_g6(tmp_path, "g.g6", list(regular_family(6, 3)))
    code, out = run(capsys, ["verify", "--graphs", path, "--target", f"hom:{hfile}"])
    assert code == EXIT_OK
    assert json_lines(out)[-1]["failures"] == 0


def test_verify_hom_computes_each_reference_once(tmp_path, capsys, monkeypatch):
    import chromacount.verdicts as verdicts

    hfile = tmp_path / "h.json"
    hfile.write_text(json.dumps({"k": 3, "edges": [[0, 1], [1, 2], [1, 1]]}))
    graphs = list(regular_family(8, 3)) + list(regular_family(10, 3)) + list(regular_family(7, 4))
    path = write_g6(tmp_path, "g.g6", graphs)
    argv = ["verify", "--graphs", path, "--target", f"hom:{hfile}"]
    counted, walks = [], []
    real_count, real_census = verdicts.count_homomorphisms, verdicts._set_census
    monkeypatch.setattr(verdicts, "count_homomorphisms", lambda g, h: counted.append(write_graph6(g)) or real_count(g, h))
    monkeypatch.setattr(verdicts, "_set_census", lambda *args: walks.append(args) or real_census(*args))
    verdicts._hom_references.cache_clear()
    code, out = run(capsys, argv)
    assert code == EXIT_OK
    # the graph side is counted once per record, the references once per (d, H)
    assert counted == [write_graph6(g) for g in graphs]
    assert verdicts._hom_references.cache_info().misses == 2 and len(walks) == 4
    # the same report when every verdict computes its references afresh
    monkeypatch.setattr(verdicts, "_hom_references", verdicts._hom_references.__wrapped__)
    counted.clear()
    walks.clear()
    assert run(capsys, argv) == (EXIT_OK, out)
    assert len(counted) == len(graphs) and len(walks) == 2 * len(graphs)


def test_verify_hom_references_reach_large_d(tmp_path, capsys):
    # backtracking the references of K_13 into K_4 went over the node cap
    # after about a minute; the closed forms take milliseconds
    hfile = tmp_path / "k4.json"
    hfile.write_text(json.dumps({"k": 4, "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}))
    path = write_g6(tmp_path, "k13.g6", [complete(13)])
    start = time.perf_counter()
    code, out = run(capsys, ["verify", "--graphs", path, "--target", f"hom:{hfile}"])
    assert time.perf_counter() - start < 5
    assert code == EXIT_OK
    kdd_side, clique_side = json_lines(out)[0]["comparisons"]
    assert (kdd_side["rhs_base"], kdd_side["holds"], kdd_side["equality"]) == ("104816532", True, False)
    assert (clique_side["rhs_base"], clique_side["holds"], clique_side["equality"]) == ("0", True, True)


def test_verify_hom_references_over_node_cap_exit_cap(tmp_path, capsys, monkeypatch):
    import chromacount.counting as counting
    import chromacount.verdicts as verdicts
    from chromacount import CapExceededError, count_homomorphisms, target_from_edges

    monkeypatch.setattr(counting, "BACKTRACK_NODE_CAP", 200)
    # every vertex looped and adjacent to every other: both walks go over the cap
    dense = target_from_edges(12, [(u, v) for u in range(12) for v in range(u, 12)])
    for depth, spread in ((3, True), (4, False)):
        with pytest.raises(CapExceededError, match="^homomorphism backtracking exceeds search-node cap 200$"):
            verdicts._set_census(dense.rows, depth, spread)
    # a looped centre joined to 12 leaves: K_4 maps into it under the cap,
    # and the sets S of K_{3,3}'s closed form go over it
    edges = [[0, 0]] + [[0, v] for v in range(1, 13)]
    assert count_homomorphisms(complete(4), target_from_edges(13, edges)) == 1 + 4 * 12
    hfile = tmp_path / "star.json"
    hfile.write_text(json.dumps({"k": 13, "edges": edges}))
    path = write_g6(tmp_path, "k4.g6", [complete(4)])
    verdicts._hom_references.cache_clear()
    code = main(["verify", "--graphs", path, "--target", f"hom:{hfile}"])
    captured = capsys.readouterr()
    assert code == EXIT_CAP and captured.out == ""
    assert captured.err == "error: homomorphism backtracking exceeds search-node cap 200\n"


def test_verify_failure_writes_counterexample_bundle(tmp_path, capsys, monkeypatch):
    import chromacount.cli as cli
    from chromacount.verdicts import PowerComparison, Verdict

    def always_fails(g, q):
        cmp = PowerComparison(7, 2, 3, 2, False, False, -2.44)
        return Verdict(f"colorings q={q}", (cmp,), False, False, -2.44)

    monkeypatch.setattr(cli, "conjecture_verdict", always_fails)
    monkeypatch.chdir(tmp_path)
    path = write_g6(tmp_path, "g.g6", [complete(4)])
    out_path = tmp_path / "report.jsonl"
    code, _ = run(capsys, ["verify", "--graphs", path, "--q", "3", "--out", str(out_path)])
    assert code == EXIT_VIOLATION
    bundle = json.loads((tmp_path / "report.jsonl.counterexamples.json").read_text())
    assert bundle[0]["graph6"] == write_graph6(complete(4))
    assert bundle[0]["comparisons"][0]["lhs_base"] == "7"
    report = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert report[-1]["failures"] == 1


def test_verify_csv_format(tmp_path, capsys):
    path = write_g6(tmp_path, "g.g6", list(regular_family(6, 3)))
    code, out = run(capsys, ["verify", "--graphs", path, "--q", "3", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("graph6,n,d,q,target,holds")
    assert len(lines) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--q", "3", "--format", "csv"],
        ["count", "--q", "3", "--format", "text"],
        ["verify", "--q", "3", "--format", "csv"],
    ],
)
def test_out_file_is_closed_and_complete(tmp_path, capsys, argv):
    path = write_g6(tmp_path, "g.g6", list(regular_family(6, 3)) + [complete(3)])
    flag = "--graph" if argv[0] == "count" else "--graphs"
    code, expected = run(capsys, argv + [flag, path])
    assert code == EXIT_OK and expected
    out_path = tmp_path / "report.out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = main(argv + [flag, path, "--out", str(out_path)])
        gc.collect()
    assert code == EXIT_OK
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert out_path.read_bytes().decode() == expected
    assert capsys.readouterr().out == ""


def test_count_reads_stdin(capsys, monkeypatch):
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.TextIOWrapper(_io.BytesIO(b"C~\n")))
    code, out = run(capsys, ["count", "--graph", "-", "--q", "4"])
    assert code == EXIT_OK
    assert json_lines(out)[0]["value"] == "24"


def test_verify_skips_irregular(tmp_path, capsys):
    path = write_g6(tmp_path, "mixed.g6", [k4_minus_edge(), complete(4)])
    code, out = run(capsys, ["verify", "--graphs", path, "--q", "3"])
    assert code == EXIT_OK
    recs = json_lines(out)
    assert any(r["type"] == "skipped" for r in recs)
    assert recs[-1]["skipped"] == 1


def test_verify_requires_q_for_colorings(tmp_path, capsys):
    path = write_g6(tmp_path, "g.g6", [complete(4)])
    code, _ = run(capsys, ["verify", "--graphs", path])
    assert code == EXIT_USAGE


def test_certificate_k33_auto(tmp_path, capsys):
    path = write_g6(tmp_path, "k33.g6", [complete_bipartite(3, 3)])
    code, out = run(capsys, ["certificate", "--graph", path, "--q", "3"])
    assert code == EXIT_OK
    (rec,) = json_lines(out)
    assert rec["t"] == [0]
    assert rec["d_set"] == [0, 1, 2]
    assert rec["passed"] and all(c["pass"] for c in rec["checks"])
    assert rec["trace"] == [[0, 3]]


def test_certificate_c6_all_maximal_indsets(tmp_path, capsys):
    from itertools import combinations

    g = cycle(6)
    path = write_g6(tmp_path, "c6.g6", [g])
    maximal = []
    for r in range(1, 4):
        for subset in combinations(range(6), r):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                grow = set(subset)
                if all(any(g.has_edge(u, v) for u in subset) for v in range(6) if v not in grow):
                    maximal.append(subset)
    assert maximal
    for subset in maximal:
        code, out = run(
            capsys,
            ["certificate", "--graph", path, "--q", "3", "--indset", ",".join(map(str, subset))],
        )
        assert code == EXIT_OK
        assert json_lines(out)[0]["passed"]


def test_certificate_dependent_indset(tmp_path, capsys):
    path = write_g6(tmp_path, "k2.g6", [complete(2)])
    code, _ = run(capsys, ["certificate", "--graph", path, "--q", "3", "--indset", "0,1"])
    assert code == EXIT_USAGE


def test_scan_records(tmp_path, capsys):
    records = tmp_path / "records.json"
    code, out = run(
        capsys,
        ["scan", "--n", "6", "--d", "3", "--q", "3", "--eps", "0", "--records", str(records)],
    )
    assert code == EXIT_OK
    recs = json_lines(out)
    assert recs[-1]["max"] == "42"
    assert recs[-1]["argmax"] == write_graph6(complete_bipartite(3, 3))
    assert recs[-1]["record_improved"] is True

    stored = json.loads(records.read_text())
    assert stored["6:3:3:0"]["best"] == "42"

    # a worse candidate family leaves the stored record unchanged
    worse = write_g6(tmp_path, "worse.g6", [cycle(6)])
    code, out = run(
        capsys,
        ["scan", "--n", "6", "--d", "2", "--q", "3", "--eps", "0", "--source", "file",
         "--graphs", worse, "--records", str(records)],
    )
    assert code == EXIT_OK
    stored2 = json.loads(records.read_text())
    assert stored2["6:3:3:0"] == stored["6:3:3:0"]

    # same key, lower value: monotone store refuses to regress
    code, out = run(
        capsys,
        ["scan", "--n", "6", "--d", "3", "--q", "3", "--eps", "0", "--source", "file",
         "--graphs", write_g6(tmp_path, "prism_only.g6", [g for g in regular_family(6, 3) if g != complete_bipartite(3, 3)][:1]),
         "--records", str(records)],
    )
    assert code == EXIT_OK
    assert json.loads(records.read_text())["6:3:3:0"]["best"] == "42"


_SCAN_K33_RECORDS = ["scan", "--n", "6", "--d", "3", "--q", "3", "--eps", "0", "--records"]


def test_scan_records_keeps_the_store_mode(tmp_path, capsys):
    # the store is replaced by a temp file, which must take the store's mode
    records = tmp_path / "records.json"
    for mode in (0o644, 0o640, 0o664, 0o600):
        records.write_text("{}\n")
        records.chmod(mode)
        assert run(capsys, _SCAN_K33_RECORDS + [str(records)])[0] == EXIT_OK
        assert stat.S_IMODE(records.stat().st_mode) == mode
        assert json.loads(records.read_text())["6:3:3:0"]["best"] == "42"


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_scan_records_makes_a_new_store_as_open_would(tmp_path, capsys, umask):
    records = tmp_path / "records.json"
    saved = os.umask(umask)
    try:
        assert run(capsys, _SCAN_K33_RECORDS + [str(records)])[0] == EXIT_OK
    finally:
        # the scan left the umask as it was
        assert os.umask(saved) == umask
    assert stat.S_IMODE(records.stat().st_mode) == 0o666 & ~umask
    assert json.loads(records.read_text())["6:3:3:0"]["best"] == "42"


def _waits_for_flock(pid, inode):
    """Whether process `pid` is blocked on a flock of the file `inode`."""
    with open("/proc/locks", encoding="ascii") as fh:
        return any(" -> FLOCK " in line and f" {pid} " in line and f":{inode} " in line for line in fh)


def test_scan_records_keeps_a_concurrent_update(tmp_path):
    import fcntl

    if not os.path.exists("/proc/locks"):
        pytest.skip("needs /proc/locks to see a process wait for a lock")
    records = tmp_path / "best.json"
    records.write_text("{}\n")
    foreign = {"8:3:3:0": {"n": 8, "d": 3, "q": 3, "eps": "0", "best": "7", "argmax": None}}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = ["scan", "--n", "6", "--d", "3", "--q", "3", "--records", str(records), "--out", str(tmp_path / "report")]
    with open(f"{records}.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        proc = subprocess.Popen([sys.executable, "-m", "chromacount.cli", *argv], env=env, stderr=subprocess.PIPE)
        try:
            inode = os.fstat(lock.fileno()).st_ino
            # the scan has read the store and done its work; it now waits
            while not _waits_for_flock(proc.pid, inode):
                assert proc.poll() is None, proc.stderr.read()
                time.sleep(0.01)
            assert records.read_text() == "{}\n"
            # another run's key, written while this one holds the lock
            records.write_text(json.dumps(foreign))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    assert proc.wait(timeout=60) == EXIT_OK, proc.stderr.read()
    proc.stderr.close()
    stored = json.loads(records.read_text())
    assert stored["8:3:3:0"] == foreign["8:3:3:0"]
    assert stored["6:3:3:0"]["best"] == "42"


def test_scan_boundary_eps(tmp_path, capsys):
    code, out = run(capsys, ["scan", "--n", "6", "--d", "3", "--q", "3", "--eps", "0.4"])
    assert code == EXIT_OK
    assert json_lines(out)[-1]["max"] == "0"


def test_scan_cap(tmp_path, capsys):
    code, _ = run(capsys, ["scan", "--n", "20", "--d", "3", "--q", "3"])
    assert code == EXIT_CAP


def test_scan_cap_not_an_integer_exits_usage(capsys, monkeypatch):
    monkeypatch.setenv("CHROMA_CAP_N", "abc")
    code = main(["scan", "--n", "6", "--d", "3", "--q", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == "error: CHROMA_CAP_N must be an integer, got 'abc'\n"


def test_bounds_table(tmp_path, capsys):
    path = write_g6(tmp_path, "cubic10.g6", list(regular_family(10, 3)))
    code, out = run(capsys, ["bounds", "--n", "10", "--d", "3", "--q", "3", "--graphs", path])
    assert code == EXIT_OK
    recs = json_lines(out)
    head = recs[0]
    assert head["type"] == "bounds"
    assert head["weak_bound_log2"] > head["eta_pow_log2"]
    rows = [r for r in recs[1:] if r["type"] == "bounds-row"]
    assert len(rows) == 19
    assert all(r["below_weak_bound"] for r in rows)


def test_bounds_q2_reference(capsys):
    code, out = run(capsys, ["bounds", "--n", "12", "--d", "3", "--q", "2"])
    assert code == EXIT_OK
    head = json_lines(out)[0]
    assert head["reference_base"] == "2"
    assert head["weak_bound_log2"] is None


def test_bounds_eps_column(capsys):
    # --eps is read as exact text, as by scan: "1/3" is a fraction
    for eps in ("0.3", "1/3"):
        code, out = run(capsys, ["bounds", "--n", "10", "--d", "3", "--q", "3", "--eps", eps])
        assert code == EXIT_OK
        head = json_lines(out)[0]
        assert head["eps"] == eps
        assert head["weak_bound_eps_log2"] < head["weak_bound_log2"]


def test_bounds_large_n_is_finite(capsys):
    for argv in (["--n", "1000"], ["--n", "10000", "--eps", "0.3"]):
        code, out = run(capsys, ["bounds", "--d", "3", "--q", "4"] + argv)
        assert code == EXIT_OK
        head = json_lines(out)[0]
        assert math.isfinite(head["reference_log2"]) and math.isfinite(head["weak_bound_log2"])


def test_bounds_domain_error(capsys, monkeypatch):
    from chromacount import certificates

    def weak(*args):
        raise AssertionError("a weak bound was computed for a family that cannot exist")

    # no d-regular graph has n <= d vertices, at any q; at q >= 3 too the
    # check comes before the weak bound's work
    monkeypatch.setattr(certificates, "explicit_weak_bound", weak)
    for n, d in (("2", "3"), ("3", "3"), ("1", "1")):
        for q in ("2", "3", "4"):
            code = main(["bounds", "--n", n, "--d", d, "--q", q])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (EXIT_USAGE, "", "error: n must be at least d+1\n"), (n, d, q)
    # outside the reference's domain, refused even where the bit cap would
    # refuse a valid (n, d, q)
    for n, d, q in (("4", "3", "1"), ("4", "0", "10000000"), ("4", "3", "-5"), ("0", "-2", "3")):
        code = main(["bounds", "--n", n, "--d", d, "--q", q])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_USAGE, "", "error: need d >= 1, q >= 2, n >= 1\n"), (n, d, q)


LONG_COUNT_ERROR = r"error: a count of \d+ bits exceeds the integer-to-string limit of \d+ digits\n"


def test_count_too_long_for_text_exits_cap(tmp_path, capsys):
    # c_q(C_62) at q = 10^80 has about 4,960 decimal digits, c_q(K_{3,3}) at
    # q = 10^720 about 4,320 and c_10(K_{5000,5000}) about 7,000: over the
    # interpreter's default limit of 4,300
    g6 = write_g6(tmp_path, "c62.g6", [cycle(62)] * 2)
    q = str(10**80)
    for argv in (
        ["count", "--graph", g6, "--q", q, "--method", "polynomial"],
        ["scan", "--n", "6", "--d", "3", "--q", str(10**720)],
        ["bounds", "--n", "5001", "--d", "5000", "--q", "10"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_CAP, ""), argv
        assert re.fullmatch(LONG_COUNT_ERROR, captured.err), argv
    errs = set()
    for jobs in ("1", "2"):
        code = main(["verify", "--graphs", g6, "--q", q, "--jobs", jobs])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_CAP, ""), jobs
        errs.add(captured.err)
    (err,) = errs
    assert re.fullmatch(LONG_COUNT_ERROR, err)


def _bounds_in_1_gib(argv):
    # a run that builds integers of gigabytes fails at once (exit 1) in 1 GiB
    # of address space, and leaves the host's memory alone
    limit = 1 << 30
    return _cli(["bounds", *argv], preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "10000000000", "--d", "3", "--q", "3"],
        ["--n", "1000000000001", "--d", "1000000000000", "--q", "3"],
        ["--n", "10", "--d", "3", "--q", "100000000"],
    ],
    ids=["n", "d", "q"],
)
def test_bounds_over_bit_cap_exits_cap(argv):
    proc = _bounds_in_1_gib(argv)
    assert (proc.returncode, proc.stdout) == (EXIT_CAP, b"")
    assert re.fullmatch(rb"error: bounds at n=\d+, d=\d+, q=\d+ may need \d+-bit integers, over the cap of 8388608 bits\n", proc.stderr)


def test_bounds_odd_n_of_a_million_ends():
    # odd n, where the bound has no square root to round: here it is
    # 2^(3n) * 2^((n+3)/2), t = 1 and the multiplicities sum to 3(n+1)/2
    proc = _bounds_in_1_gib(["--n", "1000001", "--d", "3", "--q", "3"])
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert json_lines(proc.stdout.decode())[0]["weak_bound_log2"] == 3_500_005.0


def test_usage_errors(capsys):
    code, _ = run(capsys, ["count", "--q", "3"])
    assert code == EXIT_USAGE
    code, _ = run(capsys, ["verify", "--graphs", "/nonexistent/path.g6", "--q", "3"])
    assert code == EXIT_USAGE


def test_reports_byte_deterministic(tmp_path, capsys):
    path = write_g6(tmp_path, "g.g6", list(regular_family(8, 3)))
    _, out1 = run(capsys, ["verify", "--graphs", path, "--q", "4"])
    _, out2 = run(capsys, ["verify", "--graphs", path, "--q", "4"])
    assert out1 == out2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    path = write_g6(tmp_path, "g.g6", [complete(4), cycle(5)])
    code = main(["verify", "--graphs", path, "--q", "3", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "--jobs" in captured.err


def _graph6_argv(bad, g6):
    return ["verify", "--graphs", bad, "--q", "3"]


def _hom_argv(bad, g6):
    return ["verify", "--graphs", g6, "--target", f"hom:{bad}"]


def _records_argv(bad, g6):
    return ["scan", "--n", "6", "--d", "3", "--q", "3", "--records", bad]


def _odd_nd_argv(bad, g6):
    return ["scan", "--n", "7", "--d", "3", "--q", "3"]


MALFORMED_INPUTS = {
    "graph6-non-ascii": ("bad.g6", b"C~\nC\xe9~\n", _graph6_argv),
    "graph6-nonzero-padding": ("bad.g6", b"C~\nD?A\n", _graph6_argv),
    "hom-json-syntax": ("h.json", b'{"k": 2, "edges": [[0, 1]', _hom_argv),
    "hom-without-edges": ("h.json", b'{"k": 2}', _hom_argv),
    "hom-without-k": ("h.json", b'{"edges": [[0, 1]]}', _hom_argv),
    "hom-edge-not-a-pair": ("h.json", b'{"k": 2, "edges": [[0]]}', _hom_argv),
    "hom-not-an-object": ("h.json", b"[2, [[0, 1]]]", _hom_argv),
    "records-json-syntax": ("records.json", b'{"6:3:3:0": ', _records_argv),
    "records-not-an-object": ("records.json", b"[]", _records_argv),
    "records-best-not-decimal": ("records.json", b'{"6:3:3:0": {"best": "x"}}', _records_argv),
    "records-entry-not-an-object": ("records.json", b'{"6:3:3:0": 5}', _records_argv),
    "records-entry-without-best": ("records.json", b'{"6:3:3:0": {}}', _records_argv),
    # past the integer-to-string limit, past the recursion limit, and JSON
    # booleans, which Python reads as the ints 1 and 0
    "hom-integer-too-long": ("h.json", b'{"k": 1' + b"0" * 4999 + b', "edges": []}', _hom_argv),
    "hom-nested-too-deep": ("h.json", b"[" * 100_000 + b"]" * 100_000, _hom_argv),
    "hom-k-boolean": ("h.json", b'{"k": true, "edges": []}', _hom_argv),
    "hom-endpoint-boolean": ("h.json", b'{"k": 2, "edges": [[0, true]]}', _hom_argv),
    "records-integer-too-long": ("records.json", b'{"6:3:3:0": {"best": "42", "n": 1' + b"0" * 4999 + b"}}", _records_argv),
    "records-nested-too-deep": ("records.json", b"[" * 100_000 + b"]" * 100_000, _records_argv),
    "records-best-too-long": ("records.json", b'{"6:3:3:0": {"best": "1' + b"0" * 4999 + b'"}}', _records_argv),
    # int() reads fullwidth digits: "９９９" as 999, which a scan finding 42 would keep
    "records-best-fullwidth-digits": ("records.json", '{"6:3:3:0": {"best": "９９９"}}'.encode(), _records_argv),
    "scan-odd-nd": ("unused", b"", _odd_nd_argv),
}


UNOPENABLE_PATH_ARGVS = {
    "verify-graphs": lambda bad, g6: ["verify", "--graphs", bad, "--q", "3"],
    "verify-out": lambda bad, g6: ["verify", "--graphs", g6, "--q", "3", "--out", bad],
    "verify-hom-target": _hom_argv,
    "scan-records": lambda bad, g6: ["scan", "--n", "4", "--d", "3", "--q", "3", "--records", bad],
    "bounds-graphs": lambda bad, g6: ["bounds", "--n", "4", "--d", "3", "--q", "3", "--graphs", bad],
}


@pytest.mark.parametrize("case", sorted(UNOPENABLE_PATH_ARGVS))
def test_unopenable_path_exits_usage(tmp_path, capsys, monkeypatch, case):
    g6 = write_g6(tmp_path, "g.g6", [complete(4)])
    argv = UNOPENABLE_PATH_ARGVS[case]
    # a directory, and a path through a regular file
    for bad, message in ((str(tmp_path), "Is a directory"), (g6 + "/x", "Not a directory")):
        code = main(argv(bad, g6))
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "", bad
        assert captured.err.startswith("error: ") and message in captured.err, bad
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    # root may open any file, so opening this existing one raises in place
    denied = tmp_path / "denied"
    denied.write_text("{}")
    real_open = open

    def deny(path, *args, **kwargs):
        if path == str(denied):
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", deny)
    code = main(argv(str(denied), g6))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == f"error: [Errno 13] Permission denied: '{denied}'\n"


BAD_OUTPUT_ARGVS = {
    "count-out": lambda bad, g6: ["count", "--graph", g6, "--q", "3", "--method", "both", "--out", bad],
    "verify-out": lambda bad, g6: ["verify", "--graphs", g6, "--q", "3", "--out", bad],
    "verify-jobs-out": lambda bad, g6: ["verify", "--graphs", g6, "--target", "indsets", "--jobs", "2", "--out", bad],
    "certificate-out": lambda bad, g6: ["certificate", "--graph", g6, "--q", "3", "--out", bad],
    "scan-out": lambda bad, g6: ["scan", "--n", "6", "--d", "3", "--q", "3", "--out", bad],
    "scan-records": lambda bad, g6: ["scan", "--n", "6", "--d", "3", "--q", "3", "--records", bad],
    "bounds-out": lambda bad, g6: ["bounds", "--n", "4", "--d", "3", "--q", "3", "--graphs", g6, "--out", bad],
}


@pytest.mark.parametrize("case", sorted(BAD_OUTPUT_ARGVS))
def test_bad_output_path_exits_before_work(tmp_path, capsys, monkeypatch, case):
    import chromacount.cli as cli
    import chromacount.counting as counting
    import chromacount.verdicts as verdicts

    def no_work(*args, **kwargs):
        raise AssertionError("the work started before the output path was checked")

    work = ("count_colorings", "chromatic_polynomial", "count_homomorphisms", "count_independent_sets",
            "independence_number", "maximum_independent_set", "enumerate_regular", "count_colorings_kdd")
    for module in (cli, counting, verdicts):
        for name in work:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_work)
    monkeypatch.setattr(multiprocessing, "Pool", no_work)
    g6 = write_g6(tmp_path, "g.g6", [complete(4), complete_bipartite(3, 3)])
    (tmp_path / "dir").mkdir()
    bad_paths = (
        (str(tmp_path / "dir"), "Is a directory"),
        (g6 + "/x", "Not a directory"),
        (str(tmp_path / "missing" / "x"), "No such file or directory"),
    )
    for bad, message in bad_paths:
        code = main(BAD_OUTPUT_ARGVS[case](bad, g6))
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "", bad
        assert captured.err.startswith("error: [Errno ") and captured.err.endswith(f"] {message}: '{bad}'\n")
    assert not (tmp_path / "missing").exists()


def test_failed_run_keeps_existing_report(tmp_path, capsys, monkeypatch):
    import chromacount.counting as counting

    g6 = write_g6(tmp_path, "k33.g6", [complete_bipartite(3, 3)])
    report = tmp_path / "report.jsonl"
    records = tmp_path / "records.json"
    code, out = run(capsys, ["verify", "--graphs", g6, "--q", "4"])
    assert code == EXIT_OK
    assert main(["verify", "--graphs", g6, "--q", "4", "--out", str(report)]) == EXIT_OK
    assert report.read_text() == out
    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 3)
    # an existing report is left as it was; a new one is not made
    for path in (report, tmp_path / "new.jsonl"):
        assert main(["verify", "--graphs", g6, "--q", "4", "--out", str(path)]) == EXIT_CAP
    assert main(["scan", "--n", "6", "--d", "3", "--q", "4", "--records", str(records)]) == EXIT_CAP
    assert capsys.readouterr().out == ""
    assert report.read_text() == out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k33.g6", "report.jsonl"]


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_usage(tmp_path, capsys, case):
    name, data, argv = MALFORMED_INPUTS[case]
    bad = tmp_path / name
    bad.write_bytes(data)
    g6 = write_g6(tmp_path, "g.g6", [complete(4)])
    code = main(argv(str(bad), g6))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert bad.read_bytes() == data


def test_verify_over_state_cap_exits_cap(tmp_path, capsys, monkeypatch):
    import chromacount.counting as counting

    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 3)
    path = write_g6(tmp_path, "k33.g6", [complete_bipartite(3, 3)])
    code = main(["verify", "--graphs", path, "--q", "4"])
    captured = capsys.readouterr()
    assert code == EXIT_CAP and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "state cap" in captured.err


def test_verify_makes_no_classify_call(tmp_path, capsys, monkeypatch):
    import chromacount.cli as cli
    import chromacount.verdicts as verdicts

    # the verdicts read the degree from the rows; bipartiteness and
    # components are never needed
    calls = []
    for module in (cli, verdicts):
        monkeypatch.setattr(module, "classify", lambda g, real=module.classify: calls.append(g) or real(g))
    graphs = list(regular_family(6, 3)) + [k4_minus_edge(), complete(2), cycle(5)]
    path = write_g6(tmp_path, "g.g6", graphs)
    skipped = [
        {"type": "skipped", "graph6": write_graph6(g), "n": g.n, "reason": "not regular with d >= 2"}
        for g in (complete(2), k4_minus_edge())
    ]
    skipped.sort(key=lambda r: r["graph6"])  # the report's order
    for target in (["--q", "3"], ["--target", "indsets"]):
        code, out = run(capsys, ["verify", "--graphs", path] + target)
        assert code == EXIT_OK
        assert calls == []
        assert [r for r in json_lines(out) if r["type"] == "skipped"] == skipped
    code, _ = run(capsys, ["verify", "--graphs", path, "--q", "-1"])
    assert code == EXIT_USAGE
    # the other corpus commands read the degree from the rows too
    one = write_g6(tmp_path, "one.g6", [petersen()])
    cubic = write_g6(tmp_path, "cubic.g6", list(regular_family(6, 3)))
    for argv in (
        ["count", "--graph", path, "--q", "3"],
        ["bounds", "--n", "6", "--d", "3", "--q", "3", "--graphs", path],
        ["certificate", "--graph", one, "--q", "3"],
        ["scan", "--n", "6", "--d", "3", "--q", "3", "--graphs", cubic],
    ):
        code, _ = run(capsys, argv)
        assert code == EXIT_OK, argv
        assert calls == [], argv


def test_verify_indsets_reach(tmp_path, capsys):
    # five disjoint Petersen graphs (n = 50) overflowed the former mask memo;
    # K_{20,20}, the equality case at n = 40, overflowed a pass keyed on the
    # frontier vertices in the set, which holds every subset of one side
    for g, count in ((disjoint_copies(petersen(), 5), 76**5), (complete_bipartite(20, 20), 2**21 - 1)):
        path = write_g6(tmp_path, "g.g6", [g])
        code, out = run(capsys, ["verify", "--graphs", path, "--target", "indsets"])
        assert code == EXIT_OK
        (rec, summary) = json_lines(out)
        assert rec["comparisons"][0]["lhs_base"] == str(count)
        assert rec["holds"] and summary["holds"] == 1
    assert rec["equality"] and summary["equality"] == 1


def test_verify_indsets_over_memo_cap_exits_cap(tmp_path, capsys, monkeypatch):
    import chromacount.counting as counting

    # the pass holds 3 states on K_{3,3}
    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 2)
    path = write_g6(tmp_path, "k33.g6", [complete_bipartite(3, 3)])
    code = main(["verify", "--graphs", path, "--target", "indsets"])
    captured = capsys.readouterr()
    assert code == EXIT_CAP and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "state cap" in captured.err


def test_serial_verify_parses_each_line_once(tmp_path, capsys, monkeypatch):
    import chromacount.cli as cli

    calls = []
    monkeypatch.setattr(cli, "parse_graph6", lambda line, real=cli.parse_graph6: calls.append(line) or real(line))
    graphs = list(regular_family(8, 3)) + [k4_minus_edge()]
    path = write_g6(tmp_path, "g.g6", graphs)
    code, _ = run(capsys, ["verify", "--graphs", path, "--q", "3"])
    assert code == EXIT_OK
    assert sorted(calls) == sorted(write_graph6(g) for g in graphs)


def _spy_pool(monkeypatch):
    """Record the size of every worker pool that verify starts; the pools
    are real, and one of more than 4 workers is refused before it starts."""
    started = []
    real = multiprocessing.Pool

    def pool(processes, *args, **kwargs):
        started.append(processes)
        assert processes <= 4, f"verify asked for a pool of {processes} workers"
        return real(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    return started


def _verify_every_jobs(capsys, argv):
    """(exit code, stdout, stderr) of argv under --jobs 1 and --jobs 2."""
    outcomes = []
    for jobs in ("1", "2"):
        code = main(argv + ["--jobs", jobs])
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


@pytest.mark.parametrize("target", ["colorings", "indsets", "hom"])
def test_parallel_verify_binds_its_verification_once(tmp_path, capsys, monkeypatch, target):
    """At --jobs 2 each worker receives the bound verification once, from
    the pool's initializer, and the tasks are the bare numbered records."""
    import chromacount.cli as cli

    seen = {}
    real = multiprocessing.Pool

    def pool(processes, initializer, initargs):
        seen["initargs"] = initargs
        p = real(processes, initializer, initargs)
        real_imap = p.imap

        def imap(func, iterable, chunksize):
            seen["func"], seen["tasks"] = func, list(iterable)
            return real_imap(func, iterable, chunksize)

        p.imap = imap
        return p

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    graphs = [*regular_family(6, 3), k4_minus_edge()]
    path = write_g6(tmp_path, "g.g6", graphs)
    argv = ["verify", "--graphs", path, "--q", "3"]
    if target == "indsets":
        argv += ["--target", "indsets"]
    elif target == "hom":
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps({"k": 3, "edges": [[0, 0], [0, 1], [1, 2], [2, 2]]}))
        argv += ["--target", f"hom:{hfile}"]
    serial, parallel = _verify_every_jobs(capsys, argv)
    assert serial == parallel and serial[0] == EXIT_OK
    assert seen["func"] is cli._unless_abandoned
    assert seen["tasks"] == list(enumerate(map(write_graph6, graphs), 1))
    abandoned, verify = seen["initargs"]
    assert verify.func is cli._verify_one
    verdict, q = verify.keywords["verdict"], verify.keywords["q"]
    if target == "colorings":
        assert (verdict.func, verdict.keywords, q) == (cli.conjecture_verdict, {"q": 3}, 3)
    elif target == "indsets":
        assert (verdict, q) == (cli.alon_kahn_verdict, None)
    else:
        assert (verdict.func, verdict.keywords["h"].k, q) == (cli.hom_conjecture_verdict, 3, None)


def test_parallel_verify_rejects_malformed_line(tmp_path, capsys, monkeypatch):
    started = _spy_pool(monkeypatch)
    path = tmp_path / "bad.g6"
    path.write_text(write_graph6(complete(4)) + "\nC\n" + write_graph6(cycle(5)) + "\n")
    serial, parallel = _verify_every_jobs(capsys, ["verify", "--graphs", str(path), "--q", "3"])
    assert started == [2]
    assert serial == parallel == (EXIT_USAGE, "", "error: line 2: truncated adjacency bits (need 1 bytes, got 0) (byte offset 1)\n")


def test_verify_starts_no_more_workers_than_records(tmp_path, capsys, monkeypatch):
    started = _spy_pool(monkeypatch)
    corpora = {
        "three.g6": ([complete(4), complete_bipartite(3, 3), petersen()], [3]),
        "one.g6": ([petersen()], []),
        "none.g6": ([], []),
    }
    for name, (graphs, pools) in corpora.items():
        argv = ["verify", "--graphs", write_g6(tmp_path, name, graphs), "--target", "indsets"]
        serial = run(capsys, argv)
        started.clear()
        assert run(capsys, argv + ["--jobs", "64"]) == serial and serial[0] == EXIT_OK
        assert started == pools, name


def test_verify_first_failing_record_decides_for_every_jobs(tmp_path, capsys, monkeypatch):
    import chromacount.counting as counting

    # the frontier pass holds more than 3 states on K_{3,3} at q = 3; the
    # workers fork, so they inherit the lowered cap
    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 3)
    started = _spy_pool(monkeypatch)
    path = tmp_path / "mixed.g6"
    path.write_text(write_graph6(complete_bipartite(3, 3)) + "\n" + write_graph6(cycle(5)) + "\nC~~\n")
    serial, parallel = _verify_every_jobs(capsys, ["verify", "--graphs", str(path), "--q", "3"])
    assert started == [2]
    assert serial == parallel
    code, out, err = serial
    assert code == EXIT_CAP and out == ""
    assert len(err.splitlines()) == 1 and "state cap 3" in err


def _late_bad_record_argv(tmp_path):
    """verify --jobs 2 over 6 records whose line 5 holds a non-ASCII byte,
    into a 3-vertex hom target (Widom-Rowlinson)."""
    good = [write_graph6(g) for g in regular_family(10, 3)[:5]]
    path = tmp_path / "late-bad.g6"
    path.write_bytes("".join(line + "\n" for line in good[:4] + ["I\xff"] + good[4:]).encode("latin-1"))
    target = tmp_path / "wr.json"
    target.write_text(json.dumps({"k": 3, "edges": [[0, 0], [0, 1], [1, 2], [2, 2]]}))
    return ["verify", "--graphs", str(path), "--target", f"hom:{target}", "--format", "csv", "--jobs", "2"]


LATE_BAD_RECORD_ERROR = "error: line 5: non-ASCII byte (byte offset 1)\n"


def test_parallel_verify_leaves_its_pool_by_close_and_join(tmp_path, capsys, monkeypatch):
    # terminate() may kill a worker while it holds the result queue's lock
    import multiprocessing.pool

    calls = []

    class SpyPool(multiprocessing.pool.Pool):
        def close(self):
            calls.append("close")
            super().close()

        def join(self):
            calls.append("join")
            super().join()

        def terminate(self):
            calls.append("terminate")
            super().terminate()

    monkeypatch.setattr(multiprocessing, "Pool", SpyPool)
    code = main(_late_bad_record_argv(tmp_path))
    assert (code, capsys.readouterr().err) == (EXIT_USAGE, LATE_BAD_RECORD_ERROR)
    assert calls == ["close", "join"]


def test_parallel_verify_skips_the_records_left_after_a_failure(tmp_path, capsys, monkeypatch):
    import chromacount.cli as cli

    # the workers fork, so they inherit this slow verdict; each one it runs
    # leaves a byte in `ran`
    ran = tmp_path / "ran"
    ran.write_text("")
    real = cli.conjecture_verdict

    def slow_verdict(g, q):
        time.sleep(0.02)
        with open(ran, "a") as fh:
            fh.write("x")
        return real(g, q)

    monkeypatch.setattr(cli, "conjecture_verdict", slow_verdict)
    path = tmp_path / "bad-first.g6"
    path.write_text("C\n" + "".join(write_graph6(cycle(5)) + "\n" for _ in range(79)))
    code = main(["verify", "--graphs", str(path), "--q", "3", "--jobs", "2"])
    assert code == EXIT_USAGE and capsys.readouterr().out == ""
    # the pool would run all 79 if it finished its chunks after the failure
    assert len(ran.read_text()) < 20


# runs verify in a loop for argv[1] seconds, each run with its own timeout,
# after which faulthandler prints every thread's stack and exits 1
_VERIFY_LOOP = """
import contextlib, faulthandler, io, sys, time
from chromacount.cli import main
deadline = time.monotonic() + float(sys.argv[1])
while time.monotonic() < deadline:
    faulthandler.dump_traceback_later(20, exit=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(sys.argv[2:])
    faulthandler.cancel_dump_traceback_later()
    print(code, repr(err.getvalue()), flush=True)
"""


def test_parallel_verify_error_never_hangs(tmp_path):
    # a worker killed by terminate() while it sent a result hung the run for
    # good, in about one run of 500 to 1000 on a 2-core Linux host
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY_LOOP, "7", *_late_bad_record_argv(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    runs = proc.stdout.splitlines()
    assert len(runs) >= 20
    assert set(runs) == {f"{EXIT_USAGE} {LATE_BAD_RECORD_ERROR!r}"}


def test_errors_survive_pickling():
    import inspect
    import pickle

    import chromacount.errors as errors

    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, Exception)]
    assert errors.Graph6ParseError in classes and errors.CapExceededError in classes
    for cls in classes:
        exc = cls("bad record", 2, 3) if cls is errors.Graph6ParseError else cls("bad record")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == str(exc)
    back = pickle.loads(pickle.dumps(errors.Graph6ParseError("bad record", 2, 3)))
    assert (back.message, back.offset, back.line) == ("bad record", 2, 3)
    assert str(back) == "line 3: bad record (byte offset 2)"
    back = pickle.loads(pickle.dumps(errors.Graph6ParseError("bad record", 2)))
    assert (back.line, str(back)) == (None, "bad record (byte offset 2)")


def test_every_input_error_is_an_invalid_parameter_error():
    # main maps InvalidParameterError to exit 64, so a new input error needs
    # no handler of its own; only a cap exceeded is not one
    import inspect

    import chromacount.errors as errors

    classes = {c for _, c in inspect.getmembers(errors, inspect.isclass) if c.__module__ == errors.__name__}
    assert {errors.Graph6ParseError, errors.UnsupportedSizeError, errors.CapExceededError} <= classes
    for cls in classes - {errors.CapExceededError}:
        assert issubclass(cls, errors.InvalidParameterError) and issubclass(cls, ValueError), cls
    assert not issubclass(errors.CapExceededError, ValueError)


def test_main_maps_two_types_to_usage_and_one_to_cap():
    import ast
    import inspect

    import chromacount.cli as cli

    tree = ast.parse(inspect.getsource(cli.main))
    handlers = [ast.unparse(h.type) for node in ast.walk(tree) if isinstance(node, ast.Try) for h in node.handlers]
    assert handlers == ["UsageError", "BrokenPipeError", "(InvalidParameterError, OSError)", "CapExceededError"]


@pytest.mark.parametrize("exc", [ValueError("a bug"), json.JSONDecodeError("a bug", "{", 1)], ids=["value", "json"])
def test_a_bug_in_a_command_is_not_a_usage_error(tmp_path, capsys, monkeypatch, exc):
    # only a reader's refusal is a usage error: any other ValueError is a
    # bug, and propagates out of main
    import chromacount.cli as cli

    def buggy(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_count", buggy)
    path = write_g6(tmp_path, "g.g6", [complete(4)])
    with pytest.raises(type(exc), match="a bug"):
        main(["count", "--graph", path, "--q", "3"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("store", [None, b'{"6:3:3:0": {"best": "42"}}'])
def test_negative_q_exits_usage_before_work(tmp_path, capsys, store):
    records = tmp_path / "records.json"
    if store is not None:
        records.write_bytes(store)
    # no count runs on these inputs, so only an early check rejects the q
    irregular = write_g6(tmp_path, "k4e.g6", [k4_minus_edge(), k4_minus_edge()])
    argvs = [
        ["verify", "--graphs", irregular, "--q", "-2"],
        ["verify", "--graphs", irregular, "--q", "-2", "--jobs", "2"],
        ["scan", "--n", "6", "--d", "3", "--q", "-1", "--eps", "1", "--records", str(records)],
        ["scan", "--n", "4", "--d", "3", "--q", "-1", "--source", "file", "--graphs", irregular, "--records", str(records)],
    ]
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "", argv
        assert captured.err == "error: q must be non-negative\n", argv
        if store is None:
            assert not records.exists(), argv
        else:
            assert records.read_bytes() == store, argv


@pytest.mark.parametrize(
    "bad, message",
    [(["--q", "-1"], "q must be non-negative"), (["--q", "3", "--eps", "2"], "eps must lie in [0, 1]")],
    ids=["q", "eps"],
)
def test_scan_checks_arguments_before_generating(capsys, monkeypatch, bad, message):
    import chromacount.cli as cli

    def family(n, d):
        raise AssertionError("the family was generated before --q and --eps were checked")
        yield

    monkeypatch.setattr(cli, "enumerate_regular", family)
    code = main(["scan", "--n", "12", "--d", "3", *bad])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == f"error: {message}\n"


def _corpus_argvs(path):
    return [
        ["verify", "--graphs", path, "--q", "3"],
        ["verify", "--graphs", path, "--q", "3", "--jobs", "2"],
        ["verify", "--graphs", path, "--target", "indsets"],
        ["count", "--graph", path, "--q", "3"],
        ["certificate", "--graph", path, "--q", "3"],
        ["scan", "--n", "4", "--d", "3", "--q", "3", "--source", "file", "--graphs", path],
        ["bounds", "--n", "4", "--d", "3", "--q", "3", "--graphs", path],
    ]


@pytest.mark.parametrize(
    "data, message",
    [
        # blank and bare header lines count: the bad record is on line 4
        (b"C~\n\n>>graph6<<\nC~~\nC\n", "error: line 4: trailing bytes after adjacency bits (byte offset 2)"),
        (b">>graph6<<C~\nC~\nD?A\n", "error: line 3: nonzero padding bits in last byte (byte offset 2)"),
        # the byte offset is within the record, not within the file
        (b"C~\n\nC\xe9~\n", "error: line 3: non-ASCII byte (byte offset 1)"),
    ],
)
def test_graph6_error_names_its_line(tmp_path, capsys, monkeypatch, data, message):
    from chromacount.cli import _records

    started = _spy_pool(monkeypatch)
    path = tmp_path / "bad.g6"
    path.write_bytes(data)
    # certificate reads no record past the second: a bad third record is
    # never parsed, and the corpus is refused as more than one graph
    bad_line = int(message.split()[2].rstrip(":"))
    past_two = [line for line, _ in _records(str(path))].index(bad_line) >= 2
    for argv in _corpus_argvs(str(path)):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "", argv
        if argv[0] == "certificate" and past_two:
            assert captured.err == "error: --graph must supply exactly one graph\n"
        else:
            assert captured.err == message + "\n", argv
    # --jobs 2 ran its records in a real pool, and said what --jobs 1 said
    assert started == [2]


def test_stdin_decodes_as_files_do(tmp_path, capsys, monkeypatch):
    import io as _io

    # stdin's own codec (here UTF-8, whatever the locale) is not used: a byte
    # that is not ASCII is named as the same bytes in a file name it.  Line 1
    # is K_4, which matches the --n/--d that scan and bounds are given.
    data = b"C~\n\xff\n"
    message = "error: line 2: non-ASCII byte (byte offset 0)\n"
    path = tmp_path / "bad.g6"
    path.write_bytes(data)
    for argv in _corpus_argvs("-"):
        monkeypatch.setattr("sys.stdin", _io.TextIOWrapper(_io.BytesIO(data), encoding="utf-8"))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "", argv
        assert captured.err == message, argv
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONIOENCODING="utf-8")
    for source in ("-", str(path)):
        proc = subprocess.run(
            [sys.executable, "-m", "chromacount.cli", "verify", "--graphs", source, "--q", "3"],
            input=data, env=env, capture_output=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_USAGE, b"", message.encode()), source


def test_records_split_lines_as_splitlines_does():
    # the lazy split of _records against the list that str.splitlines() cut:
    # the same (line, record) pairs, from stdin (no newline translation) and
    # from a file
    import io as _io
    import tempfile
    from unittest import mock

    import chromacount.cli as cli

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    breaks = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e"]
    pieces = st.sampled_from(breaks + [">>graph6<<", " ", "\t", "\x1f", "\xff"]) | st.text(st.characters(min_codepoint=63, max_codepoint=126), max_size=8)

    def expected(text):
        stripped = (line.strip().removeprefix(">>graph6<<").strip() for line in text.splitlines())
        return [(line, record) for line, record in enumerate(stripped, 1) if record]

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.lists(pieces, max_size=30))
    def check(parts):
        data = "".join(parts).encode("latin-1")
        text = data.decode("ascii", "surrogateescape")
        with mock.patch.object(sys, "stdin", _io.TextIOWrapper(_io.BytesIO(data))):
            assert list(cli._records("-")) == expected(text)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus.g6")
            with open(path, "wb") as fh:
                fh.write(data)
            with open(path, encoding="ascii", errors="surrogateescape") as fh:
                assert list(cli._records(path)) == expected(fh.read())

    check()


def test_records_reads_lazily(monkeypatch):
    import io as _io

    import chromacount.cli as cli

    data = _io.BytesIO(b"C~\n" * 1000)
    monkeypatch.setattr("sys.stdin", _io.TextIOWrapper(data))
    assert next(cli._records("-")) == (1, "C~")
    assert data.tell() == 3


def _cli(argv, flags=(), **kwargs):
    """One run of the CLI in a new interpreter; stdout and stderr are
    captured unless given."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *flags, "-m", "chromacount.cli", *argv], env=env, timeout=60, **streams)


def test_closed_stdin_exits_usage():
    proc = _cli(["count", "--graph", "-", "--q", "3"], preexec_fn=lambda: os.close(0))
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_USAGE, b"", b"error: stdin is closed\n")


def test_closed_stdout_exits_usage_before_work(tmp_path):
    # the corpus is malformed, so only a check made before the work names stdout
    path = tmp_path / "bad.g6"
    path.write_bytes(b"C\n")
    proc = _cli(["count", "--graph", str(path), "--q", "3"], preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (EXIT_USAGE, b"error: stdout is closed\n")


@pytest.mark.parametrize("argv", [["count", "--q", "3", "--graph"], ["verify", "--target", "indsets", "--graphs"]], ids=["count", "verify"])
def test_broken_stdout_pipe_exits_usage(tmp_path, argv):
    # a pipe whose read end is closed before the run: every write breaks it
    path = write_g6(tmp_path, "cubic.g6", regular_family(10, 3))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli(argv + [path], stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_USAGE, b"error: stdout is closed (broken pipe)\n")


@pytest.mark.parametrize("source", ["good", "bad", "stdin"])
def test_corpus_commands_run_clean_in_dev_mode(tmp_path, source):
    # -X dev -W error turns a corpus file left open (ResourceWarning) into an
    # error, on every exit path
    good = write_g6(tmp_path, "k33.g6", [complete_bipartite(3, 3)])
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"EFz_\nC\n")
    path = {"good": good, "bad": str(bad), "stdin": "-"}[source]
    argvs = [
        ["count", "--graph", path, "--q", "3"],
        ["verify", "--graphs", path, "--q", "3"],
        ["verify", "--graphs", path, "--q", "3", "--jobs", "2"],
        ["scan", "--n", "6", "--d", "3", "--q", "3", "--source", "file", "--graphs", path],
        ["bounds", "--n", "6", "--d", "3", "--q", "3", "--graphs", path],
        ["certificate", "--graph", path, "--q", "3"],
    ]
    if source == "bad":
        expected = (EXIT_USAGE, b"error: line 2: truncated adjacency bits (need 1 bytes, got 0) (byte offset 1)\n")
    else:
        expected = (EXIT_OK, b"")
    for argv in argvs:
        proc = _cli(argv, ["-X", "dev", "-W", "error"], input=b"EFz_\n")
        assert (proc.returncode, proc.stderr) == expected, argv


def test_scan_file_checks_arguments_before_parsing(tmp_path, capsys, monkeypatch):
    import chromacount.cli as cli

    def parse(record):
        raise AssertionError("a record was parsed before --q and --eps were checked")

    monkeypatch.setattr(cli, "parse_graph6", parse)
    path = write_g6(tmp_path, "cubic.g6", regular_family(8, 3))
    for bad, message in ((["--q", "-1"], "q must be non-negative"), (["--q", "3", "--eps", "2"], "eps must lie in [0, 1]")):
        code = main(["scan", "--n", "8", "--d", "3", "--source", "file", "--graphs", path, *bad])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--n", "10", "--d", "3", "--q", "3", "--source", "file", "--graphs"],
        # Petersen's 2-colourings fit one state, so alpha is what goes over
        ["bounds", "--n", "10", "--d", "3", "--q", "2", "--graphs"],
        ["certificate", "--q", "3", "--indset", "auto", "--graph"],
    ],
    ids=["scan", "bounds", "certificate"],
)
def test_alpha_over_state_cap_exits_cap(tmp_path, capsys, monkeypatch, argv):
    import chromacount.counting as counting

    monkeypatch.setattr(counting, "DEFAULT_STATE_CAP", 3)
    path = write_g6(tmp_path, "petersen.g6", [petersen()])
    code = main(argv + [path])
    captured = capsys.readouterr()
    assert code == EXIT_CAP and captured.out == ""
    assert captured.err == "error: frontier pass exceeds state cap 3 at vertex 3 of 10\n"


def _one_graph(tmp_path):
    return write_g6(tmp_path, "g.g6", [complete_bipartite(3, 3)])


COMMAND_INPUT_ERRORS = {
    "verify-unknown-target": (
        lambda tmp_path: ["verify", "--graphs", _one_graph(tmp_path), "--target", "nope"],
        "error: unknown target 'nope'",
    ),
    "verify-without-q": (
        lambda tmp_path: ["verify", "--graphs", _one_graph(tmp_path)],
        "error: --q is required for --target colorings",
    ),
    "certificate-two-graphs": (
        lambda tmp_path: ["certificate", "--graph", write_g6(tmp_path, "two.g6", [cycle(5), cycle(6)]), "--q", "3"],
        "error: --graph must supply exactly one graph",
    ),
    "certificate-irregular": (
        lambda tmp_path: ["certificate", "--graph", write_g6(tmp_path, "k4e.g6", [k4_minus_edge()]), "--q", "3"],
        "error: certificate requires a d-regular graph with d >= 2",
    ),
    "certificate-indset-not-numeric": (
        lambda tmp_path: ["certificate", "--graph", _one_graph(tmp_path), "--q", "3", "--indset", "0,x"],
        "error: --indset must be a comma-separated vertex list or 'auto'",
    ),
    "certificate-indset-out-of-range": (
        lambda tmp_path: ["certificate", "--graph", _one_graph(tmp_path), "--q", "3", "--indset", "0,6"],
        "error: --indset vertices out of range",
    ),
    "certificate-indset-empty": (
        lambda tmp_path: ["certificate", "--graph", _one_graph(tmp_path), "--q", "3", "--indset", ","],
        "error: --indset names no vertex",
    ),
    "scan-file-of-other-n-d": (
        lambda tmp_path: ["scan", "--n", "6", "--d", "2", "--q", "3", "--source", "file", "--graphs", write_g6(tmp_path, "k4.g6", [complete(4)])],
        "error: line 1: graph (4,3) does not match --n/--d (6,2)",
    ),
    "scan-file-without-graphs": (
        lambda tmp_path: ["scan", "--n", "6", "--d", "3", "--q", "3", "--source", "file"],
        "error: --source file requires --graphs",
    ),
    "argparse-usage": (
        lambda tmp_path: ["verify"],
        "usage error: the following arguments are required: --graphs",
    ),
}


@pytest.mark.parametrize("case", sorted(COMMAND_INPUT_ERRORS))
def test_command_input_error_is_one_line(tmp_path, capsys, case):
    argv, message = COMMAND_INPUT_ERRORS[case]
    code = main(argv(tmp_path))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == message + "\n"


def test_certificate_parses_at_most_two_records(tmp_path, capsys, monkeypatch):
    import chromacount.cli as cli

    parsed = []
    monkeypatch.setattr(cli, "parse_graph6", lambda record, real=cli.parse_graph6: parsed.append(record) or real(record))
    # line 3 is malformed, but two good records already make the corpus
    # more than one graph
    path = tmp_path / "three.g6"
    path.write_bytes(b"C~\nC~\nC\n")
    code = main(["certificate", "--graph", str(path), "--q", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_USAGE, "", "error: --graph must supply exactly one graph\n")
    assert parsed == ["C~", "C~"]


def test_scan_file_refuses_each_graph_of_other_n_d_as_it_is_parsed(tmp_path, capsys):
    records = tmp_path / "records.json"
    path = tmp_path / "k4.g6"
    # line 2 is malformed: line 1 is refused before line 2 is read
    path.write_bytes(b"C~\nC\n")
    for n, d in (("6", "2"), ("4", "2"), ("6", "3")):
        argv = ["scan", "--n", n, "--d", d, "--q", "3", "--source", "file", "--graphs", str(path), "--records", str(records)]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, ""), argv
        assert captured.err == f"error: line 1: graph (4,3) does not match --n/--d ({n},{d})\n", argv
        assert not records.exists()
    # a graph that is not regular (line 2; line 1 matches) is refused the
    # same way, with no degree
    irregular = write_g6(tmp_path, "k4e.g6", [cycle(4), k4_minus_edge()])
    code = main(["scan", "--n", "4", "--d", "2", "--q", "3", "--source", "file", "--graphs", irregular])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_USAGE, "", "error: line 2: graph (4,None) does not match --n/--d (4,2)\n")


@pytest.mark.parametrize("eps", [-0.1, 1.5])
def test_eps_outside_unit_interval_rejected_alike(capsys, eps):
    from chromacount import constrained_scan, explicit_weak_bound
    from chromacount.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError, match=r"eps must lie in \[0, 1\]"):
        constrained_scan(regular_family(6, 3), 3, eps)
    with pytest.raises(InvalidParameterError, match=r"eps must lie in \[0, 1\]"):
        explicit_weak_bound(10, 3, 3, eps)
    # bounds computes no weak bound at q = 2, but checks eps all the same
    for q in ("2", "3"):
        code = main(["bounds", "--n", "10", "--d", "3", "--q", q, "--eps", str(eps)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == "error: eps must lie in [0, 1]\n"


@pytest.mark.parametrize(
    "argv",
    [["scan", "--n", "6", "--d", "3", "--q", "3", "--eps", "abc"], ["bounds", "--n", "10", "--d", "3", "--q", "3", "--eps", "nan"]],
)
def test_eps_not_a_number_exits_usage(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "is not a number" in captured.err


def test_version_is_defined_once(capsys):
    import chromacount

    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{chromacount.__version__}\n"
    assert chromacount.__version__ == declared


def test_test_extra_names_every_oracle():
    # a test skipped for a missing oracle says so only in the skip list, so
    # the test extra installs every package the tests import on demand
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    from pathlib import Path

    sources = "".join(path.read_text(encoding="utf-8") for path in Path(ROOT, "tests").glob("*.py"))
    oracles = set(re.findall(r'importorskip\("(\w+)"\)', sources)) - sys.stdlib_module_names
    assert oracles == {"hypothesis", "networkx"}
    assert project["dependencies"] == []
    assert oracles <= set(project["optional-dependencies"]["test"])


def test_cli_import_leaves_multiprocessing_unloaded():
    # only verify --jobs N imports it, when it starts its pool
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, chromacount.cli; print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "False\n"


def test_cli_runs_on_the_standard_library_alone(tmp_path):
    # -S loads no site-packages, so an import of a third-party module fails
    g6 = write_g6(tmp_path, "k33.g6", [complete_bipartite(3, 3)])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    commands = [
        ["count", "--graph", g6, "--q", "3"],
        ["verify", "--graphs", g6, "--q", "3"],
        ["verify", "--graphs", g6, "--target", "indsets"],
        ["scan", "--n", "6", "--d", "3", "--q", "3"],
        ["bounds", "--n", "6", "--d", "3", "--q", "3", "--graphs", g6],
        ["certificate", "--graph", g6, "--q", "3"],
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "chromacount.cli"] + argv,
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK, (argv, proc.stderr)


def test_scan_graphs_alone_scans_the_file(tmp_path, capsys):
    # --graphs without --source reads the file, not the generated family
    path = write_g6(tmp_path, "k33.g6", [complete_bipartite(3, 3)])
    explicit = run(capsys, ["scan", "--n", "6", "--d", "3", "--q", "3", "--source", "file", "--graphs", path])
    assert run(capsys, ["scan", "--n", "6", "--d", "3", "--q", "3", "--graphs", path]) == explicit
    assert json_lines(explicit[1])[-1]["family_size"] == 1
    missing = str(tmp_path / "missing.g6")
    code = main(["scan", "--n", "4", "--d", "3", "--q", "3", "--graphs", missing])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_scan_source_gen_with_graphs_exits_usage(tmp_path, capsys):
    path = write_g6(tmp_path, "k4.g6", [complete(4)])
    code = main(["scan", "--n", "4", "--d", "3", "--q", "3", "--source", "gen", "--graphs", path])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_USAGE, "", "error: --source gen takes no --graphs\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--n", "6", "--d", "3", "--q", "3", "--eps", "1e-5000"],
        ["scan", "--n", "6", "--d", "3", "--q", "3", "--eps", "1e-100000000"],
        ["bounds", "--n", "10", "--d", "3", "--q", "3", "--eps", "1e-1000000000"],
    ],
    ids=["scan-too-long-to-print", "scan-exponent-1e8", "bounds-exponent-1e9"],
)
def test_eps_with_too_many_digits_exits_usage_at_once(argv):
    # 1e-5000 once ended in a traceback from str(eps); the larger exponents
    # built 10**(10^8) or more and did not end
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "chromacount.cli", *argv], env=env, capture_output=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, b"")
    assert re.fullmatch(rb"error: eps would need integers of more than \d+ digits\n", proc.stderr)


def test_eps_at_the_digit_limit_is_kept(capsys):
    # 10**4299 has 4,300 digits, which the limit still prints
    code, out = run(capsys, ["scan", "--n", "6", "--d", "3", "--q", "3", "--eps", "1e-4299"])
    assert code == EXIT_OK
    assert json_lines(out)[-1]["eps"] == "1/1" + "0" * 4299


def test_target_over_node_cap_exits_cap_before_it_is_built(tmp_path):
    # K_q at q = 10^20 or a target of 10^14 vertices cannot be built; each
    # is over the search-node cap at the first vertex
    limit = 1 << 30
    in_1_gib = dict(preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    k4 = write_g6(tmp_path, "k4.g6", [complete(4)])
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    hfile = tmp_path / "h.json"
    hfile.write_text(json.dumps({"k": 10**14, "edges": []}))
    for argv in (
        ["count", "--graph", k4, "--q", str(10**20), "--method", "backtrack"],
        ["verify", "--graphs", k4, "--target", f"hom:{hfile}"],
        # the target is refused as it is read, graph or no graph
        ["verify", "--graphs", str(empty), "--target", f"hom:{hfile}"],
    ):
        proc = _cli(argv, **in_1_gib)
        assert (proc.returncode, proc.stdout) == (EXIT_CAP, b""), argv
        assert proc.stderr == b"error: homomorphism backtracking exceeds search-node cap 100000000\n", argv


def test_verify_hom_edgeless_target_of_65536_vertices(tmp_path):
    # no vertex of the target has a neighbour, so neither walk of the
    # references visits a set
    k4 = write_g6(tmp_path, "k4.g6", [complete(4)])
    hfile = tmp_path / "h.json"
    hfile.write_text(json.dumps({"k": 2**16, "edges": []}))
    start = time.perf_counter()
    proc = _cli(["verify", "--graphs", k4, "--target", f"hom:{hfile}"])
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    verdict = json.loads(proc.stdout.splitlines()[0])
    assert [(c["lhs_base"], c["rhs_base"]) for c in verdict["comparisons"]] == [("0", "0"), ("0", "0")]
    assert verdict["holds"] and verdict["equality"]


def test_hom_target_over_the_bit_cap_exits_cap_before_it_is_built(tmp_path):
    # k rows of k bits: past 2^32 bits the target is refused as it is read
    limit = 1 << 30
    in_1_gib = dict(preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    hfile = tmp_path / "h.json"
    argv = ["verify", "--graphs", str(empty), "--target", f"hom:{hfile}"]
    for k in (2**16 + 1, 10**6, 10**8):
        hfile.write_text(json.dumps({"k": k, "edges": []}))
        start = time.perf_counter()
        proc = _cli(argv, **in_1_gib)
        assert time.perf_counter() - start < 5, k
        assert (proc.returncode, proc.stdout) == (EXIT_CAP, b""), k
        assert proc.stderr == f"error: hom target of {k} vertices needs {k * k} adjacency bits, over the cap of 4294967296 bits\n".encode(), k
    # the largest target under the cap is built and loads
    hfile.write_text(json.dumps({"k": 2**16, "edges": [[0, 2**16 - 1]]}))
    proc = _cli(argv, **in_1_gib)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert json.loads(proc.stdout)["total"] == 0


def test_readme_cli_usage_shows_every_choice():
    from chromacount.cli import _build_parser

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    usage = {line.split()[1]: line for line in block.splitlines() if line.startswith("chromacount ")}
    (sub,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(usage) == sorted(sub.choices)
    for name, parser in sub.choices.items():
        for action in parser._actions:
            if action.choices:
                option = f"[{action.option_strings[0]} {'|'.join(action.choices)}]"
                assert option in usage[name], (name, option)


def test_records_store_keeps_the_least_tied_argmax(tmp_path, capsys):
    from chromacount.graphs import relabel

    # two labelings of K_{3,3}: the same count under different graph6
    k33 = complete_bipartite(3, 3)
    labelings = {write_graph6(g): g for g in (k33, relabel(k33, [0, 3, 1, 4, 2, 5]))}
    assert len(labelings) == 2
    # the least graph6 first
    files = [write_g6(tmp_path, f"{i}.g6", [labelings[g6]]) for i, g6 in enumerate(sorted(labelings))]
    stores = []
    for order in (files, files[::-1]):
        store = tmp_path / f"store-{len(stores)}.json"
        improved = []
        for path in order:
            code, out = run(capsys, ["scan", "--n", "6", "--d", "3", "--q", "3", "--graphs", path, "--records", str(store)])
            assert code == EXIT_OK
            improved.append(json_lines(out)[-1]["record_improved"])
        # the lesser graph6 replaces the greater, and nothing replaces it
        assert improved == ([True, False] if order == files else [True, True])
        stored = json.loads(store.read_text())
        assert stored["6:3:3:0"]["argmax"] == min(labelings)
        stored["6:3:3:0"]["updated"] = None
        stores.append(json.dumps(stored, indent=2, sort_keys=True))
    assert stores[0] == stores[1]


def test_reports_name_each_graph_by_its_record_as_read(tmp_path, capsys, monkeypatch):
    import csv

    import chromacount.cli as cli
    import chromacount.verdicts as verdicts

    # a header line, a record behind the header, CRLF endings and blanks
    # around the records; k4_minus_edge is not regular, so verify skips it
    k4, k33, c5, skip = (write_graph6(g) for g in (complete(4), complete_bipartite(3, 3), cycle(5), k4_minus_edge()))
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(f">>graph6<<\r\n  {k4}\t\r\n\r\n>>graph6<<{k33}\r\n {c5} \r\n\t>>graph6<< {skip}\r\n".encode())
    one = tmp_path / "one.g6"
    one.write_bytes(f">>graph6<<\r\n  >>graph6<<{k33} \r\n\r\n".encode())
    records = sorted([k4, k33, c5, skip])

    # the record read is the report's text: nothing is written anew
    def not_called(g):
        raise AssertionError("a read graph was written anew")

    monkeypatch.setattr(cli, "write_graph6", not_called)
    monkeypatch.setattr(verdicts, "write_graph6", not_called)

    def first_column(out, fmt):
        if fmt == "json":
            return sorted(r["graph6"] for r in json_lines(out) if "graph6" in r)
        if fmt == "csv":
            return sorted(row[0] for row in list(csv.reader(out.splitlines()))[1:])
        return sorted(line.split()[0] for line in out.splitlines())

    for jobs in ("1", "2"):
        for fmt in ("json", "csv"):
            code, out = run(capsys, ["verify", "--graphs", str(corpus), "--target", "indsets", "--jobs", jobs, "--format", fmt])
            assert code == EXIT_OK
            # csv has no line for a skipped record
            assert first_column(out, fmt) == (records if fmt == "json" else sorted([k4, k33, c5])), (jobs, fmt)
    for fmt in ("json", "csv", "text"):
        code, out = run(capsys, ["count", "--graph", str(corpus), "--q", "3", "--format", fmt])
        assert code == EXIT_OK
        assert first_column(out, fmt) == records, fmt
    code, out = run(capsys, ["bounds", "--n", "6", "--d", "3", "--q", "3", "--graphs", str(corpus)])
    assert code == EXIT_OK
    assert first_column(out, "json") == records
    code, out = run(capsys, ["certificate", "--graph", str(one), "--q", "3"])
    assert json_lines(out)[0]["graph6"] == k33


def test_count_backtrack_past_the_node_cap_exits_before_k_q_is_built(tmp_path):
    # with n >= 2 the second vertex has at most one earlier neighbour, so the
    # search charges q + q(q - 1) = q^2 nodes: q = 10^5 cannot finish, and
    # K_q alone would need more than 1 GiB
    limit = 1 << 30
    in_1_gib = dict(preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    k4 = write_g6(tmp_path, "k4.g6", [complete(4)])
    for method in ("backtrack", "both"):
        proc = _cli(["count", "--graph", k4, "--q", str(10**5), "--method", method], **in_1_gib)
        assert (proc.returncode, proc.stdout) == (EXIT_CAP, b""), method
        assert proc.stderr == b"error: homomorphism backtracking exceeds search-node cap 100000000\n", method
