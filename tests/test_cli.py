import gc
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from chromacount import complete, complete_bipartite, cycle, disjoint_copies, write_graph6
from chromacount.cli import EXIT_CAP, EXIT_CROSSCHECK, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main

from helpers import k4_minus_edge, petersen, regular_family

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


def test_count_cap(tmp_path, capsys):
    from chromacount.graphs import Graph

    path = write_g6(tmp_path, "big.g6", [Graph(16, (0,) * 16)])
    code, _ = run(capsys, ["count", "--graph", path, "--q", "3", "--method", "polynomial"])
    assert code == EXIT_CAP


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


def test_verify_jobs_deterministic(tmp_path, capsys):
    graphs = [g for n in (4, 6, 8) for g in regular_family(n, 3)]
    path = write_g6(tmp_path, "cubic.g6", graphs)
    _, out1 = run(capsys, ["verify", "--graphs", path, "--q", "3"])
    _, out2 = run(capsys, ["verify", "--graphs", path, "--q", "3", "--jobs", "2"])
    assert out1 == out2


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


def test_verify_failure_writes_counterexample_bundle(tmp_path, capsys, monkeypatch):
    import chromacount.cli as cli
    from chromacount.verdicts import PowerComparison, Verdict

    def always_fails(g, q):
        g6 = write_graph6(g)
        cmp = PowerComparison(7, 2, 3, 2, False, False, -2.44)
        return Verdict(g6, f"colorings q={q}", (cmp,), False, False, -2.44)

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

    monkeypatch.setattr("sys.stdin", _io.StringIO("C~\n"))
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


def test_bounds_domain_error(capsys):
    code, _ = run(capsys, ["bounds", "--n", "2", "--d", "3", "--q", "3"])
    assert code == EXIT_USAGE


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
    import chromacount.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli.multiprocessing, "Pool", no_pool)
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


def test_parallel_verify_rejects_malformed_line_before_pool(tmp_path, capsys, monkeypatch):
    import chromacount.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli.multiprocessing, "Pool", no_pool)
    path = tmp_path / "bad.g6"
    path.write_text(write_graph6(complete(4)) + "\nC\n" + write_graph6(cycle(5)) + "\n")
    code = main(["verify", "--graphs", str(path), "--q", "3", "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


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
    import chromacount.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli.multiprocessing, "Pool", no_pool)
    path = tmp_path / "bad.g6"
    path.write_bytes(data)
    for argv in _corpus_argvs(str(path)):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "", argv
        assert captured.err == message + "\n", argv


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
