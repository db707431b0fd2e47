"""Command-line surface.

Subcommands: count, verify, certificate, scan, bounds.  Reports are JSON
lines on stdout (or --out); `count` also speaks csv and plain text.  Exit
codes are a stable contract: 0 ok, 2 internal cross-check mismatch, 3
mathematical violation found, 64 usage error, 65 cap exceeded.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import multiprocessing
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import __version__, counting
from .certificates import build_certificate, explicit_weak_bound, phi, verify_certificate
from .counting import independence_number, maximum_independent_set
from .errors import CapExceededError, Graph6ParseError, InvalidParameterError, NotRegularError, UnsupportedSizeError
from .graphs import (
    Graph,
    TargetGraph,
    classify,
    enumerate_regular,
    mask_of,
    parse_graph6,
    target_from_edges,
    vertices_of,
    write_graph6,
)
from .kdd import eta, m_count
from .records import RecordStore
from .verdicts import Verdict, _eps_fraction, alon_kahn_verdict, alpha_admitted, conjecture_verdict, constrained_scan, hom_conjecture_verdict, reference_bound

EXIT_OK = 0
EXIT_CROSSCHECK = 2
EXIT_VIOLATION = 3
EXIT_USAGE = 64
EXIT_CAP = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract wants 64
    def error(self, message):
        raise UsageError(message)


def _read_text_lines(path: str) -> list[str]:
    # a byte that is not ASCII is kept (as a lone surrogate), so that
    # parse_graph6 rejects it with the record's line
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            text = fh.read()
    return text.splitlines()


def _graph_lines(text_lines: list[str]) -> list[str]:
    # the graph6 records: blank lines and a bare >>graph6<< header are skipped
    lines = []
    for line in text_lines:
        line = line.strip()
        if not line or line.startswith(">>graph6<<"):
            line = line.removeprefix(">>graph6<<").strip()
            if not line:
                continue
        lines.append(line)
    return lines


@contextmanager
def _line_numbers(text_lines: list[str]):
    """Name the 1-based line of a graph6 error raised while the records of
    `text_lines` are parsed in file order: the first record that fails to
    parse is then the one that raised, so only the error path numbers lines."""
    try:
        yield
    except Graph6ParseError:
        for number, text in enumerate(text_lines, 1):
            for line in _graph_lines([text]):
                try:
                    parse_graph6(line)
                except Graph6ParseError as exc:
                    raise Graph6ParseError(exc.message, exc.offset, number) from None
        raise


def _read_graphs(path: str) -> list[Graph]:
    text_lines = _read_text_lines(path)
    with _line_numbers(text_lines):
        return [parse_graph6(line) for line in _graph_lines(text_lines)]


def _load_target(path: str) -> TargetGraph:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return target_from_edges(data["k"], [tuple(e) for e in data["edges"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f'hom target {path} is not {{"k": K, "edges": [[u, v], ...]}}: {exc}') from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _write(text: str, out: str | None) -> None:
    """The one output writer: the whole report to --out, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(records: list[dict], out: str | None) -> None:
    _write("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), out)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    graphs = _read_graphs(args.graph)
    records = []
    mismatch = False
    for g in graphs:
        rec = {
            "type": "count",
            "graph6": write_graph6(g),
            "n": g.n,
            "d": classify(g).degree,
            "q": args.q,
            "method": args.method,
        }
        if args.method == "both":
            back = counting.count_colorings(g, args.q, "backtrack")
            poly = counting.count_colorings(g, args.q, "polynomial")
            rec["value"] = str(back)
            rec["polynomial_value"] = str(poly)
            rec["cross_check"] = "ok" if back == poly else "mismatch"
            if back != poly:
                mismatch = True
        else:
            rec["value"] = str(counting.count_colorings(g, args.q, args.method))
        records.append(rec)
    if args.format == "json":
        _emit(records, args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["graph6", "n", "q", "method", "value"])
        for rec in records:
            writer.writerow([rec["graph6"], rec["n"], rec["q"], rec["method"], rec["value"]])
        _write(buf.getvalue(), args.out)
    else:
        _write("".join(f"{rec['graph6']} q={rec['q']} {rec['value']}\n" for rec in records), args.out)
    return EXIT_CROSSCHECK if mismatch else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verdict_record(v: Verdict, n: int, d: int, q: int | None) -> dict:
    return {
        "type": "verdict",
        "graph6": v.graph6,
        "n": n,
        "d": d,
        "q": q,
        "target": v.target,
        "holds": v.holds,
        "equality": v.equality,
        "slack_log2": None if math.isinf(v.slack_log2) else v.slack_log2,
        "comparisons": [
            {
                "lhs_base": str(c.lhs_base),
                "lhs_exp": c.lhs_exp,
                "rhs_base": str(c.rhs_base),
                "rhs_exp": c.rhs_exp,
                "holds": c.holds,
                "equality": c.equality,
            }
            for c in v.comparisons
        ],
    }


def _verify_one(task) -> dict:
    line, q, target, h = task
    g = parse_graph6(line)
    try:
        if target == "colorings":
            v = conjecture_verdict(g, q)
        elif target == "indsets":
            v = alon_kahn_verdict(g)
        else:
            v = hom_conjecture_verdict(g, h)
    except NotRegularError:
        return {"type": "skipped", "graph6": line, "n": g.n, "reason": "not regular with d >= 2"}
    # the verdict has checked that g is regular, so vertex 0 has degree d
    return _verdict_record(v, g.n, g.degree(0), q if target == "colorings" else None)


def cmd_verify(args) -> int:
    text_lines = _read_text_lines(args.graphs)
    lines = _graph_lines(text_lines)
    target = args.target
    h = None
    if target.startswith("hom:"):
        h = _load_target(target[4:])
        target = "hom"
    elif target not in ("colorings", "indsets"):
        raise InvalidParameterError(f"unknown target {target!r}")
    if target == "colorings" and args.q is None:
        raise InvalidParameterError("--q is required for --target colorings")

    tasks = [(line, args.q, target, h) for line in lines]
    with _line_numbers(text_lines):
        if args.jobs > 1 and len(tasks) > 1:
            # a Graph6ParseError raised in a worker does not survive pickling,
            # and pool.map reports whichever failure arrives first: parse every
            # line here, in input order, before any worker starts
            for line in lines:
                parse_graph6(line)
            with multiprocessing.Pool(args.jobs) as pool:
                results = pool.map(_verify_one, tasks)
        else:
            results = [_verify_one(t) for t in tasks]
    results.sort(key=lambda r: r["graph6"])

    failures = [r for r in results if r["type"] == "verdict" and not r["holds"]]
    if failures:
        # counterexamples are the most valuable output: write them first
        bundle = (args.out + ".counterexamples.json") if args.out else "counterexamples.json"
        with open(bundle, "w", encoding="utf-8") as fh:
            json.dump(failures, fh, indent=2, sort_keys=True)
    summary = {
        "type": "summary",
        "total": len(results),
        "verdicts": sum(1 for r in results if r["type"] == "verdict"),
        "holds": sum(1 for r in results if r["type"] == "verdict" and r["holds"]),
        "equality": sum(1 for r in results if r["type"] == "verdict" and r["equality"]),
        "failures": len(failures),
        "skipped": sum(1 for r in results if r["type"] == "skipped"),
    }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["graph6", "n", "d", "q", "target", "holds", "equality", "slack_log2"])
        for r in results:
            if r["type"] == "verdict":
                writer.writerow([r["graph6"], r["n"], r["d"], r["q"], r["target"], r["holds"], r["equality"], r["slack_log2"]])
        _write(buf.getvalue(), args.out)
    else:
        _emit(results + [summary], args.out)
    return EXIT_VIOLATION if failures else EXIT_OK


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

def cmd_certificate(args) -> int:
    graphs = _read_graphs(args.graph)
    if len(graphs) != 1:
        raise InvalidParameterError("--graph must supply exactly one graph")
    g = graphs[0]
    cls = classify(g)
    if cls.degree is None or cls.degree < 2:
        raise InvalidParameterError("certificate requires a d-regular graph with d >= 2")
    if args.indset == "auto":
        indset = mask_of(maximum_independent_set(g))
    else:
        try:
            verts = [int(tok) for tok in args.indset.split(",") if tok.strip() != ""]
        except ValueError:
            raise InvalidParameterError("--indset must be a comma-separated vertex list or 'auto'") from None
        if not verts:
            raise InvalidParameterError("--indset names no vertex")
        if any(not 0 <= v < g.n for v in verts):
            raise InvalidParameterError("--indset vertices out of range")
        indset = mask_of(verts)
    p = phi(cls.degree, args.q)
    cert = build_certificate(g, indset, p)
    report = verify_certificate(g, cert)
    rec = {
        "type": "certificate",
        "graph6": write_graph6(g),
        "n": g.n,
        "d": cls.degree,
        "q": args.q,
        "phi": p,
        "indset": vertices_of(cert.source_mask),
        "t": vertices_of(cert.t_mask),
        "d_set": vertices_of(cert.d_mask),
        "trace": [[u, gain] for u, gain in cert.trace],
        "checks": [{"name": c.name, "pass": c.passed, "slack": c.slack} for c in report.checks],
        "passed": report.passed,
    }
    _emit([rec], args.out)
    return EXIT_OK if report.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    if args.source == "gen":
        family = list(enumerate_regular(args.n, args.d))
    else:
        if not args.graphs:
            raise InvalidParameterError("--source file requires --graphs")
        family = _read_graphs(args.graphs)
    result = constrained_scan(family, args.q, args.eps)
    n_val = result.n if family else args.n
    d_val = result.d if family else args.d
    records = [
        {"type": "scan-row", "graph6": r.graph6, "n": result.n, "d": result.d, "q": args.q, "alpha": r.alpha, "value": str(r.count)}
        for r in result.rows
    ]
    records.append(
        {
            "type": "scan-max",
            "n": n_val,
            "d": d_val,
            "q": args.q,
            "eps": str(result.eps),
            "family_size": len(family),
            "filtered": len(result.rows),
            "max": str(result.max_count),
            "argmax": result.argmax,
        }
    )
    if args.records:
        store = RecordStore(args.records, __version__)
        improved = store.update(n_val, d_val, args.q, str(result.eps), result.max_count, result.argmax)
        store.save()
        records[-1]["record_improved"] = improved
    _emit(records, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _log2(x) -> float | None:
    if x is None or x <= 0:
        return None
    if isinstance(x, Fraction):
        return math.log2(x.numerator) - math.log2(x.denominator)
    return math.log2(x)


def cmd_bounds(args) -> int:
    eps = None if args.eps is None else _eps_fraction(args.eps)
    ref = reference_bound(args.n, args.d, args.q)
    weak = explicit_weak_bound(args.n, args.d, args.q) if args.q >= 3 else None
    weak_eps = explicit_weak_bound(args.n, args.d, args.q, eps) if (weak is not None and eps is not None) else None
    head = {
        "type": "bounds",
        "n": args.n,
        "d": args.d,
        "q": args.q,
        "eps": args.eps,
        "reference_base": str(ref.base),
        "reference_exp": [ref.exp_num, ref.exp_den],
        "reference_log2": _log2(Fraction(ref.base)) * ref.exp_num / ref.exp_den if ref.base else None,
        "idealized_log2": math.log2(eta(args.q)) * args.n / 2 + math.log2(m_count(args.q)) * args.n / (2 * args.d),
        "eta_pow_log2": math.log2(eta(args.q)) * args.n / 2,
        "weak_bound_log2": _log2(weak),
        "weak_bound_eps_log2": _log2(weak_eps),
    }
    records = [head]
    violation = False
    if args.graphs:
        for g in _read_graphs(args.graphs):
            cls = classify(g)
            row = {"type": "bounds-row", "graph6": write_graph6(g), "n": g.n, "d": cls.degree, "q": args.q}
            if cls.degree != args.d or g.n != args.n:
                row["skipped"] = "does not match --n/--d"
                records.append(row)
                continue
            exact = counting.count_colorings(g, args.q)
            row["exact"] = str(exact)
            row["alpha"] = independence_number(g)
            if weak is not None:
                ok = Fraction(exact) <= weak
                row["below_weak_bound"] = ok
                violation = violation or not ok
            if weak_eps is not None:
                if alpha_admitted(row["alpha"], g.n, eps):
                    ok = Fraction(exact) <= weak_eps
                    row["below_weak_bound_eps"] = ok
                    violation = violation or not ok
            records.append(row)
    _emit(records, args.out)
    return EXIT_VIOLATION if violation else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chromacount", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact coloring counts for graph6 input")
    p.add_argument("--graph", required=True, help="graph6 file, or - for stdin")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--method", choices=["backtrack", "polynomial", "both"], default="backtrack")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="batch verdicts against the K_{d,d} reference")
    p.add_argument("--graphs", required=True, help="graph6 file, or - for stdin")
    p.add_argument("--q", type=int)
    p.add_argument("--target", default="colorings", help="colorings | indsets | hom:H-file")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certificate", help="greedy container certificate for one graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--indset", default="auto", help="comma-separated vertices, or auto")
    p.add_argument("--out")
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("scan", help="constrained maximum of c_q over a family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eps", default="0")
    p.add_argument("--source", choices=["gen", "file"], default="gen")
    p.add_argument("--graphs", help="graph6 file for --source file")
    p.add_argument("--records", help="path of the persistent best-known store")
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bounds", help="reference and explicit weak bounds side by side")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eps")
    p.add_argument("--graphs", help="optional graph6 file for exact columns")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    # bad arguments and malformed input: graph6, JSON of a hom target or of a
    # records store, bytes that do not decode
    except (
        InvalidParameterError,
        Graph6ParseError,
        UnsupportedSizeError,
        FileNotFoundError,
        json.JSONDecodeError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
