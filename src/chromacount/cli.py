"""Command-line surface.

Subcommands: count, verify, certificate, scan, bounds.  Reports are JSON
lines on stdout (or --out); `count` also speaks csv and plain text.  Exit
codes are a stable contract: 0 ok, 2 internal cross-check mismatch, 3
mathematical violation found, 64 usage error, 65 cap exceeded.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from functools import partial
from operator import itemgetter

from . import __version__, counting
from .counting import independence_number, maximum_independent_set
from .errors import CapExceededError, Graph6ParseError, InvalidParameterError, NotRegularError, UnsupportedSizeError
from .graphs import (
    Graph,
    TargetGraph,
    enumerate_regular,
    mask_of,
    parse_graph6,
    regular_degree,
    target_from_edges,
    vertices_of,
)
# not called here: bench/tracing.py wraps cli.classify and cli.write_graph6
# by name, so the names stay importable
from .graphs import classify, write_graph6  # noqa: F401
from .kdd import count_colorings_kdd, eta, m_count
from .verdicts import _eps_fraction, alon_kahn_verdict, alpha_admitted, conjecture_verdict, constrained_scan, hom_conjecture_verdict
# a module that only some subcommands run (certificates, records) is imported
# inside them, so that the others neither load nor compile it

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


def _records(path: str) -> Iterator[tuple[int, str]]:
    """The graph6 records of `path` (- for stdin, which is left open) with
    their 1-based lines, read one line at a time as they are consumed.
    Blank lines and a bare >>graph6<< header are skipped.  A byte that is not
    ASCII is kept (as a lone surrogate), so that parse_graph6 rejects it;
    stdin is decoded so too, whatever the locale."""
    if path == "-" and sys.stdin is None:
        raise OSError("stdin is closed")
    with contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
        # a binary line ends only at \n; splitlines() cuts it again where it
        # cuts the whole text, at \r, \v, \f and \x1c-\x1e
        texts = (text for raw in fh for text in raw.decode("ascii", "surrogateescape").splitlines())
        for line, text in enumerate(texts, 1):
            record = text.strip().removeprefix(">>graph6<<").strip()
            if record:
                yield line, record


def _parse(line: int, record: str) -> Graph:
    try:
        return parse_graph6(record)
    except Graph6ParseError as exc:
        raise Graph6ParseError(exc.message, exc.offset, line) from None


def _parsed(path: str) -> Iterator[tuple[str, Graph]]:
    """The records of `path` with their graphs, each parsed as it is consumed."""
    return ((record, _parse(line, record)) for line, record in _records(path))


# a hom target's k rows of k bits take time about k^2 to build and check;
# 2^32 bits allow k <= 65536
TARGET_BIT_CAP = 1 << 32


def _load_target(path: str) -> TargetGraph:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        k, edges = data["k"], [tuple(e) for e in data["edges"]]
        if isinstance(k, int):
            # before the rows are built, and whether or not a graph follows
            counting.check_backtrack_target(k)
            if k > 0 and k * k > TARGET_BIT_CAP:
                raise CapExceededError(f"hom target of {k} vertices needs {k * k} adjacency bits, over the cap of {TARGET_BIT_CAP} bits")
        return target_from_edges(k, edges)
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


def _check_writable(path: str) -> None:
    """Raise now the OSError that writing `path` after the work would raise.
    Append mode truncates nothing, and a file made here is removed again."""
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _write(lines: Iterable[str], out: str | None) -> None:
    """The one output writer: the report's lines to --out, or to stdout,
    without joining them into one more copy of the report."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        # flushed here, so that a broken pipe is raised inside main
        sys.stdout.writelines(lines)
        sys.stdout.flush()


# json.dumps(..., sort_keys=True) would build this encoder for every line
_json_encode = json.JSONEncoder(sort_keys=True).encode


def _json_line(record: dict) -> str:
    return _json_encode(record) + "\n"


def _decimal(count: int) -> str:
    """The one rendering of a count as text.  A count longer than the
    interpreter's integer-to-string limit is over a cap, not a crash."""
    try:
        return str(count)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise CapExceededError(f"a count of {count.bit_length()} bits exceeds the integer-to-string limit of {limit} digits") from None


def _emit(records: Iterable[dict], out: str | None) -> None:
    _write(map(_json_line, records), out)


class _LineFile:
    """A file whose write returns its text.  csv.writer's writerow returns
    what write returns, so on this file it renders one row as a CSV line."""

    write = staticmethod(str)


_csv_line = csv.writer(_LineFile()).writerow


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

COUNT_CSV_HEADER = ["graph6", "n", "q", "method", "value"]


def _count_line(rec: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_line(rec)
    if fmt == "csv":
        return _csv_line([rec[key] for key in COUNT_CSV_HEADER])
    return f"{rec['graph6']} q={rec['q']} {rec['value']}\n"


def cmd_count(args) -> int:
    # only the rendered lines are kept; they are written once all succeed
    lines = [_csv_line(COUNT_CSV_HEADER)] if args.format == "csv" else []
    mismatch = False
    for record, g in _parsed(args.graph):
        rec = {
            "type": "count",
            "graph6": record,
            "n": g.n,
            "d": regular_degree(g),
            "q": args.q,
            "method": args.method,
        }
        if args.method == "both":
            back = counting.count_colorings(g, args.q, "backtrack")
            poly = counting.count_colorings(g, args.q, "polynomial")
            rec["value"] = _decimal(back)
            rec["polynomial_value"] = _decimal(poly)
            rec["cross_check"] = "ok" if back == poly else "mismatch"
            if back != poly:
                mismatch = True
        else:
            rec["value"] = _decimal(counting.count_colorings(g, args.q, args.method))
        lines.append(_count_line(rec, args.format))
    _write(lines, args.out)
    return EXIT_CROSSCHECK if mismatch else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_one(numbered: tuple[int, str], verdict, q: int | None) -> dict:
    line, record = numbered
    g = _parse(line, record)
    try:
        v = verdict(g)
    except NotRegularError:
        return {"type": "skipped", "graph6": record, "n": g.n, "reason": "not regular with d >= 2"}
    # the verdict has checked that g is regular, so vertex 0 has degree d
    return {
        "type": "verdict",
        "graph6": record,
        "n": g.n,
        "d": g.degree(0),
        "q": q,
        "target": v.target,
        "holds": v.holds,
        "equality": v.equality,
        "slack_log2": None if math.isinf(v.slack_log2) else v.slack_log2,
        "comparisons": [
            {
                "lhs_base": _decimal(c.lhs_base),
                "lhs_exp": c.lhs_exp,
                "rhs_base": _decimal(c.rhs_base),
                "rhs_exp": c.rhs_exp,
                "holds": c.holds,
                "equality": c.equality,
            }
            for c in v.comparisons
        ],
    }


# in a pool worker: the event that the run has failed, set by the parent,
# and the bound verification of one record
_abandoned = _verify = None


def _start_worker(abandoned, verify) -> None:
    global _abandoned, _verify
    _abandoned, _verify = abandoned, verify


def _unless_abandoned(numbered: tuple[int, str]) -> dict | None:
    # once the run has failed nothing reads the result, so the records not
    # yet started cost nothing
    return None if _abandoned.is_set() else _verify(numbered)


VERIFY_CSV_HEADER = ["graph6", "n", "d", "q", "target", "holds", "equality", "slack_log2"]


def _verify_report(results: Iterable[dict], fmt: str) -> tuple[list[tuple[str, str]], list[dict], dict]:
    """The (graph6, report line) pairs, the failed verdicts and the summary
    of the results, in one pass that keeps no other result.  In csv a
    skipped record has no line."""
    lines = []
    failures = []
    total = verdicts = holds = equality = 0
    for r in results:
        total += 1
        if r["type"] == "verdict":
            verdicts += 1
            holds += r["holds"]
            equality += r["equality"]
            if not r["holds"]:
                failures.append(r)
            if fmt == "csv":
                lines.append((r["graph6"], _csv_line([r[key] for key in VERIFY_CSV_HEADER])))
        if fmt == "json":
            lines.append((r["graph6"], _json_line(r)))
    summary = {
        "type": "summary",
        "total": total,
        "verdicts": verdicts,
        "holds": holds,
        "equality": equality,
        "failures": len(failures),
        "skipped": total - verdicts,
    }
    return lines, failures, summary


def cmd_verify(args) -> int:
    records = _records(args.graphs)
    # the verdicts are looked up here, not at import: bench/tracing.py wraps
    # cli.conjecture_verdict and cli.alon_kahn_verdict by name
    q = None
    if args.target.startswith("hom:"):
        verdict = partial(hom_conjecture_verdict, h=_load_target(args.target[4:]))
    elif args.target == "indsets":
        verdict = alon_kahn_verdict
    elif args.target != "colorings":
        raise InvalidParameterError(f"unknown target {args.target!r}")
    elif args.q is None:
        raise InvalidParameterError("--q is required for --target colorings")
    elif args.q < 0:
        raise InvalidParameterError("q must be non-negative")
    else:
        verdict, q = partial(conjecture_verdict, q=args.q), args.q

    # one ordered map for every --jobs: the first failing record in file
    # order raises, wherever it ran
    verify = partial(_verify_one, verdict=verdict, q=q)
    if args.jobs > 1:
        # the chunk size, computed as Pool.map computes it, needs the count
        records = list(records)
    if args.jobs > 1 and len(records) > 1:
        import multiprocessing

        abandoned = multiprocessing.Event()
        pool = multiprocessing.Pool(args.jobs, _start_worker, (abandoned, verify))
        try:
            chunksize = -(-len(records) // (4 * args.jobs))
            results = pool.imap(_unless_abandoned, records, chunksize=chunksize)
            lines, failures, summary = _verify_report(results, args.format)
        except BaseException:
            abandoned.set()
            raise
        finally:
            # not terminate(), which Pool's with block calls: a worker killed
            # while it sends a result holds the result queue's lock for good,
            # and the pool's shutdown then waits on it forever
            pool.close()
            pool.join()
    else:
        lines, failures, summary = _verify_report(map(verify, records), args.format)
    # stable sorts: records with the same graph6 keep their file order
    lines.sort(key=itemgetter(0))
    failures.sort(key=itemgetter("graph6"))

    if failures:
        # counterexamples are the most valuable output: write them first
        bundle = (args.out + ".counterexamples.json") if args.out else "counterexamples.json"
        with open(bundle, "w", encoding="utf-8") as fh:
            json.dump(failures, fh, indent=2, sort_keys=True)
    report = (line for _, line in lines)
    if args.format == "csv":
        _write(itertools.chain([_csv_line(VERIFY_CSV_HEADER)], report), args.out)
    else:
        _write(itertools.chain(report, [_json_line(summary)]), args.out)
    return EXIT_VIOLATION if failures else EXIT_OK


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

def cmd_certificate(args) -> int:
    from .certificates import build_certificate, phi, threshold, verify_certificate

    # two records tell "exactly one" apart; the rest is never read
    with contextlib.closing(_parsed(args.graph)) as parsed:
        graphs = list(itertools.islice(parsed, 2))
    if len(graphs) != 1:
        raise InvalidParameterError("--graph must supply exactly one graph")
    ((record, g),) = graphs
    d = regular_degree(g)
    if d is None or d < 2:
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
    cert = build_certificate(g, indset, threshold(d, args.q))
    report = verify_certificate(g, cert)
    rec = {
        "type": "certificate",
        "graph6": record,
        "n": g.n,
        "d": d,
        "q": args.q,
        "phi": phi(d, args.q),
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

def _matching(path: str, n: int, d: int) -> Iterator[Graph]:
    """The graphs of `path`, each checked against --n/--d as it is parsed."""
    for line, record in _records(path):
        g = _parse(line, record)
        dg = regular_degree(g)
        if (g.n, dg) != (n, d):
            raise InvalidParameterError(f"line {line}: graph ({g.n},{dg}) does not match --n/--d ({n},{d})")
        yield g


def cmd_scan(args) -> int:
    from .records import RecordStore

    store = RecordStore(args.records, __version__) if args.records else None
    # --graphs alone means --source file
    source = args.source or ("file" if args.graphs else "gen")
    if source == "gen":
        if args.graphs:
            raise InvalidParameterError("--source gen takes no --graphs")
        # a generator: constrained_scan checks --q and --eps before it
        # advances it, and no list of the family is held
        family = enumerate_regular(args.n, args.d)
    else:
        if not args.graphs:
            raise InvalidParameterError("--source file requires --graphs")
        # a generator too: no record is parsed before --q and --eps pass
        family = _matching(args.graphs, args.n, args.d)
    result = constrained_scan(family, args.q, args.eps)
    records = [
        {"type": "scan-row", "graph6": r.graph6, "n": args.n, "d": args.d, "q": args.q, "alpha": r.alpha, "value": _decimal(r.count)}
        for r in result.rows
    ]
    records.append(
        {
            "type": "scan-max",
            "n": args.n,
            "d": args.d,
            "q": args.q,
            "eps": str(result.eps),
            "family_size": result.family_size,
            "filtered": len(result.rows),
            "max": _decimal(result.max_count),
            "argmax": result.argmax,
        }
    )
    if store is not None:
        # against the store as it is now, not as it was read before the scan
        with store.locked():
            improved = store.update(args.n, args.d, args.q, str(result.eps), result.max_count, result.argmax)
            store.save()
        records[-1]["record_improved"] = improved
    _emit(records, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

# bounds refuses (exit 65), before it builds any big integer, an (n, d, q)
# whose integers may pass this many bits.  2^23 lets --n 10^6 + 1 --d 3 --q 3
# run, whose weak bound is judged at 5 * 10^6 bits.
BOUNDS_BIT_CAP = 1 << 23


def cmd_bounds(args) -> int:
    from .certificates import explicit_weak_bound

    n, d, q = args.n, args.d, args.q
    eps = None if args.eps is None else _eps_fraction(args.eps)
    if n < d + 1:
        # no such family at any q; explicit_weak_bound refuses it too
        raise InvalidParameterError("n must be at least d+1")
    if d < 1 or q < 2 or n < 1:
        raise InvalidParameterError("need d >= 1, q >= 2, n >= 1")
    # c_q(K_{d,d}) <= q^(2d), m_count(q) < 2^(q+1) and, at q >= 3, the weak
    # bound <= 2^(qn) q^n, since its multiplicities sum to less than qn
    bits = max(2 * d * q.bit_length(), q + 1, n * (q + q.bit_length()) if q >= 3 else 0)
    if bits > BOUNDS_BIT_CAP:
        raise CapExceededError(f"bounds at n={n}, d={d}, q={q} may need {bits}-bit integers, over the cap of {BOUNDS_BIT_CAP} bits")
    base = count_colorings_kdd(d, q)
    reference_base = _decimal(base)
    weak = explicit_weak_bound(n, d, q) if q >= 3 else None
    weak_eps = explicit_weak_bound(n, d, q, eps) if (weak is not None and eps is not None) else None
    head = {
        "type": "bounds",
        "n": n,
        "d": d,
        "q": q,
        "eps": args.eps,
        "reference_base": reference_base,
        "reference_exp": [n, 2 * d],
        "reference_log2": math.log2(base) * n / (2 * d),
        "idealized_log2": math.log2(eta(q)) * n / 2 + math.log2(m_count(q)) * n / (2 * d),
        "eta_pow_log2": math.log2(eta(q)) * n / 2,
        "weak_bound_log2": None if weak is None else math.log2(weak),
        "weak_bound_eps_log2": None if weak_eps is None else math.log2(weak_eps),
    }
    records = [head]
    violation = False
    if args.graphs:
        for record, g in _parsed(args.graphs):
            dg = regular_degree(g)
            row = {"type": "bounds-row", "graph6": record, "n": g.n, "d": dg, "q": q}
            if dg != d or g.n != n:
                row["skipped"] = "does not match --n/--d"
                records.append(row)
                continue
            exact = counting.count_colorings(g, q)
            row["exact"] = _decimal(exact)
            row["alpha"] = independence_number(g)
            if weak is not None:
                ok = exact <= weak
                row["below_weak_bound"] = ok
                violation = violation or not ok
            if weak_eps is not None:
                if alpha_admitted(row["alpha"], g.n, eps):
                    ok = exact <= weak_eps
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
    p.add_argument("--method", choices=["frontier", "backtrack", "polynomial", "both"], default="frontier")
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
    p.add_argument("--source", choices=["gen", "file"], help="gen (the default) or file (the default with --graphs)")
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
        # the report and the records store: a bad path exits before the work
        for path in (args.out, getattr(args, "records", None)):
            if path:
                _check_writable(path)
        if not args.out and sys.stdout is None:
            raise OSError("stdout is closed")
        return args.func(args)
    except BrokenPipeError:
        # nothing reads stdout any more: what is still buffered goes to
        # devnull, so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout is closed (broken pipe)", file=sys.stderr)
        return EXIT_USAGE
    # bad arguments and malformed input: graph6, JSON of a hom target or of a
    # records store, bytes that do not decode, a path or a standard stream
    # that cannot be opened, read or written
    except (
        InvalidParameterError,
        Graph6ParseError,
        UnsupportedSizeError,
        OSError,
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
