"""Per-layer spans for a traced in-process run of ``chromacount.cli.main``.

The modules import their collaborators by name, so each public function is
wrapped in every namespace that calls it (``cli.parse_graph6``,
``verdicts.count_colorings``, ...).  A span is [name, start, end, parent]
with parent the index of the enclosing span, or -1.  Spans stay in memory
until the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

from chromacount import cli, counting, records, verdicts

# (namespace, attribute, span name); one span name may be wrapped in several
# namespaces
WRAPPED = [
    (cli, "parse_graph6", "graphs.parse_graph6"),
    (cli, "classify", "graphs.classify"),
    (cli, "write_graph6", "graphs.write_graph6"),
    (cli, "independence_number", "counting.independence_number"),
    (cli, "conjecture_verdict", "verdicts.conjecture_verdict"),
    (cli, "alon_kahn_verdict", "verdicts.alon_kahn_verdict"),
    (cli, "constrained_scan", "verdicts.constrained_scan"),
    (counting, "count_colorings", "counting.count_colorings"),
    (counting, "chromatic_polynomial", "counting.chromatic_polynomial"),
    (verdicts, "count_colorings", "counting.count_colorings"),
    (verdicts, "count_independent_sets", "counting.count_independent_sets"),
    (verdicts, "independence_number", "counting.independence_number"),
    (verdicts, "classify", "graphs.classify"),
    (verdicts, "write_graph6", "graphs.write_graph6"),
    (verdicts, "count_colorings_kdd", "kdd.count_colorings_kdd"),
    (records.RecordStore, "save", "records.save"),
]
GENERATORS = [(cli, "enumerate_regular", "graphs.enumerate_regular")]

# per-layer metrics with their units, in report order
PER_LAYER = {
    "counting.count_colorings.calls": "count",
    "counting.count_colorings.s": "s",
    "counting.count_colorings.colorings": "count",
    "counting.chromatic_polynomial.calls": "count",
    "counting.chromatic_polynomial.s": "s",
    "graphs.enumerate_regular.graphs": "count",
    "graphs.enumerate_regular.s": "s",
    "counting.independence_number.calls": "count",
    "counting.independence_number.s": "s",
    "records.save.s": "s",
    "graphs.parse_graph6.calls": "count",
    "graphs.parse_graph6.s": "s",
    "graphs.classify.calls": "count",
    "graphs.classify.s": "s",
    "graphs.write_graph6.calls": "count",
    "graphs.write_graph6.s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "counting.count_independent_sets.calls": "count",
    "counting.count_independent_sets.s": "s",
    "verdicts.self_s": "s",
    "kdd.count_colorings_kdd.calls": "count",
    "kdd.count_colorings_kdd.s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.colorings = 0
        self.graphs = 0
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if name == "counting.count_colorings":
                self.colorings += result
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        # time spent inside the generator's __next__, one span per item
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                items = iter(fn(*args, **kwargs))
            finally:
                self.close(idx)
            while True:
                idx = self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.graphs += 1
                yield item

        return wrapper

    def __enter__(self) -> Tracer:
        for wrapped, make in ((WRAPPED, self._wrap), (GENERATORS, self._wrap_generator)):
            for owner, attr, name in wrapped:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def run_main(self, argv: list[str]) -> int:
        idx = self.open("cli.main")
        try:
            return cli.main(argv)
        finally:
            self.close(idx)

    def metrics(self) -> dict[str, float]:
        """Per-layer totals; the caller adds cli.report_bytes and
        trace.overhead_s."""
        calls: dict[str, int] = defaultdict(int)
        seconds: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            seconds[name] += end - start
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out: dict[str, float] = {}
        for key in PER_LAYER:
            layer, _, field = key.rpartition(".")
            if field == "calls":
                out[key] = calls[layer]
            elif field == "s":
                out[key] = seconds[layer]
        out["counting.count_colorings.colorings"] = self.colorings
        out["graphs.enumerate_regular.graphs"] = self.graphs
        out["cli.self_s"] = self_s["cli.main"]
        out["verdicts.self_s"] = sum(v for k, v in self_s.items() if k.startswith("verdicts."))
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
