"""In-memory span tracing around the public functions of absindex.

A span records a name, a start, an end and the span that was open when it
began (its parent).  Spans are appended to flat arrays while the traced
process runs and written to one file when it ends; the benchmark process
reads that file and turns it into per-layer figures.

Only the process that installed the tracer records spans.  Pool workers
forked from it call straight through, so in a parallel sweep their work
shows only as the wall time of the enclosing ``connected_class_forms``.
"""

from __future__ import annotations

import array
import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass


def enumerate_span(n, *args, **kwargs) -> str:
    """Span name of one ``connected_class_forms(n)`` call."""
    return f"search.enumerate[{n}]"


# (module, attribute, span name) for every traced module-level function.
# ``turan``, ``complete_split`` and ``pendant_maximizer`` are the three
# constructors the theorem sweep calls; star, kite and double_star sit
# below pendant_maximizer and are counted within it.
FUNCTION_TARGETS = (
    ("graphs", "decode_graph6", "graphs.decode_graph6"),
    ("invariants", "canonical_form", "invariants.canonical_form"),
    ("invariants", "graph_from_canonical_form", "invariants.from_form"),
    ("invariants", "chromatic_number", "invariants.chromatic"),
    ("invariants", "independence_number", "invariants.independence"),
    ("index", "abs_index", "index.abs_index"),
    ("index", "edge_contributions", "index.edge_contributions"),
    ("extremal", "turan", "extremal.construct"),
    ("extremal", "complete_split", "extremal.construct"),
    ("extremal", "pendant_maximizer", "extremal.construct"),
    ("search", "connected_class_forms", enumerate_span),
    ("search", "max_abs_under", "search.maximize"),
    ("search", "verify_theorem", "search.verify"),
    ("cli", "main", "cli.main"),
    ("cli", "_write_table", "cli.table"),
)


class Tracer:
    """Collects spans from wrapped functions into flat in-memory arrays."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def name_index(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, fn, name):
        """``fn`` recording one span per call; ``name`` is a string or a
        function of the call's arguments that returns one."""
        clock, stack = self.clock, self._stack
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        fixed = None if callable(name) else self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            ids.append(fixed if fixed is not None else self.name_index(name(*args, **kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        """Write a JSON header line followed by the four span arrays."""
        header = {"names": self.names, "spans": len(self.start), "counts": self.counts}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(out)


def instrument(tracer: Tracer) -> None:
    """Replace absindex's public functions by traced wrappers, everywhere
    they are bound, plus ``Graph.__init__`` and ``GraphInvariants.of``."""
    import absindex
    from absindex import cli, extremal, graphs, index, invariants, search

    modules = {
        "graphs": graphs,
        "invariants": invariants,
        "index": index,
        "extremal": extremal,
        "search": search,
        "cli": cli,
    }
    namespaces = [absindex, *modules.values()]
    for module, attr, name in FUNCTION_TARGETS:
        original = getattr(modules[module], attr)
        wrapped = tracer.wrap(original, name)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
    graphs.Graph.__init__ = tracer.wrap(graphs.Graph.__init__, "graphs.graph_init")
    of = invariants.GraphInvariants.__dict__["of"].__func__
    invariants.GraphInvariants.of = classmethod(tracer.wrap(of, "invariants.of"))


@dataclass
class Spans:
    names: list[str]
    name_id: array.array
    parent: array.array
    start: array.array
    end: array.array
    counts: dict[str, int]

    @classmethod
    def load(cls, path) -> "Spans":
        with open(path, "rb") as src:
            header = json.loads(src.readline())
            arrays = []
            for code in "iidd":
                arr = array.array(code)
                arr.fromfile(src, header["spans"])
                arrays.append(arr)
        return cls(header["names"], *arrays, header["counts"])

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]


def self_times(parent, start, end) -> array.array:
    """Each span's duration minus the part of it that its child spans cover.

    Spans must be listed in order of start time, as the tracer appends
    them.  Overlapping children are counted once, and a child's interval
    is clipped to its parent's.
    """
    n = len(start)
    covered = array.array("d", bytes(8 * n))
    reach = array.array("d", [float("-inf")]) * n
    for c in range(n):
        if c and start[c] < start[c - 1]:
            raise ValueError("spans are not in start order")
        p = parent[c]
        if p < 0:
            continue
        lo = max(start[c], start[p], reach[p])
        hi = min(end[c], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    for i in range(n):
        covered[i] = end[i] - start[i] - covered[i]
    return covered


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: Spans) -> dict[str, NameStats]:
    """Calls, inclusive time and self time per span name."""
    selfs = self_times(spans.parent, spans.start, spans.end)
    stats: dict[str, NameStats] = defaultdict(NameStats)
    for i, nid in enumerate(spans.name_id):
        s = stats[spans.names[nid]]
        s.calls += 1
        s.total_s += spans.duration(i)
        s.self_s += selfs[i]
    return stats
