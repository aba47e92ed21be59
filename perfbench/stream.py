"""The seeded query stream of the ``query-mixed`` workload.

The stream is a sequence of blocks with one fixed composition, so a run
that stops after any whole number of blocks sees the same mix:

* 960 connected G(n, p) graphs, 40 for each n in 9..12 and each p in
  GNP_DENSITIES.  Refinement splits these into small cells, so decode, chi
  and alpha set the median;
* 20 connected random regular graphs (2%), 2 for each (n, d) in REGULAR.
  Refinement leaves them as one cell, so the permutation search works;
* the 17 extremal-family members of FAMILIES (1.7%).  Their large twin
  classes make the canonical-form search explode, so they set throughput
  and the tail.  Three graphs of similar cost appear four times each: with
  17 members in 997 queries, the p99 of a run falls inside that group, not
  on the edge between the families and the rest, where it would follow
  the labeling-dependent costs of the regular graphs.

Every graph gets a seeded random labeling and is written as graph6.
Dense G(n, p) (p >= 0.85) is left out: it hits the same canonical-form
blow-up as the families, but at a seed-dependent rate of a few graphs in
a thousand, which would make one seed's throughput unlike another's.
The families show that defect at a fixed rate instead.  They are capped
at n = 10 because one such graph at n = 11 or 12 takes seconds to
minutes (see NOTES.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

GNP_ORDERS = (9, 10, 11, 12)
GNP_DENSITIES = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
GNP_PER_CELL = 40
REGULAR = ((10, 3), (10, 4), (10, 5), (10, 6), (11, 4), (11, 6),
           (12, 3), (12, 4), (12, 5), (12, 6))
REGULAR_PER_CELL = 2
FAMILIES = (
    ("star", 10, None), ("split", 10, 2), ("turan", 10, 9),
    *4 * (("star", 9, None), ("kite", 9, 7), ("split", 9, 8)),
    ("dstar", 10, 3), ("turan", 10, 5),
)
BLOCK_SIZE = (len(GNP_ORDERS) * len(GNP_DENSITIES) * GNP_PER_CELL
              + len(REGULAR) * REGULAR_PER_CELL + len(FAMILIES))


@dataclass(frozen=True)
class Query:
    graph6: str
    base: str  # the unlabeled graph it came from; only family members repeat
    kind: str  # "gnp", "regular" or "family"


def family_edges(name: str, n: int, k: int | None) -> list[tuple[int, int]]:
    """Edges of one extremal-family member, built independently of absindex."""
    if name == "turan":  # complete k-partite, balanced parts
        part = [v % k for v in range(n)]
        return [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    if name == "split":  # k independent vertices joined to a clique on the rest
        return [(u, v) for u in range(n) for v in range(u + 1, n) if v >= k]
    if name == "star":
        return [(0, v) for v in range(1, n)]
    if name == "kite":  # clique on n - k vertices, k pendants on vertex 0
        core = n - k
        return [(u, v) for u in range(core) for v in range(u + 1, core)] + [
            (0, v) for v in range(core, n)
        ]
    if name == "dstar":  # adjacent centres 0 and 1 with k - 1 and n - k - 1 leaves
        return [(0, 1)] + [(0, v) for v in range(2, k + 1)] + [(1, v) for v in range(k + 1, n)]
    raise ValueError(f"unknown family {name!r}")


def graph6(n: int, edges) -> str:
    """Short-form graph6 text (pairs in column order, 6 bits per byte)."""
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for start in range(0, len(bits), 6):
        group = 0
        for b in bits[start:start + 6]:
            group = group << 1 | b
        chars.append(chr(group + 63))
    return "".join(chars)


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    todo = [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def _gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if _connected(n, edges):
            return edges


def _regular(rng: random.Random, n: int, d: int) -> list[tuple[int, int]]:
    while True:
        g = nx.random_regular_graph(d, n, seed=rng.randrange(1 << 31))
        if nx.is_connected(g):
            return list(g.edges())


def _relabeled(rng: random.Random, n: int, edges) -> str:
    perm = list(range(n))
    rng.shuffle(perm)
    return graph6(n, [(perm[u], perm[v]) for u, v in edges])


def make_stream(seed: int, blocks: int) -> list[Query]:
    """``blocks`` blocks of BLOCK_SIZE queries; the same seed gives the same stream."""
    rng = random.Random(seed)
    stream: list[Query] = []
    for b in range(blocks):
        bases = []
        for n in GNP_ORDERS:
            for p in GNP_DENSITIES:
                for _ in range(GNP_PER_CELL):
                    bases.append((n, _gnp(rng, n, p), "gnp", None))
        for n, d in REGULAR:
            for _ in range(REGULAR_PER_CELL):
                bases.append((n, _regular(rng, n, d), "regular", None))
        for name, n, k in FAMILIES:
            label = f"{name}({n})" if k is None else f"{name}({n},{k})"
            bases.append((n, family_edges(name, n, k), "family", label))
        rng.shuffle(bases)
        for i, (n, edges, kind, label) in enumerate(bases):
            stream.append(Query(_relabeled(rng, n, edges), label or f"b{b}.{i}", kind))
    return stream
