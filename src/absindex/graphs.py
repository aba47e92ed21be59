"""Small simple graphs stored as bit-row adjacency masks.

Vertices are integers ``0..n-1``.  The adjacency matrix is kept as one
integer bitmask per vertex, which makes degree, connectivity and subset
queries cheap for the orders (n <= 12) this library targets.  Graph
values are immutable: every "mutating" operation returns a new graph,
so they are safe to share between worker processes.

Rows are checked where they enter the library.  ``Graph(order, rows)``
takes rows from the caller: it freezes them as a tuple and checks each
row's range and diagonal bit, then each pair's symmetry, naming the
first fault.  Two builders make rows that are valid by construction and
store them unchecked (``Graph._from_valid_rows``): ``from_packed_pairs``,
which checks its order and the range of its string and sets each pair in
both rows, and the enumeration's one-vertex extension of a valid parent.

The module also implements the standard graph6 text encoding (short
form) used for input and output of graphs.  The graph6 body and a
canonical form's body are the same packed pair string: pair k, in graph6
column order, is bit nbits-1-k.  This module turns rows into that string
(``packed_pairs``, under any vertex order) and back
(``from_packed_pairs``), and graph6 goes through both; the labeling
search (``invariants``) and the enumeration (``search``) also write it a
column at a time.  It also holds the one breadth-first walk over bit
rows (``reachable``), which connectivity and the enumeration's
cut-vertex test share.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

MAX_ORDER = 12

_G6_HEADER = ">>graph6<<"


class GraphError(ValueError):
    """Invalid graph construction or query."""


class Graph6Error(ValueError):
    """Malformed graph6 text."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``rows[v]`` is the neighbor bitmask of v."""

    order: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.order
        if not 1 <= n <= MAX_ORDER:
            raise GraphError(f"order must be in 1..{MAX_ORDER}, got {n}")
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != n:
            raise GraphError("number of adjacency rows does not match order")
        for v, row in enumerate(rows):
            if row < 0 or row >> n:
                raise GraphError(f"row {v} has bits outside the vertex range")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        for u in range(n):
            for v in range(u + 1, n):
                if (rows[u] >> v & 1) != (rows[v] >> u & 1):
                    raise GraphError(f"adjacency not symmetric at ({u}, {v})")

    @classmethod
    def _from_valid_rows(cls, order: int, rows: tuple[int, ...]) -> "Graph":
        """The graph on ``rows``, unchecked: only for a tuple of rows that
        the library made symmetric, loop-free and in range itself."""
        g = object.__new__(cls)
        object.__setattr__(g, "order", order)
        object.__setattr__(g, "rows", rows)
        return g

    # -- queries ------------------------------------------------------

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        row = self.rows[v]
        return [u for u in range(self.order) if row >> u & 1]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [
            (u, v)
            for u in range(self.order)
            for v in range(u + 1, self.order)
            if self.rows[u] >> v & 1
        ]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edge_degree(self, u: int, v: int) -> int:
        """Number of edges sharing an endpoint with edge uv."""
        if not self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is not an edge")
        return self.degree(u) + self.degree(v) - 2

    def is_connected(self) -> bool:
        full = (1 << self.order) - 1
        return reachable(self.rows, 1, full) == full

    # -- copy-on-write mutation ---------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"cannot add a loop at vertex {u}")
        if self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) already present")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.order, rows)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.order:
            raise GraphError(f"vertex {v} out of range 0..{self.order - 1}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(order={self.order}, edges={self.edges()})"


def from_edges(order: int, edges) -> Graph:
    """Build a graph from an explicit edge list.

    Rejects loops, duplicate edges and out-of-range endpoints, naming
    the offending edge in the error.
    """
    rows = [0] * order
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop edge ({u}, {v})")
        if not (0 <= u < order and 0 <= v < order):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{order - 1}")
        if rows[u] >> v & 1:
            raise GraphError(f"duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, rows)


# Pair k = j(j-1)/2 + i of the column-major order, i < j, for every k
# an order up to MAX_ORDER can have.
_PAIRS = tuple((i, j) for j in range(1, MAX_ORDER) for i in range(j))


def from_packed_pairs(order: int, packed: int) -> Graph:
    """The graph whose pair k, in graph6 column order, is bit nbits-1-k of
    ``packed`` (nbits = order(order-1)/2): earlier pairs are more significant.

    This is both the graph6 body with its padding dropped and the minimal
    triangle that ``invariants.canonical_labeling`` returns.
    """
    nbits = order * (order - 1) // 2
    if not 1 <= order <= MAX_ORDER:
        raise GraphError(f"order must be in 1..{MAX_ORDER}, got {order}")
    if not 0 <= packed < 1 << nbits:
        raise GraphError(f"packed pairs {packed:#x} do not fit the {nbits} pairs of order {order}")
    rows = [0] * order
    top = nbits - 1
    while packed:
        low = packed & -packed
        i, j = _PAIRS[top - low.bit_length() + 1]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        packed ^= low
    return Graph._from_valid_rows(order, tuple(rows))


def to_packed_pairs(g: Graph) -> int:
    """The packed pair string of g; ``from_packed_pairs`` inverts it."""
    return packed_pairs(g.rows, range(g.order))


def packed_pairs(rows: Sequence[int], order: Sequence[int]) -> int:
    """The packed pair string of the graph with bit rows ``rows`` in which
    vertex ``order[i]`` is relabeled i."""
    packed = 0
    for j, v in enumerate(order):
        row = rows[v]
        for u in order[:j]:
            packed = packed << 1 | row >> u & 1
    return packed


def reachable(rows: Sequence[int], start: int, within: int) -> int:
    """The vertices of mask ``within`` reachable from the vertices of mask
    ``start``, which it holds, along paths inside ``within``."""
    seen = frontier = start
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & within & ~seen
        seen |= frontier
    return seen


def complete_graph(order: int) -> Graph:
    full = (1 << order) - 1
    return Graph(order, tuple(full ^ (1 << v) for v in range(order)))


# -- graph6 -----------------------------------------------------------


def encode_graph6(g: Graph) -> str:
    """Encode a graph in the short graph6 form (header byte n+63): the
    packed pair string, shifted left by the padding, in 6-bit groups."""
    n = g.order
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    packed = to_packed_pairs(g) << 6 * groups - nbits
    return chr(n + 63) + "".join(
        chr((packed >> 6 * k & 63) + 63) for k in reversed(range(groups))
    )


def decode_graph6(text: str) -> Graph:
    """Parse a short-form graph6 string, reporting the bad position on error."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 input")
    n = ord(s[0]) - 63
    if not 1 <= n <= MAX_ORDER:
        raise Graph6Error(
            f"byte 0: order {n} outside the supported range 1..{MAX_ORDER}"
        )
    nbits = n * (n - 1) // 2
    expected = 1 + (nbits + 5) // 6
    if len(s) != expected:
        raise Graph6Error(
            f"byte {min(len(s), expected)}: expected {expected} bytes for order {n}, "
            f"got {len(s)}"
        )
    packed = 0
    for pos, ch in enumerate(s[1:], start=1):
        group = ord(ch) - 63
        if not 0 <= group < 64:
            raise Graph6Error(f"byte {pos}: character {ch!r} outside graph6 alphabet")
        packed = packed << 6 | group
    padding = 6 * (expected - 1) - nbits
    if packed & ((1 << padding) - 1):
        raise Graph6Error(f"byte {expected - 1}: nonzero padding bit")
    return from_packed_pairs(n, packed >> padding)
