"""Exact graph invariants and isomorphism machinery.

Chromatic number and independence number are computed by exact
exponential algorithms (backtracking / branch-and-bound); both are
comfortably fast at the orders (n <= 12) the library supports.
Isomorphism is decided through a canonical form: the lexicographically
minimal upper-triangle bit-string over all vertex relabelings, with the
permutation search restricted by an iterated degree-partition
refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, from_triangle_mask


@dataclass(frozen=True)
class GraphInvariants:
    """The constraint invariants used by the extremal searches."""

    connected: bool
    chromatic: int
    independence: int
    pendants: int

    @classmethod
    def of(cls, g: Graph) -> "GraphInvariants":
        return cls(
            connected=g.is_connected(),
            chromatic=chromatic_number(g),
            independence=independence_number(g),
            pendants=pendant_count(g),
        )


def pendant_count(g: Graph) -> int:
    """Number of vertices of degree exactly 1."""
    return sum(1 for row in g.rows if row.bit_count() == 1)


# -- chromatic number -------------------------------------------------


def chromatic_number(g: Graph) -> int:
    """Least k admitting a proper k-coloring (exact)."""
    n = g.order
    if g.edge_count == 0:
        return 1
    lower = _greedy_clique_size(g)
    upper = _greedy_coloring_size(g)
    for k in range(lower, upper):
        if _colorable(g, k):
            return k
    return upper


def _greedy_clique_size(g: Graph) -> int:
    order = sorted(range(g.order), key=g.degree, reverse=True)
    clique_mask = 0
    size = 0
    for v in order:
        if clique_mask & ~g.rows[v] == 0:
            clique_mask |= 1 << v
            size += 1
    return size


def _greedy_coloring_size(g: Graph) -> int:
    order = sorted(range(g.order), key=g.degree, reverse=True)
    color_of: dict[int, int] = {}
    used = 0
    for v in order:
        taken = {color_of[u] for u in g.neighbors(v) if u in color_of}
        c = 0
        while c in taken:
            c += 1
        color_of[v] = c
        used = max(used, c + 1)
    return used


def _colorable(g: Graph, k: int) -> bool:
    order = sorted(range(g.order), key=g.degree, reverse=True)
    colors = [-1] * g.order

    def assign(idx: int, max_used: int) -> bool:
        if idx == g.order:
            return True
        v = order[idx]
        forbidden = {colors[u] for u in g.neighbors(v) if colors[u] >= 0}
        # first use of a fresh color: trying one is enough (symmetry)
        limit = min(k, max_used + 1)
        for c in range(limit):
            if c in forbidden:
                continue
            colors[v] = c
            if assign(idx + 1, max(max_used, c + 1)):
                return True
            colors[v] = -1
        return False

    return assign(0, 0)


# -- independence number ----------------------------------------------


def independence_number(g: Graph) -> int:
    """Maximum size of a pairwise non-adjacent vertex set (exact)."""
    rows = g.rows
    best = 0

    def expand(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        # branch on the candidate with most candidate-neighbors
        v = max(
            _bits(candidates), key=lambda u: (rows[u] & candidates).bit_count()
        )
        expand(candidates & ~(rows[v] | 1 << v), size + 1)
        expand(candidates & ~(1 << v), size)

    expand((1 << g.order) - 1, 0)
    return best


def _bits(mask: int):
    while mask:
        v = (mask & -mask).bit_length() - 1
        yield v
        mask &= mask - 1


# -- canonical form ---------------------------------------------------


def _refined_cells(g: Graph) -> list[list[int]]:
    """Stable vertex partition under iterated neighbor-color refinement.

    Cells are returned in an order determined only by isomorphism-
    invariant signatures, so isomorphic graphs get corresponding cell
    sequences.

    A vertex's signature is its colour followed by the negated counts of
    its neighbours in each colour, colours ascending.  Every colour
    class refines the degree partition, so vertices of one colour have
    equally many neighbours, and for such vertices this signature ranks
    exactly as the sorted tuple of neighbour colours would: the first
    colour where two neighbour multisets differ puts the one with more
    neighbours of that colour first.
    """
    n = g.order
    rows = g.rows
    colors = [row.bit_count() for row in rows]
    while True:
        masks: dict[int, int] = {}
        for v, c in enumerate(colors):
            masks[c] = masks.get(c, 0) | 1 << v
        counts = [
            [-(row & masks[c]).bit_count() for row in rows] for c in sorted(masks)
        ]
        sigs = list(zip(colors, *counts))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == len(masks):
            break
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def minimal_triangle(g: Graph) -> int:
    """Lexicographically minimal upper-triangle bit-string over relabelings.

    The string is read pair-by-pair in the graph6 column order and
    packed so that earlier pairs land in more significant bits; the
    minimum is therefore the numeric minimum.  Only permutations that
    respect the refined-cell order are considered, which is sound
    because the cell sequence itself is isomorphism-invariant.
    """
    n = g.order
    rows = g.rows
    cells = _refined_cells(g)
    cell_at: list[list[int]] = []
    for cell in cells:
        cell_at.extend([cell] * len(cell))
    total_bits = n * (n - 1) // 2
    best: int | None = None
    perm: list[int] = []
    used = [False] * n

    def place(pos: int, prefix: int, nbits: int) -> None:
        nonlocal best
        if pos == n:
            if best is None or prefix < best:
                best = prefix
            return
        for v in cell_at[pos]:
            if used[v]:
                continue
            col = 0
            row_v = rows[v]
            for i in range(pos):
                col = col << 1 | (row_v >> perm[i] & 1)
            new_prefix = (prefix << pos) | col
            new_bits = nbits + pos
            if best is not None and new_prefix > best >> (total_bits - new_bits):
                continue
            used[v] = True
            perm.append(v)
            place(pos + 1, new_prefix, new_bits)
            perm.pop()
            used[v] = False

    place(0, 0, 0)
    assert best is not None
    return best


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic."""
    n = g.order
    total_bits = n * (n - 1) // 2
    tri = minimal_triangle(g)
    return bytes([n]) + tri.to_bytes(max(1, (total_bits + 7) // 8), "big")


def canonical_graph(g: Graph) -> Graph:
    """A canonically relabeled copy of g (same for all isomorphic inputs)."""
    return graph_from_canonical_form(canonical_form(g))


def graph_from_canonical_form(form: bytes) -> Graph:
    n = form[0]
    tri = int.from_bytes(form[1:], "big")
    total_bits = n * (n - 1) // 2
    # minimal_triangle packs pair k at significance total_bits-1-k
    mask = 0
    for k in range(total_bits):
        if tri >> (total_bits - 1 - k) & 1:
            mask |= 1 << k
    return from_triangle_mask(n, mask)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.order != h.order:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)
