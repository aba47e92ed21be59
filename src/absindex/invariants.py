"""Exact graph invariants and isomorphism machinery.

Chromatic number and independence number are computed by exact
exponential algorithms on the bit rows: chi by backtracking over colour
classes held as vertex bitmasks, between a greedy clique lower bound
and a greedy colouring upper bound; alpha by branch-and-bound on the
candidate bitmask.  Both are comfortably fast at the orders (n <= 12)
the library supports.  A canonical form is the lexicographically
minimal upper-triangle bit-string over all vertex relabelings, with the
permutation search restricted by an iterated degree-partition
refinement, whose rounds count each vertex's neighbours only in the
cells that the round before split off; it decodes through the same
packed pair decoder as graph6 (``graphs.from_packed_pairs``).  The
search packs the vertices' columns into one int, descends at each
position only the candidates of least column, and places each class of
twins (vertices with the same neighbours apart from each other) only in
ascending order; both cuts keep every minimal order, so it returns the
minimum and the first order reaching it that the unpruned search
returns.  A discrete partition's one order is written by
``graphs.packed_pairs``.  The one labeling call, ``canonical_labeling``,
refines and searches once, and the search also gives generators of the
automorphism group: twin swaps and a map from the first minimal order
to each later one (McKay and Piperno, "Practical graph isomorphism, II",
2014).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .graphs import Graph, GraphError, from_packed_pairs, packed_pairs


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
#
# A colouring is a list of colour classes, each a bitmask of vertices;
# v may join class c iff classes[c] & rows[v] == 0.


def chromatic_number(g: Graph) -> int:
    """Least k admitting a proper k-coloring (exact)."""
    rows = g.rows
    order = _by_degree(rows)
    lower = _greedy_clique_size(rows, order)
    upper = _greedy_coloring_size(rows, order)
    for k in range(lower, upper):
        if _colorable(rows, order, k):
            return k
    return upper


def is_colorable(g: Graph, k: int) -> bool:
    """Whether g has a proper k-coloring (exact), for k >= 1.

    The decision ``chromatic_number`` makes for each k, in the same vertex
    order, after the same greedy clique bound.
    """
    rows = g.rows
    order = _by_degree(rows)
    return _greedy_clique_size(rows, order) <= k and _colorable(rows, order, k)


def _by_degree(rows: tuple[int, ...]) -> list[int]:
    """The vertices by descending degree, lowest index first among ties."""
    degs = [row.bit_count() for row in rows]
    return sorted(range(len(rows)), key=degs.__getitem__, reverse=True)


def _greedy_clique_size(rows: tuple[int, ...], order: list[int]) -> int:
    clique_mask = 0
    for v in order:
        if clique_mask & ~rows[v] == 0:
            clique_mask |= 1 << v
    return clique_mask.bit_count()


def _greedy_coloring_size(rows: tuple[int, ...], order: list[int]) -> int:
    """Colours used when each vertex, in ``order``, takes its least free colour."""
    classes: list[int] = []
    for v in order:
        row = rows[v]
        for c, members in enumerate(classes):
            if not members & row:
                classes[c] = members | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def _colorable(rows: tuple[int, ...], order: list[int], k: int) -> bool:
    n = len(order)
    classes = [0] * k

    def assign(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        row = rows[v]
        bit = 1 << v
        # first use of a fresh color: trying one is enough (symmetry)
        for c in range(min(k, used + 1)):
            if classes[c] & row:
                continue
            classes[c] |= bit
            if assign(idx + 1, used + (c == used)):
                return True
            classes[c] ^= bit
        return False

    return assign(0, 0)


# -- independence number ----------------------------------------------


def independence_number(g: Graph) -> int:
    """Maximum size of a pairwise non-adjacent vertex set (exact)."""
    return independence_within(g.rows, (1 << g.order) - 1)


def independence_within(rows: Sequence[int], candidates: int, floor: int = 0) -> int:
    """The largest size of a pairwise non-adjacent subset of ``candidates``
    (a vertex bitmask), or ``floor`` if that is larger.

    Branch-and-bound: a branch is searched only while its set plus all its
    candidates could beat the best size so far, which starts at ``floor``,
    so a known lower bound prunes from the start.
    """
    best = floor

    def expand(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = size
            return
        # branch on the lowest candidate: in the set, or not
        bit = candidates & -candidates
        expand(candidates & ~(rows[bit.bit_length() - 1] | bit), size + 1)
        expand(candidates ^ bit, size)

    expand(candidates, 0)
    return best


# -- canonical form ---------------------------------------------------


def _refined_cells(g: Graph) -> list[list[int]]:
    """Stable vertex partition under iterated neighbor-color refinement.

    Cells are returned in an order determined only by isomorphism-
    invariant signatures, so isomorphic graphs get corresponding cell
    sequences.

    Cells start as the degree classes, degrees ascending.  Each round
    replaces every cell, in place, by its parts under the vector of its
    vertices' neighbour counts in the round's splitter cells, parts
    ordered by descending vector; a cell's vertices stay in ascending
    order.  The first round's splitters are all degree classes, and each
    later round's are the parts the round before split off, in cell
    order.  The vector is packed into one int, 4 bits per count (a count
    is at most MAX_ORDER - 1 = 11), first splitter most significant, so
    descending ints are descending vectors.  All vertices of a cell have
    equally many neighbours, so this ranks them exactly as the sorted
    tuple of neighbour cells would: the first cell where two neighbour
    multisets differ puts the one with more neighbours there first.
    Singleton cells cannot split and get no vector; the rounds stop once
    the partition is discrete or a round splits nothing (McKay's
    equitable refinement, keyed only on the cells that just split as in
    McKay and Piperno, "Practical graph isomorphism, II", 2014).

    Keying each round on every cell gives the same cells in the same
    order.  Take two cells C and D after a round, where D did not split
    in that round.  The vertices of C all have the same count into D: if
    D was a splitter of the round, C's parent cell was split (or left
    whole) by exactly those counts; if not, D did not split in the round
    before either, and the same holds for C's parent cell by induction
    (every degree class is a first-round splitter).  So D's coordinate
    is constant within every cell the next round keys, and it can
    neither separate that cell's parts nor order them.
    """
    rows = g.rows
    by_degree: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        by_degree.setdefault(row.bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    splitters = cells
    while len(cells) < g.order:
        masks = []
        for cell in splitters:
            mask = 0
            for v in cell:
                mask |= 1 << v
            masks.append(mask)
        refined: list[list[int]] = []
        splitters = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            parts: dict[int, list[int]] = {}
            for v in cell:
                row = rows[v]
                key = 0
                for m in masks:
                    key = key << 4 | (row & m).bit_count()
                parts.setdefault(key, []).append(v)
            if len(parts) == 1:
                refined.append(cell)
                continue
            split = [parts[key] for key in sorted(parts, reverse=True)]
            refined.extend(split)
            splitters.extend(split)
        if not splitters:
            break
        cells = refined
    return cells


# _SPREAD[b] has bit 16 i set for each set bit i of the byte b; a row has
# at most MAX_ORDER = 12 bits, so two bytes spread it.
_SPREAD = [0]
for _bit in range(8):
    _SPREAD += [s | 1 << 16 * _bit for s in _SPREAD]
del _bit


def canonical_labeling(g: Graph) -> tuple[int, list[int], list[list[int]]]:
    """The minimal upper-triangle bit-string over relabelings, the first
    vertex order that reaches it, and automorphisms that generate Aut(g).

    The string is read pair-by-pair in the graph6 column order and
    packed so that earlier pairs land in more significant bits; the
    minimum is therefore the numeric minimum.  Only permutations that
    respect the order of g's refined cells (``_refined_cells``) are
    considered, which is sound as the cell sequence is isomorphism-invariant.

    Vertex ``order[i]`` gets label i in the canonical graph.  Every order
    that reaches the minimum is this one composed with an automorphism,
    so a vertex chosen by its canonical position is defined up to its
    orbit.

    A discrete partition admits one order, returned without the search
    (that would walk the one path), and as every automorphism keeps each
    cell, no automorphism but the identity.  Otherwise ``place`` extends
    the order from the free vertices of each position's cell (a bitmask).
    Every vertex's column against the placed prefix lives in a 16-bit
    field of one int: placing v shifts it left by one and ors in
    ``spread[v]`` (bit 16 w for each neighbour w).  The string is the
    columns in turn, so two orders compare at the first position where
    their columns differ.

    ``place`` finds the least column among the candidates, ``least``,
    and descends only the candidates whose column is ``least``, in
    ascending order.  Every subtree holds a leaf, as the lowest unplaced
    vertex of a cell is always free (see below), so a candidate of larger
    column heads only strings above those of a sibling, and no minimal
    order.  While the prefix equals the best order's (``equal``), a
    ``least`` above the best order's column at the position ends the
    node at once, and a child is equal iff ``least`` equals that column.
    A strictly smaller prefix (or the first, before any best) reaches a
    leaf, a new best, in its first child's subtree; its later children
    are then equal.  Both cuts remove only subtrees holding no minimal
    order, so every minimal order is still reached, in the same order as
    without them, and the first one is the first minimal order of the
    whole search.

    Twins prune the rest.  Vertices u < v are twins when
    N(u) - {v} = N(v) - {u}; this is an equivalence, and swapping u and
    v is an automorphism that fixes every other vertex, so twins share
    a refined cell.  A vertex is free once it is unplaced and every
    lower twin of it is placed: ``free`` starts as the vertices with no
    lower twin, and placing v frees ``next_twin[v]``, the bit of v's
    next larger twin (0 if none).  The search thus walks only the
    orders that place each twin class in ascending order, and still
    returns the first minimal order of the whole search, with its
    string:

    - That order places no twin v before a lower twin u.  Swapping them
      gives an order that reaches the same string (the swap is an
      automorphism), respects the cells and comes first in the search
      (u where v was, at the first position they differ), so it would
      be the first minimal order instead.  So it lies in no pruned
      subtree.
    - Skipping an unfree v leaves ``least`` as it was.  The lowest
      unplaced twin of v is free, in the same cell, and its column
      against the prefix equals v's (neither is placed).

    The generators are the swap of each twin with its next larger twin,
    and one map per leaf that ``place`` reaches with ``equal``: best[i] to
    perm[i], an automorphism as both orders reach one string.  A new best
    drops the maps.  An automorphism s keeps the cells, so s(best) is a
    minimal order, and twin swaps t make t s(best) place each twin class
    in ascending order; neither pruning cuts that order, so the search
    reaches it at or after the best, and t s is the identity or a map.
    """
    n = g.order
    cells = _refined_cells(g)
    if len(cells) == n:
        order = [cell[0] for cell in cells]
        return packed_pairs(g.rows, order), order, []
    rows = g.rows
    cell_at: list[int] = []  # the vertex mask of each position's cell
    next_twin = [0] * n
    free = (1 << n) - 1
    generators: list[list[int]] = []
    for cell in cells:
        cell_at.extend([sum(1 << v for v in cell)] * len(cell))
        for i, u in enumerate(cell):
            for v in cell[i + 1:]:
                if not (rows[u] ^ rows[v]) & ~(1 << u | 1 << v):
                    next_twin[u] = 1 << v
                    free ^= 1 << v  # v's previous twin is u alone
                    swap = list(range(n))
                    swap[u], swap[v] = v, u
                    generators.append(swap)
                    break
    twin_swaps = len(generators)
    spread = [_SPREAD[row & 0xFF] | _SPREAD[row >> 8] << 128 for row in rows]
    best_cols = [0] * n
    best_perm: list[int] = []
    perm = [0] * n

    def place(pos: int, cols: int, free: int, equal: bool) -> None:
        nonlocal best_perm
        if pos == n:
            if equal:
                image = [0] * n
                for u, v in zip(best_perm, perm):
                    image[u] = v
                generators.append(image)
            else:
                del generators[twin_swaps:]
                # field v ends in v's adjacency to the n - i - 1 vertices
                # placed after it, and one zero bit for v itself
                best_perm = perm[:]
                for i, v in enumerate(perm):
                    best_cols[i] = (cols >> 16 * v & 0xFFFF) >> n - i
            return
        candidates = cell_at[pos] & free
        least, ties = 1 << 16, 0
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            col = cols >> 16 * (low.bit_length() - 1) & 0xFFFF
            if col < least:
                least, ties = col, low
            elif col == least:
                ties |= low
        if equal and least > best_cols[pos]:
            return
        equal = equal and least == best_cols[pos]
        while ties:
            low = ties & -ties
            ties ^= low
            v = low.bit_length() - 1
            perm[pos] = v
            place(pos + 1, cols << 1 | spread[v], free ^ low | next_twin[v], equal)
            equal = True  # the first child's leaves made this prefix the best's

    place(0, 0, free, False)
    tri = 0
    for pos, col in enumerate(best_cols):
        tri = tri << pos | col
    return tri, best_perm, generators


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic."""
    return form_from_triangle(g.order, canonical_labeling(g)[0])


def form_from_triangle(n: int, tri: int) -> bytes:
    """The canonical form of order n whose minimal triangle is ``tri``."""
    return bytes([n]) + tri.to_bytes(max(1, (n * (n - 1) // 2 + 7) // 8), "big")


def graph_from_canonical_form(form: bytes) -> Graph:
    """The graph whose canonical form is ``form``: its order byte, then a
    body as long as ``form_from_triangle`` writes for that order."""
    if not form or len(form) != len(form_from_triangle(form[0], 0)):
        raise GraphError(f"canonical form {form!r} has the wrong length for its order")
    return from_packed_pairs(form[0], int.from_bytes(form[1:], "big"))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether the canonical forms are equal (C12 and a relabeling: about 40 ms)."""
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)
