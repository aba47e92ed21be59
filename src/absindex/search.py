"""Exhaustive search over connected isomorphism classes of small order.

One enumeration produces one representative per isomorphism class of
connected graphs: every connected graph on n vertices arises from a
connected graph on n - 1 vertices by attaching a new vertex to a
nonempty neighbor set.  This is McKay's canonical construction path
("Isomorph-free exhaustive generation", J. Algorithms 26, 1998): each
(n-1)-class is extended by one neighbour set per orbit of its
automorphism group, and a child is kept only if its new vertex lies in
the orbit of a canonically chosen non-cut vertex.  Each class then comes
from exactly one parent class, once, so the parents' outputs are
disjoint and hold no repeats (``_augment_parent`` has the argument).
The test suite checks it against a labeled sweep, against Pólya counts
and against labeled counts weighted by automorphism group orders.  On
top of the enumeration sit the constrained ABS maximizer, the verifier
of the theorems in the claim table ``extremal.CASES``, and the
exhaustive monotonicity checks.

The library has one order limit, MAX_SEARCH_ORDER = 9, with no opt-in:
``connected_class_forms`` checks it, and every search goes through that
function; the CLI keeps no limit of its own.

Per-class facts are computed once per order: every augmentation job
also computes χ, α, pendant count and the ABS value of each class it
finds, and the order's ``ClassTable`` keeps them in compact columns
parallel to its forms, in the one cache of each order.  A job's only
input is one row of the table of order n - 1: its parent's packed pair
string, χ and α.  It decodes the parent once, works out its degrees and
cut vertices once, and answers each child from them: its max-key test,
whether it is χ(parent)-colourable, and whether the vertices outside its
new vertex's neighbours hold an independent set of size α(parent), which
decides between the parent's value and one more; only the children that
pass the key test are built as graphs.

Each order has one table, built once and cached (``class_table``): a
child is labeled only where its acceptance needs it, and each other
child is kept under its own packed pair string, as a verdict needs each
class once with its row, not its canonical form.  A constrained
maximization is a scan of one column and a max over the value column;
only the maximizers are decoded again, labeled and sorted.  All forms
(``connected_class_forms``) are read off the same table: each string is
labeled once, and the sorted triangles are kept with the table.

Only the table builders, ``connected_class_forms`` and ``class_table``,
take a worker count: the jobs of the requested order share one pool, of
at most as many workers as this process has usable cores, and so do the
labelings of its forms read; every lower order is built in this process,
and the CLI makes one call per sweep.
Each job returns five columns (form, χ, α, pendants, ABS); they are
concatenated in job order, so the rows, and the reports, are identical
for any worker count.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace

from .extremal import CASES, THEOREMS
from .graphs import MAX_ORDER, Graph, encode_graph6, from_packed_pairs, reachable
from .index import _WEIGHT_BY_EDGE_DEGREE, abs_index, edge_weight, gain_contrast, shift_gain
from .invariants import (
    canonical_form,
    canonical_labeling,
    form_from_triangle,
    graph_from_canonical_form,
    independence_within,
    is_colorable,
)

MAX_SEARCH_ORDER = 9
TIE_TOLERANCE = 1e-9

CONSTRAINT_KINDS = ("chromatic", "independence", "pendants", "none")

_table_cache: dict[int, ClassTable] = {}


# -- worker pool ------------------------------------------------------


def _pool(size: int):
    """A pool of ``size`` forked workers.

    Forked workers start in about 0.03 s where spawned ones take 0.4 s,
    and the search runs no threads of its own for fork to break.  The
    first pool imports ``multiprocessing``, so importing the library
    does not.
    """
    import multiprocessing

    return multiprocessing.get_context("fork").Pool(size)


def _usable_cores() -> int:
    """The cores this process may run on; all of them where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map(fn, jobs: list, workers: int) -> Iterator:
    """``fn(job)`` for each job, in order, as the results come in.

    ``min(workers, usable cores)`` forked processes map the jobs if that
    is more than one and no more than the jobs, so none would sit idle;
    otherwise the jobs run in this process.  The pool is terminated, and
    its workers reaped, however the iteration ends.
    """
    size = min(workers, _usable_cores())
    if not 1 < size <= len(jobs):
        yield from map(fn, jobs)
        return
    pool = _pool(size)
    try:
        # about eight messages per worker: sent one job at a time, the
        # pickling round trips cost more than uneven chunks lose
        yield from pool.imap(fn, jobs, chunksize=max(1, len(jobs) // (8 * size)))
    finally:
        pool.terminate()


# -- augmentation fast path -------------------------------------------

# Among vertices of one degree, the sorted lists of neighbour degrees are
# ranked by per-degree counts packed into one int: the count of
# neighbours of degree k sits at bit 4 * (MAX_ORDER - k).  The least
# degree at which two such vertices' counts differ is where their sorted
# lists first differ, and the one with more neighbours of that degree has
# the smaller list.  So a larger packing is a smaller list and equal
# packings are equal lists; no count exceeds MAX_ORDER - 1 < 16, so no
# field carries into the next.
_DEGREE_WEIGHT = tuple(1 << 4 * (MAX_ORDER - k) for k in range(MAX_ORDER + 1))


def _components_without(rows: Sequence[int], v: int) -> list[int]:
    """The vertex masks of the components that deleting v leaves."""
    rest = ((1 << len(rows)) - 1) & ~(1 << v)
    components = []
    while rest:
        seen = reachable(rows, rest & -rest, rest)
        components.append(seen)
        rest &= ~seen
    return components


class _Parent:
    """What every one-vertex extension of one parent is answered from.

    The parent is given by its order and a packed pair string of it (its
    minimal triangle or any other), decoded here once, and its χ and α,
    taken as given from its order's class table.  A child
    adds the new vertex ``order`` on a neighbour mask ``nbrs``; its
    degrees are the parent's plus ``nbrs`` and ``|nbrs|`` for the new
    vertex.  ``_augment_parent`` has the argument for each rule.
    """

    def __init__(self, order: int, pairs: int, chromatic: int, independence: int) -> None:
        self.pairs = pairs
        self.graph = from_packed_pairs(order, pairs)
        self.rows = rows = self.graph.rows
        degrees = [row.bit_count() for row in rows]
        # by_degree[k]: the vertices of degree k; above[k]: those above k
        self.by_degree = [0] * (order + 1)
        for v, k in enumerate(degrees):
            self.by_degree[k] |= 1 << v
        self.above = [0] * (order + 1)
        for k in range(order - 1, -1, -1):
            self.above[k] = self.above[k + 1] | self.by_degree[k + 1]
        # the components of P - v, and the vertices that leave just one
        self.components = [_components_without(rows, v) for v in range(order)]
        self.whole = sum(
            1 << v for v, parts in enumerate(self.components) if len(parts) == 1
        )
        # packed neighbour degrees (``_DEGREE_WEIGHT``) of each vertex set
        # at the parent's degrees; >> 4 packs them one degree higher, as the
        # new vertex's neighbours have in the child (every term is a multiple of 16)
        self.packed = _subset_sums([_DEGREE_WEIGHT[k] for k in degrees])
        self.chromatic = chromatic
        self.independence = independence

    def max_key_ties(self, nbrs: int) -> list[int] | None:
        """The child's non-cut vertices with the largest key (degree,
        ascending neighbour degrees), if its new vertex is one of them,
        else None; the new vertex is listed last, the others ascend.
        """
        d = nbrs.bit_count()
        whole = self.whole
        components = self.components
        # child degree above d: a parent vertex whose deletion leaves one
        # component stays non-cut unless it is the only neighbour
        higher = self.above[d] | nbrs & self.by_degree[d]
        if higher & (whole & ~nbrs if d == 1 else whole):
            return None
        higher &= ~whole
        while higher:
            low = higher & -higher
            if all(nbrs & part for part in components[low.bit_length() - 1]):
                return None
            higher ^= low
        tied = []
        equal = self.by_degree[d] & ~nbrs | nbrs & self.by_degree[d - 1]
        if equal:
            rows, packed = self.rows, self.packed
            key = packed[nbrs] >> 4
            while equal:
                low = equal & -equal
                equal ^= low
                v = low.bit_length() - 1
                row = rows[v]
                own = packed[row & ~nbrs] + (packed[row & nbrs] >> 4)
                if nbrs & low:
                    own += _DEGREE_WEIGHT[d]
                if own > key:
                    continue
                if nbrs & ~low if whole & low else all(
                    nbrs & part for part in components[v]
                ):
                    if own < key:
                        return None
                    tied.append(v)
        tied.append(len(self.rows))
        return tied


def _subset_sums(values: list[int]) -> list[int]:
    """``sums[mask]``: the sum of ``values[v]`` over the vertices v in mask."""
    sums = [0]
    for value in values:  # the sets with vertex v follow those below 2^v
        sums += [s + value for s in sums]
    return sums


@functools.cache
def _reversed_masks(width: int) -> list[int]:
    """``reversed[mask]``: mask with bit v moved to bit width - 1 - v."""
    return _subset_sums([1 << width - 1 - v for v in range(width)])


def _child_row(parent: _Parent, child: Graph, nbrs: int) -> tuple[int, int, int, float]:
    """χ, α, pendant count and ABS of the child on neighbour mask ``nbrs``."""
    chromatic = parent.chromatic
    if not is_colorable(child, chromatic):
        chromatic += 1
    rest = ((1 << len(parent.rows)) - 1) & ~nbrs
    independence = 1 + independence_within(
        parent.rows, rest, parent.independence - 1
    )
    by_degree = parent.by_degree
    # parent pendants off N stay pendants, an isolated parent vertex (K1)
    # on N becomes one, and so does a new vertex with one neighbour
    pendants = (
        (by_degree[1] & ~nbrs).bit_count()
        + (by_degree[0] & nbrs).bit_count()
        + (nbrs.bit_count() == 1)
    )
    return chromatic, independence, pendants, abs_index(child)


def _augment_parent(
    row: tuple[int, int, int, int],
) -> tuple[array, array, array, array, array]:
    """The new classes one parent generates, with their table rows.

    ``row`` is the parent's order and its (pair string, χ, α) row of its
    order's class table.  Returns the form, χ, α, pendant and ABS columns
    of the accepted one-vertex extensions of the parent, one row per
    class; a form is a packed pair string of the child (see Unlabeled
    below).  The rules follow McKay's canonical construction path
    ("Isomorph-free exhaustive generation", J. Algorithms 26, 1998).

    Child side.  Let m(G) be, among the non-cut vertices of G with the
    largest key (degree, ascending neighbour degrees), the one that the
    canonical labeling of G places last.  Canonical labelings differ by
    automorphisms, so m(G) is defined up to its orbit.  A child is
    accepted only if its new vertex lies in the orbit of m(child).  Then
    every class G is accepted from exactly one parent class, that of
    G - m(G): G - m(G) is connected, extending it by the neighbours of
    m(G) gives G back with m(G) as the new vertex, and any other
    accepted parent is G - v for a v in the orbit of m(G), which is
    isomorphic to G - m(G).  So the outputs of different parents are
    disjoint.  One ``canonical_labeling(child)`` call refines and labels
    the child once: its order gives m(child), and the automorphism
    generators found by the same search give the new vertex's orbit.

    Parent side.  A parent automorphism s extends, fixing the new vertex,
    to an isomorphism from the child on S onto the child on s(S), so the
    two are one class and the rule accepts both or neither.  Only the
    least neighbour set of each orbit of Aut(parent) is therefore tried
    (``_orbit_leaders``).  Two accepted children of one parent are not
    isomorphic: an isomorphism can be chosen to map new vertex to new
    vertex, as each lies in the orbit of m(child), and it then restricts
    to a parent automorphism between their neighbour sets.  Neither side
    depends on which labeling of the parent class ``row`` holds.

    Unlabeled.  A child whose only max-key non-cut vertex is the new one
    (``tied`` holds it alone) has m(child) = new under any labeling, so
    it is accepted without one, and its form is its own packed pair
    string: the parent's, one column up, then the new vertex's column,
    ``nbrs`` reversed.  Only the children still tied are labeled, and
    their form is their minimal triangle.

    From the parent.  The key test and the row of the child C on a
    neighbour set N are answered from facts gathered once per parent P
    (``_Parent``), and C is built only if it passes the test.
    - Cut vertices.  C - new = P is connected, so the new vertex is never
      a cut vertex.  For a parent vertex v, C - v is P - v with the new
      vertex joined to N - {v}, so it is connected iff N - {v} meets
      every component of P - v.  When P - v is connected, that fails
      only for N = {v}.
    - Keys.  C's degrees are P's plus one on N, and |N| for the new
      vertex.  Only the vertices of child degree |N| need neighbour
      degrees; each is packed (``_DEGREE_WEIGHT``) from the parent's
      degrees, one higher on N, plus the new vertex if it is a neighbour.
    - α.  An independent set of C without the new vertex lies in P; one
      with it is the new vertex plus an independent set of P - N.  So
      α(C) = max(α(P), 1 + α(P - N)), and as α(P - N) <= α(P) the
      branch-and-bound on P - N starts from the floor α(P) - 1.
    - χ.  P is an induced subgraph of C, and the new vertex can take a
      colour of its own, so χ(C) is χ(P) if C is χ(P)-colourable and
      χ(P) + 1 otherwise.
    - Pendants are counted from C's degrees; ABS is ``abs_index(C)``.
    """
    parent = _Parent(*row)
    new = len(parent.rows)
    shifted, new_column = parent.pairs << new, _reversed_masks(new)
    columns = _new_columns()
    for nbrs in _orbit_leaders(parent.graph):
        tied = parent.max_key_ties(nbrs)
        if tied is None:
            continue
        rows = [r | (nbrs >> v & 1) << new for v, r in enumerate(parent.rows)]
        rows.append(nbrs)
        child = Graph(new + 1, tuple(rows))
        if len(tied) == 1:
            form = shifted | new_column[nbrs]
        else:
            form, order, generators = canonical_labeling(child)
            last = max(tied, key=order.index)  # m(child)
            if last != new and not _orbit(generators, new) >> last & 1:
                continue
        for column, value in zip(columns, (form, *_child_row(parent, child, nbrs))):
            column.append(value)
    return columns


def _new_columns() -> tuple[array, array, array, array, array]:
    """Empty form, χ, α, pendant and ABS columns, in ``ClassTable`` order."""
    return array("Q"), array("b"), array("b"), array("b"), array("d")


def _orbit(generators: list[list[int]], v: int) -> int:
    """The vertex mask of v's orbit under the group the maps generate."""
    orbit, reached = 1 << v, [v]
    for u in reached:  # grows as it is read
        for sigma in generators:
            if not orbit >> sigma[u] & 1:
                orbit |= 1 << sigma[u]
                reached.append(sigma[u])
    return orbit


def _orbit_leaders(g: Graph) -> list[int]:
    """The least neighbour set in each orbit of Aut(g), which the
    generators from ``canonical_labeling(g)`` generate.

    Sets are nonempty vertex bitmasks, listed in ascending order.
    """
    size = 1 << g.order
    # each mask's image: the sum of its vertices' image bits
    images = [_subset_sums([1 << w for w in a]) for a in canonical_labeling(g)[2]]
    reached = bytearray(size)
    leaders = []
    for mask in range(1, size):
        if reached[mask]:
            continue
        leaders.append(mask)
        reached[mask] = 1
        stack = [mask]
        while stack:
            s = stack.pop()
            for image in images:
                t = image[s]
                if not reached[t]:
                    reached[t] = 1
                    stack.append(t)
    return leaders


def connected_class_forms(
    n: int, workers: int = 1, *, lazy: bool = False
) -> tuple[bytes, ...] | None:
    """Sorted canonical forms of all connected isomorphism classes.

    Builds, or finds in the cache, the ``ClassTable`` of order n, which
    is never rebuilt.  Each row of the table of order n - 1, cached or
    built first, is one job (``_augment_parent``); any labeling of a
    parent class gives the same classes.  The jobs of order n share one
    pool of at most ``workers`` processes; lower orders are built in this
    process.  The jobs' outputs are disjoint, so their five columns are
    concatenated.  The forms are read off the table: each pair string is
    labeled once (``_minimal_triangle``), in a pool of the same size, and
    the sorted triangles are kept with the table.  An order outside
    1..MAX_SEARCH_ORDER raises ValueError before any order is built.

    ``lazy`` builds or finds the table and returns None: the route of
    ``class_table``.  The benchmark's tracer names this function's spans
    ``search.enumerate[n]``, and ``perfbench/run.py`` ``sweep_traced``
    reads the build's time from ``outer[0]`` of the ``search.enumerate[8]``
    spans of a traced sweep; a span of ``class_table``'s own would let
    the keyword go.
    """
    if not 1 <= n <= MAX_SEARCH_ORDER:
        raise ValueError(f"order {n} outside the supported range 1..{MAX_SEARCH_ORDER}")
    table = _table_cache.get(n)
    if table is None:
        table = _table_cache[n] = _build_table(n, workers)
    if lazy:
        return None
    if table.triangles is None:
        labeled = _map(functools.partial(_minimal_triangle, n), table.forms, workers)
        # one order's triangles have one length, so the ints sort as the forms
        table = _table_cache[n] = replace(table, triangles=array("Q", sorted(labeled)))
    return tuple(form_from_triangle(n, tri) for tri in table.triangles)


def _minimal_triangle(n: int, pairs: int) -> int:
    """The minimal triangle of the class that ``pairs`` packs on n vertices."""
    return canonical_labeling(from_packed_pairs(n, pairs))[0]


def _build_table(n: int, workers: int) -> ClassTable:
    """The class table of order n, its rows in job order."""
    if n == 1:  # K1: χ = α = 1, no pendants, no edges
        parts = [([0], [1], [1], [0], [0.0])]
    else:
        parents = class_table(n - 1)
        rows = zip(parents.forms, parents.chromatic, parents.independence)
        jobs = [(n - 1, *row) for row in rows]
        parts = _map(_augment_parent, jobs, workers)
    columns = _new_columns()
    for part in parts:
        for column, piece in zip(columns, part):
            column.extend(piece)
    return ClassTable(*columns)


def enumerate_connected(n: int) -> list[Graph]:
    """One canonically labeled representative per connected class."""
    return [graph_from_canonical_form(f) for f in connected_class_forms(n)]


# -- constrained maximization -----------------------------------------


@dataclass(frozen=True)
class Constraint:
    """A single-invariant restriction on connected graphs of one order."""

    order: int
    kind: str = "none"
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind != "none" and self.value is None:
            raise ValueError(f"constraint kind {self.kind!r} needs a value")


@dataclass(frozen=True)
class SearchReport:
    """Result of a constrained exhaustive ABS maximization."""

    constraint: Constraint
    graph_count: int
    max_value: float | None
    maximizer_forms: tuple[bytes, ...]
    maximizer_graph6: tuple[str, ...]
    unique: bool
    construction_match: bool | None = None
    in_hypothesis: bool | None = None
    expected_graph6: str | None = None


@dataclass(frozen=True)
class ClassTable:
    """Invariant columns of all connected classes of one order.

    ``forms`` holds one packed pair string per class
    (``graphs.from_packed_pairs`` decodes it), of any labeling of the
    class, in job order; row i of every other column describes
    ``forms[i]``; the columns are named after the constraint kinds they
    answer.  ``triangles`` holds the classes' minimal triangles in
    ascending order, apart from the rows, once ``connected_class_forms``
    has read them, and is None before.
    """

    forms: array
    chromatic: array
    independence: array
    pendants: array
    abs_value: array
    triangles: array | None = field(default=None, compare=False)


def class_table(n: int, workers: int = 1) -> ClassTable:
    """The cached invariant table of order n, for verdicts.

    A cached table is returned as it is.  Otherwise it is built
    (``connected_class_forms(n, lazy=True)``): each row is computed in
    the augmentation job that finds its class, from that job's parent
    (``_augment_parent``), and only the children whose acceptance needs
    a labeling get one.  Order n's jobs share one pool of at most
    ``workers``; the lower orders it needs are built in this process.
    """
    connected_class_forms(n, workers, lazy=True)
    return _table_cache[n]


def max_abs_under(constraint: Constraint) -> SearchReport:
    """Exact maximum of the ABS index over the constrained classes.

    Scans ``class_table(order)``, built serially unless cached.  All
    graphs within TIE_TOLERANCE of the maximum are collected, so a
    false uniqueness claim would surface as multiple maximizers; they
    are labeled and reported by canonical form, in ascending order.
    """
    n = constraint.order
    table = class_table(n)
    if constraint.kind == "none":
        selected = range(len(table.forms))
    else:
        column = getattr(table, constraint.kind)
        selected = [i for i, v in enumerate(column) if v == constraint.value]
    values = table.abs_value
    best = max((values[i] for i in selected), default=None)
    tied = [table.forms[i] for i in selected if best - values[i] <= TIE_TOLERANCE]
    winners = sorted(_minimal_triangle(n, pairs) for pairs in tied)
    return SearchReport(
        constraint=constraint,
        graph_count=len(selected),
        max_value=best,
        maximizer_forms=tuple(form_from_triangle(n, tri) for tri in winners),
        maximizer_graph6=tuple(encode_graph6(from_packed_pairs(n, tri)) for tri in winners),
        unique=len(winners) == 1,
    )


def verify_theorem(theorem: str, n: int, k: int) -> SearchReport:
    """Exhaustively test one extremal characterization at one (n, k).

    Scans ``class_table(n)`` through ``max_abs_under``.  Where the
    claimed maximizer does not exist there is no claim: the report says
    ``construction_match=False`` and ``in_hypothesis=False``.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}; expected one of {THEOREMS}")
    case = CASES[theorem]
    report = max_abs_under(Constraint(n, case.kind, k))
    expected = case.maximizer(n, k)
    if expected is None:
        return replace(report, construction_match=False, in_hypothesis=False)
    return replace(
        report,
        construction_match=report.unique
        and report.maximizer_forms[0] == canonical_form(expected),
        in_hypothesis=n >= case.claimed_from and k in case.params(n),
        expected_graph6=encode_graph6(expected),
    )


# -- edge-addition monotonicity ---------------------------------------


@dataclass(frozen=True)
class EdgeAdditionReport:
    """Outcome of the exhaustive single-edge-addition increase check."""

    order: int
    passed: bool
    checks: int
    min_margin: float | None
    counterexample: str | None  # graph6 of the offending graph, if any


def check_edge_additions(n: int) -> EdgeAdditionReport:
    """Adding any edge to any connected class must strictly raise ABS.

    Each addition's margin comes from the class's degrees
    (``_addition_margins``); its sign is checked numerically.  The
    classes are read from ``class_table(n)``, in its row order, which
    does not depend on the worker count, and neither do the first
    failing class and the count of checks before it.
    """
    min_margin = None
    checks = 0
    for pairs in class_table(n).forms:
        g = from_packed_pairs(n, pairs)
        for margin in _addition_margins(g.rows):
            checks += 1
            if min_margin is None or margin < min_margin:
                min_margin = margin
            if margin <= 0:
                return EdgeAdditionReport(n, False, checks, min_margin, encode_graph6(g))
    return EdgeAdditionReport(n, True, checks, min_margin, None)


def _addition_margins(rows: Sequence[int]) -> list[float]:
    """ABS(g + uv) - ABS(g) for each non-edge uv of the graph on ``rows``,
    u < v, in lexicographic order.

    Adding uv raises the degrees of u and v by one and no others, so only
    the edges at u and v change weight.  With W the weight by edge degree
    and d the degrees in g, the margin is W(d_u + d_v), the new edge's
    weight, plus gain(u) + gain(v), where gain(u) is the sum over the
    neighbours x of u of W(d_u + d_x - 1) - W(d_u + d_x - 2).  W(k) =
    sqrt(k / (k + 2)) grows with k, so every gain term is >= 0; and in a
    connected graph of order n >= 3 every degree is at least 1, so
    W(d_u + d_v) > 0.  Adding an edge therefore strictly raises ABS.
    """
    weight = _WEIGHT_BY_EDGE_DEGREE
    n = len(rows)
    degrees = [row.bit_count() for row in rows]
    gains = [0.0] * n
    missing = []
    for u, row in enumerate(rows):
        du = degrees[u]
        for v in range(u + 1, n):
            if row >> v & 1:  # the edge uv adds to both gains
                s = du + degrees[v]
                step = weight[s - 1] - weight[s - 2]
                gains[u] += step
                gains[v] += step
            else:
                missing.append((u, v))
    return [weight[degrees[u] + degrees[v]] + gains[u] + gains[v] for u, v in missing]


# -- scalar finite-difference suites ----------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    """One finite-difference property verdict over a grid."""

    name: str
    passed: bool
    checks: int
    min_margin: float


# the grids of the finite-difference projections of the scalar claims
_XY_POINTS = tuple(1 + 0.5 * i for i in range(99))
_DELTAS = (0.5, 1.0, 2.0)
_SHIFTS = (1.0, 2.0, 3.0)
_CONTRAST_BOUNDS = tuple(range(1, 21))
_CONTRAST_X = tuple(float(x) for x in range(1, 51))


@functools.cache
def check_scalar_properties() -> tuple[PropertyCheck, ...]:
    """Sign checks for the monotonicity/convexity claims on f, g and h.

    Strict positivity is required everywhere except the contrast check
    at equal bounds, where the function is identically zero.  The grids
    are fixed, so the checks run once per process and later calls return
    the same tuple.
    """
    results = []

    margins = []
    for d in _DELTAS:
        for x in _XY_POINTS:
            for y in _XY_POINTS:
                margins.append(edge_weight(x + d, y) - edge_weight(x, y))
    results.append(_verdict("edge_weight increasing in x", margins))

    dec_margins = []
    cvx_margins = []
    for s in _SHIFTS:
        for d in _DELTAS:
            for x in _XY_POINTS:
                for y in _XY_POINTS:
                    g0 = shift_gain(s, x, y)
                    g1 = shift_gain(s, x + d, y)
                    g2 = shift_gain(s, x + 2 * d, y)
                    dec_margins.append(g0 - g1)
                    cvx_margins.append(g0 + g2 - 2 * g1)
    results.append(_verdict("shift_gain decreasing in x", dec_margins))
    results.append(_verdict("shift_gain convex in x", cvx_margins))

    # the contrast toward the smaller bound shrinks as x grows;
    # equivalently the reversed difference grows (the two are negatives)
    dec_contrast = []
    zero_ok = True
    zero_checks = 0
    for s in _SHIFTS:
        for d in _DELTAS:
            for lo in _CONTRAST_BOUNDS:
                for hi in _CONTRAST_BOUNDS:
                    if hi < lo:
                        continue
                    for x in _CONTRAST_X:
                        step = gain_contrast(s, lo, hi, x) - gain_contrast(
                            s, lo, hi, x + d
                        )
                        if lo == hi:
                            zero_checks += 1
                            zero_ok &= step == 0.0
                        else:
                            dec_contrast.append(step)
    results.append(_verdict("gain_contrast decreasing in x", dec_contrast))
    results.append(
        PropertyCheck(
            "gain_contrast constant at equal bounds", zero_ok, zero_checks, 0.0
        )
    )
    return tuple(results)


def _verdict(name: str, margins: list[float]) -> PropertyCheck:
    m = min(margins)
    return PropertyCheck(name, m > 0, len(margins), m)
