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
input is one row of the table of order n - 1: its parent's path
string, χ and α.  It decodes the parent once, and works out once its
degrees, cut vertices, edges and the colour classes of all its
χ-colourings; every child is answered from them.  Neighbour sets of the
sizes that a non-cut vertex of larger degree rules out are never tried.
The key test (degree, neighbour degrees) runs on the parent's degrees;
only the vertices it leaves tied with the new one get the finer key
(triangles and common neighbours), counted on the child's rows; a child
whose remaining ties are twins of its new vertex is accepted outright;
only the rest are built as graphs and labeled.  The row of an accepted
child follows from the parent too: χ from whether a colour class misses
the new vertex's neighbours, α from one bounded independent-set search
outside them, the pendant count from the parent's degrees, and ABS as
the fsum of the child's edge weights, read off the parent's edges.  The
colour classes come from the library's one colouring search, the one
that computes χ (``invariants.colour_classes``).  ``_augment_parent``
has the argument for each rule.

Each order has one table, built once and cached (``class_table``), with
each class under its path string: its parent's row one column up, then
the new vertex's column.  A child is labeled only where its acceptance
needs it.  All forms (``connected_class_forms``) are read off the same
table: each string is labeled once, and the sorted triangles are kept
with it.  A bucket is the classes of one order that share a χ, an α or
a pendant count, or all of them; its record (``_build_records``) holds
their count, their max ABS and the classes within TIE_TOLERANCE of it.
A verdict reads one record and labels only its candidates
(``max_abs_under``).  The top order of a sweep is reduced to records
inside the shares, and its table is never built.

Only ``connected_class_forms`` takes a worker count, and only its
records build forks (``_build_records``): the jobs of the requested
order, each the row index of its parent one order down, are dealt into
shares, one per worker up to the usable cores (``_in_shares``).  This
process computes the first share and forks a child for each other one,
which inherits the parent table and sends its share's records back
through a pipe.  A job's exception in a child is raised here, and no
child outlives the call.  Every table and every forms read is built in
this process, job by job.  Records merge in any order to the same
values, so the reports are identical for any worker count.
"""

from __future__ import annotations

import functools
import math
import os
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import NoReturn

from .extremal import CASES, THEOREMS
from .graphs import MAX_ORDER, Graph, encode_graph6, from_packed_pairs, reachable
from .index import _WEIGHT_BY_EDGE_DEGREE, edge_weight, gain_contrast, shift_gain
from .invariants import (
    canonical_form,
    canonical_labeling,
    colour_classes,
    form_from_triangle,
    graph_from_canonical_form,
    independence_within,
)

MAX_SEARCH_ORDER = 9
TIE_TOLERANCE = 1e-9

CONSTRAINT_KINDS = ("chromatic", "independence", "pendants", "none")

_table_cache: dict[int, ClassTable] = {}
_record_cache: dict[int, dict] = {}  # order: records (``_build_records``)


# -- forked shares ----------------------------------------------------


def _usable_cores() -> int:
    """The cores this process may run on; all of them where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_shares(fn, jobs: Sequence, workers: int) -> list:
    """``fn(share)`` for each share of the jobs, in share order.

    With ``size = min(workers, usable cores)``, if that is more than one
    and no more than the jobs, so that no share is empty, the jobs are
    dealt into ``size`` shares, share k taking jobs k, k + size, k + 2 *
    size and so on, which spreads the costly jobs evenly, and ``_shares``
    computes them; job i is item i // size of share i % size.  Otherwise
    all the jobs are one share, computed in this process.
    """
    size = min(workers, _usable_cores())
    if not 1 < size <= len(jobs):
        return [fn(jobs)]
    return _shares(fn, [jobs[k::size] for k in range(size)])


def _shares(fn, shares: list[Sequence]) -> list:
    """``fn(share)`` for each share: the first in this process, each
    other in a forked child that pickles its result back through a pipe.

    A fork takes about 0.4 ms in a process holding the order-8 table (an
    Intel Xeon host, Python 3.11.7), the child inherits the class tables
    it reads, and the search runs no threads for a fork to break.  An
    exception that ``fn`` raises in a child is raised here, with its type
    and message; a child that exits without sending its result raises
    RuntimeError, naming its exit status or signal.  However this returns
    or raises, an exception or interrupt in this process's own share
    included, every child still running is killed, and every child is
    reaped.  ``pickle`` and ``signal`` are imported here, so importing the
    library loads neither.
    """
    import pickle
    import signal

    running = {}  # pid: the read end of its pipe, until it is reaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
                if not pid:
                    _send_share(fn, share, write)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)
            running[pid] = read
        results = [fn(shares[0])]
        for k, (pid, read) in enumerate(list(running.items()), 1):
            data = b"".join(iter(functools.partial(os.read, read, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            os.close(running.pop(pid))
            code = os.waitstatus_to_exitcode(status)
            if code or not data:
                how = f"by {signal.Signals(-code).name}" if code < 0 else f"with status {code}"
                raise RuntimeError(f"share {k} ended {how} without its results")
            sent, value = pickle.loads(data)
            if not sent:
                raise value
            results.append(value)
        return results
    finally:
        for pid, read in running.items():
            os.close(read)
            os.kill(pid, signal.SIGKILL)
        for pid in running:
            os.waitpid(pid, 0)


def _send_share(fn, share: Sequence, fd: int) -> NoReturn:
    """In a forked child: pickle ``(True, fn(share))``, or ``(False,
    exception)`` if ``fn`` raises, to ``fd``, and exit through
    ``os._exit``, so that no atexit handler runs and no buffer inherited
    from the parent is flushed twice."""
    import pickle

    status = 1
    try:
        try:
            payload = pickle.dumps((True, fn(share)))
        except Exception as exc:
            try:
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)
            except Exception:  # one that pickle cannot carry
                carried = RuntimeError(f"{type(exc).__name__}: {exc}")
                payload = pickle.dumps((False, carried))
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


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

    The parent is given by its order and its row of its order's class
    table: its path string, decoded here once, and its χ and α, taken as
    given.  A child adds the new vertex ``order`` on a neighbour mask
    ``nbrs``; its degrees are the parent's plus ``nbrs`` and ``|nbrs|``
    for the new vertex.  ``_augment_parent`` has the argument for each rule.
    """

    def __init__(self, order: int, pairs: int, chromatic: int, independence: int) -> None:
        self.pairs = pairs
        self.graph = from_packed_pairs(order, pairs)
        self.rows = rows = self.graph.rows
        self.degrees = degrees = [row.bit_count() for row in rows]
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
        # the neighbour-set sizes the key test rejects: from 2 up to the
        # largest degree of a vertex in ``whole``, exclusive
        self.rejected_sizes = range(
            2, max((k for v, k in enumerate(degrees) if self.whole >> v & 1), default=0)
        )
        # packed neighbour degrees (``_DEGREE_WEIGHT``) of each vertex set
        # at the parent's degrees; >> 4 packs them one degree higher, as the
        # new vertex's neighbours have in the child (every term is a multiple of 16)
        self.packed = _subset_sums([_DEGREE_WEIGHT[k] for k in degrees])
        self.chromatic = chromatic
        self.independence = independence
        self.colour_classes = colour_classes(rows, chromatic)
        # each edge as the mask of its ends and its edge degree
        self.edges = [
            (1 << u | 1 << v, degrees[u] + degrees[v] - 2) for u, v in self.graph.edges()
        ]

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

    def child_rows(self, nbrs: int) -> list[int]:
        """The child's rows: the parent's, with the new vertex joined to ``nbrs``."""
        new = len(self.rows)
        rows = [r | (nbrs >> v & 1) << new for v, r in enumerate(self.rows)]
        rows.append(nbrs)
        return rows

    def accepts_tied(self, nbrs: int, tied: list[int]) -> bool:
        """Whether the child on ``nbrs`` is accepted, given the max-key
        ties (``max_key_ties``) of its new vertex with other vertices."""
        rows = self.child_rows(nbrs)
        tied = _finer_ties(rows, tied)
        if tied is None:
            return False
        return self.twins_of_new(nbrs, tied) or _accepted_by_labeling(rows, tied)

    def twins_of_new(self, nbrs: int, tied: list[int]) -> bool:
        """Whether each vertex of ``tied`` but the last, the new vertex, is
        its twin in the child on ``nbrs``: a parent vertex v whose parent
        neighbours are ``nbrs`` without v."""
        rows = self.rows
        return all(rows[v] == nbrs & ~(1 << v) for v in tied[:-1])

    def colourable(self, nbrs: int) -> bool:
        """Whether the child on ``nbrs`` is χ(parent)-colourable."""
        return any(not members & nbrs for members in self.colour_classes)

    def pendants(self, nbrs: int) -> int:
        """The child's pendant count."""
        by_degree = self.by_degree
        return (by_degree[1] & ~nbrs | by_degree[0] & nbrs).bit_count() + (
            nbrs.bit_count() == 1
        )

    def abs_value(self, nbrs: int) -> float:
        """The child's ABS index: the fsum of the weights ``abs_index``
        sums on the child, one per edge at its edge degree."""
        weight = _WEIGHT_BY_EDGE_DEGREE
        weights = [weight[k + (nbrs & ends).bit_count()] for ends, k in self.edges]
        d = nbrs.bit_count()
        weights += [weight[k + d - 1] for v, k in enumerate(self.degrees) if nbrs >> v & 1]
        return math.fsum(weights)


def _finer_ties(rows: list[int], tied: list[int]) -> list[int] | None:
    """Of ``tied``, max-key vertices of the child on ``rows`` with the new
    vertex last, those with the largest finer key (``_finer_key``) if the
    new vertex is one of them, else None; the new vertex stays last."""
    keys = [_finer_key(rows, v) for v in tied]
    if max(keys) > keys[-1]:
        return None
    return [v for v, key in zip(tied, keys) if key == keys[-1]]


def _finer_key(rows: list[int], v: int) -> tuple[int, list[int]]:
    """Twice the number of triangles through v, and the ascending numbers
    of common neighbours along v's edges, whose sum it is."""
    row = rows[v]
    counts = []
    rest = row
    while rest:
        low = rest & -rest
        counts.append((row & rows[low.bit_length() - 1]).bit_count())
        rest ^= low
    counts.sort()
    return sum(counts), counts


def _accepted_by_labeling(rows: list[int], tied: list[int]) -> bool:
    """Whether the vertex of ``tied`` that the canonical labeling of the
    child on ``rows`` places last, m(child), lies in the orbit of the new
    vertex, the last of ``tied``."""
    new = tied[-1]
    _, order, generators = canonical_labeling(Graph._from_valid_rows(new + 1, tuple(rows)))
    last = max(tied, key=order.index)
    return last == new or bool(_orbit(generators, new) >> last & 1)


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


def _child_row(parent: _Parent, nbrs: int) -> tuple[int, int, int, float]:
    """χ, α, pendant count and ABS of the child on neighbour mask ``nbrs``."""
    chromatic = parent.chromatic + (not parent.colourable(nbrs))
    rest = ((1 << len(parent.rows)) - 1) & ~nbrs
    independence = 1 + independence_within(
        parent.rows, rest, parent.independence - 1
    )
    return chromatic, independence, parent.pendants(nbrs), parent.abs_value(nbrs)


def _augment_parent(
    row: tuple[int, int, int, int],
) -> tuple[array, array, array, array, array]:
    """The new classes one parent generates, with their table rows.

    ``row`` is the parent's order and its (pair string, χ, α) row of its
    order's class table.  Returns the form, χ, α, pendant and ABS columns
    of the accepted one-vertex extensions of the parent, one row per
    class; a form is the child's path string (see Forms below).  The
    rules follow McKay's canonical construction path ("Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998).

    Child side.  The key of a vertex is (degree, ascending neighbour
    degrees, number of triangles through it, ascending numbers of common
    neighbours along its edges).  Let m(G) be, among the non-cut vertices
    of G with the largest key, the one that the canonical labeling of G
    places last.  The key is an isomorphism invariant and canonical
    labelings differ by automorphisms, so m(G) is defined up to its
    orbit; any invariant key would do, and a finer one leaves fewer ties
    for the labeling to break (nauty's ``geng`` refines its deletion
    choice with vertex invariants in the same way).  A child is accepted
    only if its new vertex lies in the orbit of m(child).  Then every
    class G is accepted from exactly one parent class, that of G - m(G):
    G - m(G) is connected, extending it by the neighbours of m(G) gives G
    back with m(G) as the new vertex, and any other accepted parent is
    G - v for a v in the orbit of m(G), which is isomorphic to G - m(G).
    So the outputs of different parents are disjoint.

    Parent side.  A parent automorphism s extends, fixing the new vertex,
    to an isomorphism from the child on S onto the child on s(S), so the
    two are one class and the rule accepts both or neither.  Only the
    least neighbour set of each orbit of Aut(parent) is therefore tried
    (``_orbit_leaders``).  Two accepted children of one parent are not
    isomorphic: an isomorphism can be chosen to map new vertex to new
    vertex, as each lies in the orbit of m(child), and it then restricts
    to a parent automorphism between their neighbour sets.  Neither side
    depends on which labeling of the parent class ``row`` holds.

    Deciding a child.  Each step below settles the child C on a neighbour
    set N of the parent P, or leaves it to the next; only the last one
    builds C as a graph and labels it.
    - Sizes.  Let D be the largest degree of a vertex w of P whose
      deletion leaves P connected.  If 2 <= |N| < D, then w has degree at
      least D > |N| in C, and C - w, which is P - w with the new vertex
      joined to the nonempty N - {w}, is connected: a non-cut vertex
      outranks the new one, and C is rejected.  Automorphisms keep sizes,
      so no orbit of sets of those sizes is walked or tried.
    - Key (``_Parent.max_key_ties``).  The new vertex must have the
      largest (degree, neighbour degrees) key among C's non-cut vertices;
      if no other one ties with it, m(C) is the new vertex under any
      labeling and C is accepted.
    - Finer key (``_finer_ties``).  Only the tied vertices get the rest of
      the key, counted on C's rows: C is rejected if one of them
      outranks the new vertex, and those the new vertex outranks drop out.
    - Twins.  If every vertex still tied is a twin of the new vertex
      (the same neighbours, apart from each other), swapping it with the
      new vertex is an automorphism of C, so all of them lie in the new
      vertex's orbit, m(C) among them, and C is accepted.
    - Labeling (``_accepted_by_labeling``).  Otherwise one
      ``canonical_labeling(C)`` call refines and labels C once: its order
      gives m(C), and the automorphism generators found by the same
      search give the new vertex's orbit.

    Cut vertices and keys from the parent.  C's rows are P's, with the
    new vertex joined to N in both directions, so they are valid by
    construction and stored unchecked.
    - C - new = P is connected, so the new vertex is never a cut vertex.
      For a parent vertex v, C - v is P - v with the new vertex joined to
      N - {v}, so it is connected iff N - {v} meets every component of
      P - v.  When P - v is connected, that fails only for N = {v}.
    - C's degrees are P's plus one on N, and |N| for the new vertex.
      Only the vertices of child degree |N| need neighbour degrees; each
      is packed (``_DEGREE_WEIGHT``) from the parent's degrees, one
      higher on N, plus the new vertex if it is a neighbour.

    Columns from the parent.  C's row is answered without C.
    - χ.  P is an induced subgraph of C, and the new vertex can take a
      colour of its own, so χ(C) is χ(P) or χ(P) + 1.  C is
      χ(P)-colourable iff some χ(P)-colouring of P has a colour class
      that misses N: the new vertex joins that class, and a χ(P)-colouring
      of C restricts to one of P whose new vertex's class, less the new
      vertex, misses N.  The classes of all χ(P)-colourings of P are
      listed once, by the search that computes χ walked over every
      χ(P)-colouring (``invariants.colour_classes``).
    - α.  An independent set of C without the new vertex lies in P; one
      with it is the new vertex plus an independent set of P - N.  So
      α(C) = max(α(P), 1 + α(P - N)), and as α(P - N) <= α(P) the
      branch-and-bound on P - N starts from the floor α(P) - 1.
    - Pendants.  A parent vertex has degree 1 in C if it has degree 1 in
      P and is not in N, or degree 0 and is in N (P = K1); the new vertex
      has degree 1 if |N| = 1.
    - ABS.  An edge of P with i ends in N has its edge degree raised by
      i, and the new edge to v in N has edge degree deg_P(v) + |N| - 1.
      These are the weights ``abs_index(C)`` sums, and ``math.fsum``
      rounds the exact sum of its inputs once, whatever their order, so
      the value is the same float.

    Forms.  Every accepted child's form is its path string: the parent's
    row, one column up, then the new vertex's column, ``nbrs`` reversed,
    so each row names its parent's row.
    """
    parent = _Parent(*row)
    new = len(parent.rows)
    shifted, new_column = parent.pairs << new, _reversed_masks(new)
    columns = _new_columns()
    for nbrs in _orbit_leaders(parent.graph, parent.rejected_sizes):
        tied = parent.max_key_ties(nbrs)
        if tied is None or len(tied) > 1 and not parent.accepts_tied(nbrs, tied):
            continue
        form = shifted | new_column[nbrs]
        for column, value in zip(columns, (form, *_child_row(parent, nbrs))):
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


def _orbit_leaders(g: Graph, skipped: range) -> list[int]:
    """The least neighbour set in each orbit of Aut(g), which the
    generators from ``canonical_labeling(g)`` generate, apart from the
    orbits of the sets whose sizes are in ``skipped``.

    Sets are nonempty vertex bitmasks, listed in ascending order.
    Automorphisms keep a set's size, so an orbit's sets share one.
    """
    size = 1 << g.order
    # each mask's image: the sum of its vertices' image bits
    images = [_subset_sums([1 << w for w in a]) for a in canonical_labeling(g)[2]]
    reached = bytearray(_masks_sized(g.order, skipped))
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


@functools.cache
def _masks_sized(width: int, sizes: range) -> bytes:
    """``marks[mask]``: 1 if the size of mask is in ``sizes``, else 0, for
    every mask below 2^width."""
    return bytes(mask.bit_count() in sizes for mask in range(1 << width))


def connected_class_forms(
    n: int, workers: int = 1, *, build: str = "forms"
) -> tuple[bytes, ...] | None:
    """Sorted canonical forms of all connected isomorphism classes.

    Builds, or finds in the cache, the ``ClassTable`` of order n, which
    is never rebuilt (``_build_table``): each row of the table of order
    n - 1, cached or built first, is one job (``_augment_parent``), and
    the jobs' outputs are disjoint, so their five columns are appended in
    job order.  If a job fails, its exception is raised and nothing is
    cached.  The forms are read off the table: each pair string is
    labeled once, and the sorted triangles are kept with the table.
    Every table and every forms read is built in this process.

    ``build`` names what to build or find: the forms (``"forms"``), or,
    returning None, the table only (``"table"``, for ``class_table``) or
    the records of order n only (``"records"``, ``_build_records``).
    Only the records build forks: its jobs are dealt into at most
    ``workers`` shares, all but one computed in forked children.  An
    order outside 1..MAX_SEARCH_ORDER, an unknown ``build``, a worker
    count that is not a positive int, or one other than 1 for the forms
    or the table, raises ValueError before any order is built.  The
    benchmark's tracer names this function's spans ``search.enumerate[n]``,
    and ``perfbench/run.py`` ``sweep_traced`` reads the build's time from
    ``outer[0]`` of the ``search.enumerate[8]`` spans of a traced sweep.
    """
    if not 1 <= n <= MAX_SEARCH_ORDER:
        raise ValueError(f"order {n} outside the supported range 1..{MAX_SEARCH_ORDER}")
    if build not in ("forms", "table", "records"):
        raise ValueError(f"unknown build {build!r}; expected 'forms', 'table' or 'records'")
    if not isinstance(workers, int) or workers < 1 or workers > 1 and build != "records":
        raise ValueError(f"workers {workers!r}: expected 1, or a positive int for 'records'")
    if build == "records":
        _record_cache[n] = _record_cache.get(n) or _build_records(n, workers)
        return None
    table = _table_cache.get(n)
    if table is None:
        table = _table_cache[n] = _build_table(n)
    if build == "table":
        return None
    if table.triangles is None:
        # one order's triangles have one length, so the ints sort as the forms
        labeled = array("Q", _minimal_triangles(n, table.forms))
        table = _table_cache[n] = replace(table, triangles=labeled)
    return tuple(form_from_triangle(n, tri) for tri in table.triangles)


def _minimal_triangles(n: int, forms: Sequence[int]) -> list[int]:
    """The sorted minimal triangles of the classes that ``forms`` pack on n vertices."""
    return sorted(canonical_labeling(from_packed_pairs(n, pairs))[0] for pairs in forms)


def _jobs(n: int, indices: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    """The jobs of order n at ``indices``: job i is the order and row i
    of the table of order n - 1, which must be cached (a forked share
    inherits it)."""
    t = _table_cache[n - 1]
    return ((n - 1, t.forms[i], t.chromatic[i], t.independence[i]) for i in indices)


def _build_table(n: int) -> ClassTable:
    """The class table of order n, its rows in job order.  Each job's
    columns are appended as it returns, so no earlier job's output is
    kept."""
    if n == 1:  # K1: χ = α = 1, no pendants, no edges
        parts = [([0], [1], [1], [0], [0.0])]
    else:
        parts = map(_augment_parent, _jobs(n, range(len(class_table(n - 1).forms))))
    columns = _new_columns()
    for part in parts:
        for column, piece in zip(columns, part):
            column.extend(piece)
    return ClassTable(*columns)


def _build_records(n: int, workers: int) -> dict:
    """The records of order n: for each bucket (kind, value) that holds a
    class, and for ("none", None), ``[class count, max ABS, candidates]``,
    the candidates being the (ABS, path string) pairs of its classes
    within TIE_TOLERANCE of the max.  A cached table (or order 1's) is
    folded.  Otherwise this is the one build that forks: order n's jobs
    are dealt into at most ``workers`` shares (``_in_shares``), each
    share folds its jobs' columns and sends only its records, and the
    shares' records are merged."""
    if n in _table_cache or n == 1:
        t = class_table(n)
        return _fold({}, (t.forms, t.chromatic, t.independence, t.pendants, t.abs_value))

    def share(jobs: range) -> dict:
        return functools.reduce(_fold, map(_augment_parent, _jobs(n, jobs)), {})

    shares = _in_shares(share, range(len(class_table(n - 1).forms)), workers)
    for records in shares[1:]:
        for key, record in records.items():
            _tally(shares[0], key, *record)
    return shares[0]


def _fold(records: dict, columns: Sequence[Sequence]) -> dict:
    """``records`` with each row of the five ``ClassTable`` columns tallied
    into its three buckets and ("none", None)."""
    forms, *buckets, values = columns
    for kind, column in zip(CONSTRAINT_KINDS, (*buckets, (None,) * len(forms))):
        for k, v, form in zip(column, values, forms):
            record = records.get((kind, k))
            if record and record[1] - v > TIE_TOLERANCE:  # as _tally, without a call
                record[0] += 1
            else:
                _tally(records, (kind, k), 1, v, [(v, form)])
    return records


def _tally(records: dict, key: tuple, count: int, best: float, tied: list) -> None:
    """Add ``count`` classes with max ABS ``best`` and candidates ``tied``
    to the record of ``key``, keeping the candidates of both within
    TIE_TOLERANCE of the larger max.  The max only grows and rounded
    subtraction is monotone, so a candidate dropped here is dropped by
    every later max too: any merge order keeps what a scan would."""
    record = records.setdefault(key, [0, best, []])
    record[0] += count
    top = record[1] = max(record[1], best)
    if top - best <= TIE_TOLERANCE:
        record[2] = [c for c in record[2] + tied if top - c[0] <= TIE_TOLERANCE]


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

    ``forms`` holds each class's path string (``_augment_parent``), in
    job order: at order n >= 2, ``forms[i] >> n - 1`` is a row of order
    n - 1 and the new column below it is nonzero.  Row i of every other
    column describes ``forms[i]``; the columns are named after the
    constraint kinds they answer.  ``triangles`` holds the classes'
    minimal triangles in ascending order, apart from the rows, once
    ``connected_class_forms`` has read them, and is None before.
    """

    forms: array
    chromatic: array
    independence: array
    pendants: array
    abs_value: array
    triangles: array | None = field(default=None, compare=False)


def class_table(n: int) -> ClassTable:
    """The cached invariant table of order n, for parents and for the
    checks that read every class; a verdict reads records instead
    (``max_abs_under``).

    A cached table is returned as it is.  Otherwise it is built in this
    process (``connected_class_forms(n, build="table")``), with the lower
    orders it needs: each row is computed in the augmentation job that
    finds its class, from that job's parent (``_augment_parent``), and
    only the children whose acceptance needs a labeling get one.  Only
    the records build forks (``_build_records``).
    """
    connected_class_forms(n, build="table")
    return _table_cache[n]


def max_abs_under(constraint: Constraint) -> SearchReport:
    """Exact maximum of the ABS index over the constrained classes.

    Reads the record of the constraint's bucket; the records of its order
    are cached, folded from a cached table, or else reduced from the
    order's jobs in this process, and then no table of that order is
    stored (``connected_class_forms(n, build="records")``).  A record
    keeps all classes within TIE_TOLERANCE of the maximum, so a false
    uniqueness claim would surface as multiple maximizers; only they are
    labeled, and they are reported by canonical form, in ascending order.
    """
    n = constraint.order
    connected_class_forms(n, build="records")
    key = (constraint.kind, None if constraint.kind == "none" else constraint.value)
    count, best, tied = _record_cache[n].get(key, (0, None, ()))
    winners = _minimal_triangles(n, [pairs for _, pairs in tied])
    return SearchReport(
        constraint=constraint,
        graph_count=count,
        max_value=best,
        maximizer_forms=tuple(form_from_triangle(n, tri) for tri in winners),
        maximizer_graph6=tuple(encode_graph6(from_packed_pairs(n, tri)) for tri in winners),
        unique=len(winners) == 1,
    )


def verify_theorem(theorem: str, n: int, k: int) -> SearchReport:
    """Exhaustively test one extremal characterization at one (n, k).

    Reads the records of order n through ``max_abs_under``.  Where the
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
