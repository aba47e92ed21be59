"""Extremal graph families, their published closed-form bounds, and the claims.

Each family that maximizes the ABS index under one constraint
(chromatic number, independence number, pendant count) gets a
deterministic constructor; ``*_bound_printed`` evaluate the published
bounds *verbatim*.  The claims live in one table, ``CASES``, that the
search, the audit and the command line read: per case its parameter
range, printed bound and direct value, and for the theorems T1-T3 the
constraint kind, claimed maximizer and first claimed order.  The
printed bounds are known not to match direct evaluation of the named
graphs, so :func:`formula_audit` reports the discrepancies as data;
all verification binds to direct evaluation.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .graphs import MAX_ORDER, Graph, GraphError, from_edges
from .index import abs_index, edge_weight

AUDIT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TuranDecomposition:
    """Balanced part sizes for the complete multipartite maximizer."""

    n: int
    chi: int
    q: int
    r: int
    part_sizes: tuple[int, ...]

    @classmethod
    def of(cls, n: int, chi: int) -> "TuranDecomposition":
        if not 2 <= chi <= n:
            raise GraphError(f"need 2 <= chi <= n, got chi={chi}, n={n}")
        q, r = divmod(n, chi)
        sizes = (q + 1,) * r + (q,) * (chi - r)
        return cls(n=n, chi=chi, q=q, r=r, part_sizes=sizes)


def turan(n: int, chi: int) -> Graph:
    """Complete chi-partite graph on n vertices with balanced parts.

    The r larger parts (size q+1) come first in vertex order, making
    the construction and its graph6 encoding deterministic.
    """
    decomp = TuranDecomposition.of(n, chi)
    part_of = []
    for i, size in enumerate(decomp.part_sizes):
        part_of.extend([i] * size)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    ]
    return from_edges(n, edges)


def complete_split(n: int, alpha: int) -> Graph:
    """Join of an edgeless graph on alpha vertices with a clique on n - alpha.

    Vertices 0..alpha-1 form the independent set (degree n - alpha);
    the rest form the clique (degree n - 1).  alpha = 1 gives K_n.
    """
    if not 1 <= alpha <= n - 1:
        raise GraphError(f"need 1 <= alpha <= n - 1, got alpha={alpha}, n={n}")
    edges = [(u, v) for u in range(alpha) for v in range(alpha, n)]
    edges += [(u, v) for u in range(alpha, n) for v in range(u + 1, n)]
    return from_edges(n, edges)


def star(n: int) -> Graph:
    """Star of order n: vertex 0 adjacent to the n - 1 leaves."""
    if n < 2:
        raise GraphError(f"star needs order >= 2, got {n}")
    return from_edges(n, [(0, v) for v in range(1, n)])


def double_star(n: int, m: int) -> Graph:
    """Double star of order n with internal degrees m and n - m.

    Vertices 0 and 1 are the internal vertices; 0 gets m - 1 pendant
    neighbors and 1 gets n - m - 1.
    """
    if not 2 <= m <= n - 2:
        raise GraphError(f"need 2 <= m <= n - 2, got m={m}, n={n}")
    edges = [(0, 1)]
    edges += [(0, v) for v in range(2, m + 1)]
    edges += [(1, v) for v in range(m + 1, n)]
    return from_edges(n, edges)


def kite(n: int, p: int) -> Graph:
    """Clique on n - p internal vertices plus p pendants on one apex.

    Vertex 0 is the apex with degree (n - p - 1) + p; the other
    internal vertices have degree n - p - 1; pendants have degree 1.
    p = 0 gives K_n; p = n - 2 gives the star, with n - 1 pendants.
    """
    if not 0 <= p <= n - 2:
        raise GraphError(f"need 0 <= p <= n - 2, got p={p}, n={n}")
    core = n - p
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    edges += [(0, v) for v in range(core, n)]
    return from_edges(n, edges)


# -- printed bounds, evaluated verbatim -------------------------------


def chromatic_bound_printed(n: int, chi: int) -> float:
    """The published three-term bound for fixed chromatic number.

    Evaluated exactly as printed, with q, r from n = q*chi + r; a zero
    coefficient zeroes its term.  The printed expression does not
    reproduce the direct ABS value of the balanced multipartite graph;
    see :func:`formula_audit`.  Below order 3 a radicand is negative.
    """
    decomp = TuranDecomposition.of(n, chi)
    if n < 3:  # only chi = n = 2 gets here
        raise GraphError(f"need n >= 3, got n={n}")
    q, r = decomp.q, decomp.r
    return (
        r * (r - 1) * q * q / 2 * math.sqrt((n - q - 1) / (n - q))
        + r * (chi - r) * q * (q + 1)
        * math.sqrt((2 * n - 2 * q - 3) / (2 * n - 2 * q - 1))
        + (chi - r) * (chi - r - 1) * (q + 1) ** 2 / 2
        * math.sqrt((n - q - 2) / (n - q))
    )


def independence_bound_printed(n: int, alpha: int) -> float:
    """The published bound for fixed independence number, verbatim."""
    if not 1 <= alpha <= n - 1:
        raise GraphError(f"need 1 <= alpha <= n - 1, got alpha={alpha}, n={n}")
    c = n - alpha
    return alpha * math.sqrt(c * (c - 1)) + 0.5 * c * math.sqrt((c - 1) * (c - 2))


def pendant_bound_printed(n: int, p: int) -> float:
    """The published bound for fixed pendant count, verbatim by case."""
    if not 1 <= p <= n - 1:
        raise GraphError(f"need 1 <= p <= n - 1, got p={p}, n={n}")
    if p == n - 1:
        return (n - 1) * math.sqrt(n - 2) / n
    if p == n - 2:
        return (
            1 / math.sqrt(3)
            + math.sqrt(n - 2) / n
            + (n - 3) * math.sqrt(n - 3) / (n - 1)
        )
    return (
        p * math.sqrt((n - 2) / n)
        + (n - p - 1) * math.sqrt((2 * n - 2 * p - 3) / (2 * n - 2 * p - 1))
        + pendant_bound_clique_term_printed(n, p)
    )


def pendant_bound_clique_term_printed(n: int, p: int) -> float:
    """Third term of the p <= n - 3 bound: the internal-clique edges."""
    if not 1 <= p <= n - 3:
        raise GraphError(f"need 1 <= p <= n - 3, got p={p}, n={n}")
    return 0.5 * math.sqrt(n - p - 1) * (n - p - 2) ** 1.5


def kite_clique_contribution(n: int, p: int) -> float:
    """Direct ABS contribution of the non-apex clique edges of kite(n, p)."""
    if not 1 <= p <= n - 3:
        raise GraphError(f"need 1 <= p <= n - 3, got p={p}, n={n}")
    core = n - p
    # edges among the core - 1 non-apex internal vertices, degree core - 1 each
    count = (core - 1) * (core - 2) // 2
    return count * edge_weight(core - 1, core - 1)


def double_star_split_value(p: int, t: int) -> float:
    """ABS of the double star with p pendants split t / p - t.

    The order is p + 2, internal degrees t + 1 and p - t + 1; the bridge
    term is constant in t since the internal degrees sum to p + 2.
    """
    if p < 2:
        raise GraphError(f"need p >= 2, got {p}")
    if not 1 <= t <= p - 1:
        raise GraphError(f"need 1 <= t <= p - 1, got t={t}")
    return (
        t * edge_weight(1, t + 1)
        + (p - t) * edge_weight(1, p - t + 1)
        + edge_weight(t + 1, p - t + 1)
    )


# -- printed-vs-direct audit ------------------------------------------


@dataclass(frozen=True)
class FormulaAudit:
    """Printed closed-form value against direct edge-sum evaluation."""

    case_label: str
    printed_value: float
    direct_value: float
    abs_difference: float
    agrees: bool


def formula_audit(case: str, n: int, k: int) -> FormulaAudit:
    """Audit one bound case; k is chi, alpha, or p depending on the case."""
    spec = CASES.get(case)
    if spec is None:
        raise ValueError(f"unknown audit case {case!r}; expected one of {tuple(CASES)}")
    printed = spec.printed(n, k)
    direct = spec.direct(n, k) if spec.direct else abs_index(spec.construct(n, k))
    diff = abs(printed - direct)
    return FormulaAudit(
        case_label=f"{case} n={n} {spec.param}={k}",
        printed_value=printed,
        direct_value=direct,
        abs_difference=diff,
        agrees=diff <= AUDIT_TOLERANCE,
    )


def pendant_maximizer(n: int, p: int) -> Graph:
    """The claimed maximizer at fixed pendant count: star / double star / kite.

    Raises GraphError at n = 2: K2, the one connected graph of order 2,
    has two pendants, so no graph of that order has exactly one.
    """
    if not 1 <= p <= n - 1:
        raise GraphError(f"need 1 <= p <= n - 1, got p={p}, n={n}")
    if n == 2:
        raise GraphError("no graph of order 2 has exactly one pendant")
    if p == n - 1:
        return star(n)
    if p == n - 2:
        return double_star(n, 2)
    return kite(n, p)


# -- the claims -------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One theorem, or one term of a printed bound audited on its own.

    At order n, k (named ``param``) runs from ``first`` to n - 1 - ``short``.
    A theorem claims its maximizer for every such k from order
    ``claimed_from`` on, wherever the maximizer exists.  Its direct value
    is the maximizer's ABS index; a term has its own ``direct`` evaluation.
    """

    param: str
    first: int
    short: int
    printed: Callable[[int, int], float]
    kind: str | None = None
    construct: Callable[[int, int], Graph] | None = None
    claimed_from: int | None = None
    direct: Callable[[int, int], float] | None = None

    def params(self, n: int) -> range:
        return range(self.first, n - self.short)

    def maximizer(self, n: int, k: int) -> Graph | None:
        """The claimed maximizer at (n, k); None where it does not exist."""
        try:
            return self.construct(n, k)
        except GraphError:
            if not 1 <= n <= MAX_ORDER:  # an input error, not a missing maximizer
                raise
            return None


# The constructors are called through this module's globals, so a wrapper
# bound over ``turan`` and the others here also sees the table's calls.
CASES = {
    "T1": Case(
        "chi", 3, 0, chromatic_bound_printed, "chromatic",
        lambda n, k: turan(n, k), 5,
    ),
    "T2": Case(
        "alpha", 1, 0, independence_bound_printed, "independence",
        lambda n, k: complete_split(n, k), 1,
    ),
    # from order 3 on: no graph of order 2 has one pendant, and none
    # of order 3 is a double star
    "T3": Case(
        "p", 1, 0, pendant_bound_printed, "pendants",
        lambda n, k: pendant_maximizer(n, k), 3,
    ),
    "T3-clique-term": Case(
        "p", 1, 2, pendant_bound_clique_term_printed,
        direct=kite_clique_contribution,
    ),
}

THEOREMS = tuple(name for name, case in CASES.items() if case.kind)
