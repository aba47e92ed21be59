"""The atom-bond sum-connectivity (ABS) index and its scalar kernel.

The per-edge summand sqrt((x + y - 2)/(x + y)) is exposed as
``edge_weight`` over real arguments >= 1, together with the two derived
scalar functions that drive the extremal arguments: the gain of the
weight under a shift of one argument, and the contrast of that gain
between two second arguments.  All arithmetic is double precision.
The graph-level sums walk the upper-triangle bits of the adjacency rows
and read each edge's weight from a table indexed by its edge degree.

The grid claims of ``search.check_scalar_properties`` hold for all real
x, y >= 1.  f(x, y) = phi(x + y) with phi(t) = sqrt(1 - 2/t); for
u = x + y - 2 > 0,

    phi'   = u^(-1/2) (u + 2)^(-3/2)                    > 0,
    phi''  = -(2u + 1) u^(-3/2) (u + 2)^(-5/2)          < 0,
    phi''' = 3(2u^2 + 2u + 1) u^(-5/2) (u + 2)^(-7/2)   > 0,

and phi is continuous at u = 0, so the mean value theorem carries each
sign to differences over t >= 2.  By phi' > 0, edge_weight increases in
x (``search._addition_margins`` needs only this).  shift_gain(s, x, y)
is G(x + y) with G(t) = phi(t + s) - phi(t): G' = s phi''(r) < 0, so it
decreases in x, and G'' = s phi'''(r) > 0, so it is convex in x and G'
increases.  Hence gain_contrast(s, lo, hi, x) = G(x + lo) - G(x + hi),
whose derivative is G'(x + lo) - G'(x + hi), decreases in x for lo < hi;
at lo = hi it is 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graphs import MAX_ORDER, Graph


def edge_weight(x: float, y: float) -> float:
    """sqrt((x + y - 2)/(x + y)) for finite x, y >= 1; lies in [0, 1)."""
    # each domain check here is written so that NaN fails it: every
    # comparison with NaN is False
    if not (1 <= x < math.inf and 1 <= y < math.inf):
        raise ValueError(f"edge_weight arguments must be finite and >= 1, got ({x}, {y})")
    return math.sqrt((x + y - 2) / (x + y))


def shift_gain(s: float, x: float, y: float) -> float:
    """Increase of edge_weight when x grows by s > 0.

    Positive in exact arithmetic.  In floating point it is >= 0 while
    x + s + y < 2**54, where x + y - 2 is exact, and 0.0 where x + s
    rounds back to x (``shift_gain(1e-20, 2, 2)``) or both weights round
    to one float; beyond 2**54 the rounding of x + y - 2 can make it
    -1.1e-16.
    """
    if not s > 0:
        raise ValueError(f"shift must be positive, got {s}")
    return edge_weight(x + s, y) - edge_weight(x, y)


def gain_contrast(s: float, lo: float, hi: float, x: float) -> float:
    """shift_gain at second argument lo minus shift_gain at hi, 1 <= lo <= hi."""
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got ({lo}, {hi})")
    return shift_gain(s, x, lo) - shift_gain(s, x, hi)


# edge_weight(d_u, d_v) depends only on the edge degree d_u + d_v - 2,
# which is at most 2 * (MAX_ORDER - 1) - 2; built by edge_weight itself,
# so every table entry is the float edge_weight returns.
_WEIGHT_BY_EDGE_DEGREE = tuple(edge_weight(1, d + 1) for d in range(2 * MAX_ORDER - 3))


class EdgeContribution(NamedTuple):
    """One edge's summand in the ABS index; a tuple, so it is immutable
    and compares equal to ``(edge, du, dv, value)``."""

    edge: tuple[int, int]
    du: int
    dv: int
    value: float


def edge_contributions(g: Graph) -> list[EdgeContribution]:
    """Per-edge summands, in lexicographic edge order; they sum to abs_index."""
    rows = g.rows
    degs = [row.bit_count() for row in rows]
    terms = []
    append = terms.append
    for u, row in enumerate(rows):
        du = degs[u]
        base = du - 2
        # upper holds the neighbours above v, shifted down so bit 0 is v + 1
        upper = row >> u + 1
        v = u
        while upper:
            step = (upper & -upper).bit_length()
            v += step
            upper >>= step
            dv = degs[v]
            append(EdgeContribution((u, v), du, dv, _WEIGHT_BY_EDGE_DEGREE[base + dv]))
    return terms


def abs_index(g: Graph) -> float:
    """Sum of edge_weight(d_u, d_v) over all edges; 0 for edgeless graphs.

    fsum makes the result independent of edge order, so isomorphic
    graphs get bit-identical values.
    """
    rows = g.rows
    degs = [row.bit_count() for row in rows]
    weights = []
    for u, row in enumerate(rows):
        base = degs[u] - 2
        upper = row >> u + 1
        v = u
        while upper:
            step = (upper & -upper).bit_length()
            v += step
            upper >>= step
            weights.append(_WEIGHT_BY_EDGE_DEGREE[base + degs[v]])
    return math.fsum(weights)
