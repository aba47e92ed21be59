"""The per-graph kernels as they were before they moved to bit rows, the
graph validation as it was before its bit-matrix fast test, the graph6
encoder as it was before it wrote the packed pair string, the
augmentation's max-key test as it was before it was answered from the
parent, the canonical labeling search as it was before it packed the
columns, the automorphism generators as they were before the canonical
labeling search found them, the labeled sweep that the augmentation
replaced, the edge-addition check as it was before its margins came from
degrees, the theorem verifier as it was before it read the claim table,
and the printed bounds as they were before each term was written once.

Each function here is the old body of the library function with the same
name, kept unchanged as the reference the rewritten kernels must match
exactly: same integers, same floats (``==``), same graphs, the same
``Graph6Error`` messages, the same tied vertices, and the same
canonical triangle and vertex order.  The labeled sweep must give the
same forms, and the edge-addition check the same counts, with margins
within 1e-12.

``find_isomorphism`` is the isomorphism search that the library dropped
when ``are_isomorphic`` came to compare canonical forms.  The stabilizer
chain is built on it, and the tests use it to check a canonical form or
a maximizer against a construction without reading canonical forms.

The last two sections are not old bodies.  One counts the connected
graphs of each order by edge count, up to isomorphism (Pólya counting)
and labeled, using neither the enumeration nor any canonical form, so
the class tables and their automorphism groups can be checked against
them.  The other builds the cycles and seeded random graphs that the
test modules share.
"""

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import replace

from absindex import (
    Constraint,
    EdgeAdditionReport,
    EdgeContribution,
    Graph,
    Graph6Error,
    GraphError,
    TuranDecomposition,
    canonical_form,
    complete_split,
    edge_weight,
    from_edges,
    max_abs_under,
    pendant_count,
    pendant_maximizer,
    turan,
)
from absindex.graphs import _G6_HEADER, MAX_ORDER, from_packed_pairs
from absindex.invariants import _refined_cells
from absindex.search import class_table


# -- graphs -----------------------------------------------------------


def validate_rows(order, rows):
    """The checks of ``Graph.__post_init__``; raises the first fault found."""
    n = order
    if not 1 <= n <= MAX_ORDER:
        raise GraphError(f"order must be in 1..{MAX_ORDER}, got {n}")
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


def from_triangle_mask(order, mask):
    """Bit k of ``mask`` is the pair (i, j), i < j, k = j(j-1)/2 + i."""
    rows = [0] * order
    k = 0
    for j in range(1, order):
        for i in range(j):
            if mask >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(order, tuple(rows))


def decode_graph6(text):
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
    mask = 0
    for pos, ch in enumerate(s[1:], start=1):
        group = ord(ch) - 63
        if not 0 <= group < 64:
            raise Graph6Error(f"byte {pos}: character {ch!r} outside graph6 alphabet")
        for off in range(6):
            k = (pos - 1) * 6 + off
            bit = group >> (5 - off) & 1
            if k >= nbits:
                if bit:
                    raise Graph6Error(f"byte {pos}: nonzero padding bit")
                continue
            if bit:
                mask |= 1 << k
    return from_triangle_mask(n, mask)


def triangle_mask(g):
    """Upper-triangle bits packed into one int.

    Bit k encodes the pair (i, j), i < j, with k = j(j-1)/2 + i --
    the same column-major pair order graph6 uses.
    """
    mask = 0
    k = 0
    for j in range(1, g.order):
        for i in range(j):
            if g.rows[i] >> j & 1:
                mask |= 1 << k
            k += 1
    return mask


def encode_graph6(g):
    n = g.order
    if n > 62:  # unreachable with MAX_ORDER = 12, kept for the contract
        raise Graph6Error(f"short graph6 form supports n <= 62, got {n}")
    mask = triangle_mask(g)
    nbits = n * (n - 1) // 2
    chars = [chr(n + 63)]
    for start in range(0, nbits, 6):
        group = 0
        for off in range(6):
            k = start + off
            bit = mask >> k & 1 if k < nbits else 0
            group = group << 1 | bit
        chars.append(chr(group + 63))
    return "".join(chars)


# -- index ------------------------------------------------------------


def edge_contributions(g):
    degs = g.degrees()
    return [
        EdgeContribution((u, v), degs[u], degs[v], edge_weight(degs[u], degs[v]))
        for u, v in g.edges()
    ]


def abs_index(g):
    degs = g.degrees()
    return math.fsum(edge_weight(degs[u], degs[v]) for u, v in g.edges())


# -- invariants -------------------------------------------------------


def chromatic_number(g):
    if g.edge_count == 0:
        return 1
    lower = _greedy_clique_size(g)
    upper = _greedy_coloring_size(g)
    for k in range(lower, upper):
        if _colorable(g, k):
            return k
    return upper


def _greedy_clique_size(g):
    order = sorted(range(g.order), key=g.degree, reverse=True)
    clique_mask = 0
    size = 0
    for v in order:
        if clique_mask & ~g.rows[v] == 0:
            clique_mask |= 1 << v
            size += 1
    return size


def _greedy_coloring_size(g):
    order = sorted(range(g.order), key=g.degree, reverse=True)
    color_of = {}
    used = 0
    for v in order:
        taken = {color_of[u] for u in g.neighbors(v) if u in color_of}
        c = 0
        while c in taken:
            c += 1
        color_of[v] = c
        used = max(used, c + 1)
    return used


def _colorable(g, k):
    order = sorted(range(g.order), key=g.degree, reverse=True)
    colors = [-1] * g.order

    def assign(idx, max_used):
        if idx == g.order:
            return True
        v = order[idx]
        forbidden = {colors[u] for u in g.neighbors(v) if colors[u] >= 0}
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


def independence_number(g):
    rows = g.rows
    best = 0

    def expand(candidates, size):
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        v = max(
            _bits(candidates), key=lambda u: (rows[u] & candidates).bit_count()
        )
        expand(candidates & ~(rows[v] | 1 << v), size + 1)
        expand(candidates & ~(1 << v), size)

    expand((1 << g.order) - 1, 0)
    return best


def _bits(mask):
    while mask:
        v = (mask & -mask).bit_length() - 1
        yield v
        mask &= mask - 1


def graph_from_canonical_form(form):
    n = form[0]
    tri = int.from_bytes(form[1:], "big")
    total_bits = n * (n - 1) // 2
    mask = 0
    for k in range(total_bits):
        if tri >> (total_bits - 1 - k) & 1:
            mask |= 1 << k
    return from_triangle_mask(n, mask)


def canonical_labeling(g: Graph) -> tuple[int, list[int]]:
    """The minimal upper-triangle bit-string over relabelings, and the
    first vertex order that reaches it.

    The string is read pair-by-pair in the graph6 column order and
    packed so that earlier pairs land in more significant bits; the
    minimum is therefore the numeric minimum.  Only permutations that
    respect the refined-cell order are considered, which is sound
    because the cell sequence itself is isomorphism-invariant.

    Vertex ``order[i]`` gets label i in the canonical graph.  Every order
    that reaches the minimum is this one composed with an automorphism,
    so a vertex chosen by its canonical position is defined up to its
    orbit.
    """
    n = g.order
    rows = g.rows
    cells = _refined_cells(g)
    cell_at: list[list[int]] = []
    for cell in cells:
        cell_at.extend([cell] * len(cell))
    total_bits = n * (n - 1) // 2
    best: int | None = None
    best_perm: list[int] = []
    perm: list[int] = []
    used = [False] * n

    def place(pos: int, prefix: int, nbits: int) -> None:
        nonlocal best, best_perm
        if pos == n:
            if best is None or prefix < best:
                best = prefix
                best_perm = perm[:]
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
    return best, best_perm


def _map_cells(
    g: Graph,
    g_cells: list[list[int]],
    h: Graph,
    h_cells: list[list[int]],
    pins: Sequence[tuple[int, int]],
) -> list[int] | None:
    """``find_isomorphism`` given both refined cells; pin (u, w) maps u to w."""
    n = g.order
    if [len(c) for c in g_cells] != [len(c) for c in h_cells]:
        return None
    targets: list[list[int]] = [[]] * n
    for g_cell, h_cell in zip(g_cells, h_cells):
        for v in g_cell:
            targets[v] = h_cell
    g_rows, h_rows = g.rows, h.rows
    order: list[int] = []
    for u, w in pins:
        if w not in targets[u]:
            return None
        targets[u] = [w]
        order.append(u)
    placed = sum(1 << v for v in order)
    while len(order) < n:
        v = min(
            (v for v in range(n) if not placed >> v & 1),
            key=lambda v: (-(g_rows[v] & placed).bit_count(), len(targets[v])),
        )
        order.append(v)
        placed |= 1 << v
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    # back[k]: the positions before k that hold neighbours of order[k]
    back = [0] * n
    for k, v in enumerate(order):
        for i in range(k):
            if g_rows[v] >> order[i] & 1:
                back[k] |= 1 << i
    image = [0] * n  # h vertex at each position
    h_pos = [-1] * n  # position of each mapped h vertex

    def extend(k: int, mapped: int) -> bool:
        if k == n:
            return True
        for x in targets[order[k]]:
            if h_pos[x] >= 0:
                continue
            seen = 0
            rest = h_rows[x] & mapped
            while rest:
                low = rest & -rest
                seen |= 1 << h_pos[low.bit_length() - 1]
                rest ^= low
            if seen != back[k]:
                continue
            image[k] = x
            h_pos[x] = k
            if extend(k + 1, mapped | 1 << x):
                return True
            h_pos[x] = -1
        return False

    if not extend(0, 0):
        return None
    return [image[pos[v]] for v in range(n)]


def find_isomorphism(g: Graph, h: Graph) -> list[int] | None:
    return _map_cells(g, _refined_cells(g), h, _refined_cells(h), ())


def automorphism_generators(g: Graph) -> list[list[int]]:
    """Automorphisms that generate Aut(g), from a stabilizer chain.

    With the vertices b_1, ..., b_n in refined-cell order and G_i the
    automorphisms fixing b_1, ..., b_(i-1), one t in G_i is kept for each
    i and each later vertex x of b_i's cell with t(b_i) = x, where one
    exists.  By induction from i = n down, the kept maps generate G_i: an
    s in G_i maps b_i into its cell but onto no earlier vertex, so s, or
    t^-1 s for the kept t with t(b_i) = s(b_i), lies in G_(i+1).
    """
    cells = _refined_cells(g)
    found = []
    fixed: list[tuple[int, int]] = []
    for cell in cells:
        for i, b in enumerate(cell):
            for x in cell[i + 1:]:
                sigma = _map_cells(g, cells, g, cells, [*fixed, (b, x)])
                if sigma is not None:
                    found.append(sigma)
            fixed.append((b, b))
    return found


# -- search -----------------------------------------------------------


def _max_key_ties(rows):
    """The non-cut vertices with the largest key, if the new vertex (the
    last) is one of them, else None; the new vertex is listed last."""
    new = len(rows) - 1
    degrees = [row.bit_count() for row in rows]
    d = degrees[new]
    new_key = None
    equal = []
    for v in range(new):
        if degrees[v] < d:
            continue
        if degrees[v] == d:
            if new_key is None:
                new_key = _neighbour_degrees(rows[new], degrees)
            key = _neighbour_degrees(rows[v], degrees)
            if key < new_key:
                continue
            if key == new_key:
                equal.append(v)
                continue
        if _connected_without(rows, v):
            return None
    tied = [v for v in equal if _connected_without(rows, v)]
    tied.append(new)
    return tied


def _neighbour_degrees(row, degrees):
    return sorted(degrees[u] for u in range(len(degrees)) if row >> u & 1)


def _connected_without(rows, v):
    full = ((1 << len(rows)) - 1) & ~(1 << v)
    start = full & -full
    seen = frontier = start
    while frontier:
        reach = 0
        while frontier:
            u = (frontier & -frontier).bit_length() - 1
            reach |= rows[u]
            frontier &= frontier - 1
        frontier = reach & full & ~seen
        seen |= frontier
    return seen == full


def connected_class_forms_labeled(n: int) -> tuple[bytes, ...]:
    """Oracle enumeration by full labeled sweep; agrees with the fast path.

    Every packed pair string of order n is decoded with
    ``from_packed_pairs``; each connected graph whose string is not in the
    relabeling orbit of one already found is canonicalized.
    """
    if not 1 <= n <= 7:  # order 8 would be 2^28 strings
        raise ValueError(f"order {n} outside the labeled sweep's range 1..7")
    nbits = n * (n - 1) // 2
    # the edge at each bit, and each relabeling as the bit of each edge's image
    edges = [from_packed_pairs(n, 1 << b).edges()[0] for b in range(nbits)]
    bit_of = {}
    for b, (i, j) in enumerate(edges):
        bit_of[i, j] = bit_of[j, i] = 1 << b
    images = [
        [bit_of[perm[i], perm[j]] for i, j in edges]
        for perm in itertools.permutations(range(n))
    ]
    seen: set[int] = set()
    forms: set[bytes] = set()
    for packed in range(1 << nbits):
        if packed in seen:
            continue
        g = from_packed_pairs(n, packed)
        if not g.is_connected():
            continue
        forms.add(canonical_form(g))
        bits = [b for b in range(nbits) if packed >> b & 1]
        for image in images:
            relabeled = 0
            for b in bits:
                relabeled |= image[b]
            seen.add(relabeled)
    return tuple(sorted(forms))


def check_edge_additions(n: int) -> EdgeAdditionReport:
    """Adding any edge to any connected class must strictly raise ABS.

    Each class's own value is read from ``class_table(n)``, which holds
    exactly ``abs_index`` of the class, beside a packed pair string of it.
    """
    min_margin = None
    checks = 0
    table = class_table(n)
    for pairs, base in zip(table.forms, table.abs_value):
        g = from_packed_pairs(n, pairs)
        for u in range(n):
            for v in range(u + 1, n):
                if g.has_edge(u, v):
                    continue
                margin = abs_index(g.add_edge(u, v)) - base
                checks += 1
                if min_margin is None or margin < min_margin:
                    min_margin = margin
                if margin <= 0:
                    return EdgeAdditionReport(
                        n, False, checks, min_margin, encode_graph6(g)
                    )
    return EdgeAdditionReport(n, True, checks, min_margin, None)


# -- theorem verification ---------------------------------------------


def verify_theorem(theorem, n, k):
    """``verify_theorem`` with its own if-chain; raises ``GraphError``
    where the Turán or complete split graph does not exist."""
    if theorem == "T1":
        expected, in_range = turan(n, k), n >= 5 and 3 <= k <= n - 1
    elif theorem == "T2":
        expected, in_range = complete_split(n, k), 1 <= k <= n - 1
    else:
        try:
            expected = pendant_maximizer(n, k)
        except GraphError:
            expected, in_range = None, False
        else:
            in_range = pendant_count(expected) == k
    kind = {"T1": "chromatic", "T2": "independence", "T3": "pendants"}[theorem]
    report = max_abs_under(Constraint(order=n, kind=kind, value=k))
    if expected is None:
        return replace(report, construction_match=False, in_hypothesis=False)
    match = report.unique and (
        find_isomorphism(graph_from_canonical_form(report.maximizer_forms[0]), expected)
        is not None
    )
    return replace(
        report,
        construction_match=match,
        in_hypothesis=in_range,
        expected_graph6=encode_graph6(expected),
    )


# -- printed bounds ---------------------------------------------------


def chromatic_bound_printed(n: int, chi: int) -> float:
    """The published three-term bound for fixed chromatic number.

    Evaluated exactly as printed, with q, r from n = q*chi + r.  The
    printed expression does not reproduce the direct ABS value of the
    balanced multipartite graph; see :func:`formula_audit`.
    """
    decomp = TuranDecomposition.of(n, chi)
    q, r = decomp.q, decomp.r
    term1 = r * (r - 1) * q * q / 2 * math.sqrt((n - q - 1) / (n - q))
    term2 = 0.0
    if r >= 1:  # the (2n-2q-3)/(2n-2q-1) radical; coefficient 0 otherwise
        term2 = (
            r * (chi - r) * q * (q + 1)
            * math.sqrt((2 * n - 2 * q - 3) / (2 * n - 2 * q - 1))
        )
    term3 = 0.0
    if chi - r >= 2:  # the (n-q-2)/(n-q) radical; coefficient 0 otherwise
        term3 = (
            (chi - r) * (chi - r - 1) * (q + 1) ** 2 / 2
            * math.sqrt((n - q - 2) / (n - q))
        )
    return term1 + term2 + term3


def independence_bound_printed(n: int, alpha: int) -> float:
    """The published bound for fixed independence number, verbatim."""
    if not 1 <= alpha <= n - 1:
        raise GraphError(f"need 1 <= alpha <= n - 1, got alpha={alpha}, n={n}")
    c = n - alpha
    return alpha * math.sqrt(c * (c - 1)) + 0.5 * c * math.sqrt(
        max(0, (c - 1) * (c - 2))
    )


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
        + 0.5 * math.sqrt(n - p - 1) * (n - p - 2) ** 1.5
    )


# -- connected counts by edge count ----------------------------------


def _partitions(n, largest):
    """The partitions of n into parts of at most ``largest``, as
    non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def graph_counts_by_edges(n):
    """Graphs on n vertices up to isomorphism, by edge count (Burnside).

    A permutation fixes a graph iff each cycle it induces on the vertex
    pairs is all edges or all non-edges, so it fixes as many graphs with
    e edges as the x^e coefficient of the product of (1 + x^len) over
    its pair cycles.  That product depends only on the cycle type; the
    sum over S_n is divided by n!.
    """
    totals = [0] * (n * (n - 1) // 2 + 1)
    for cycles in _partitions(n, n):
        pair_cycles = []
        for i, a in enumerate(cycles):
            # a pair inside one a-cycle: (a - 1) // 2 cycles of length a,
            # plus one of length a / 2 (the antipodal pairs) if a is even
            pair_cycles += [a] * ((a - 1) // 2)
            if a % 2 == 0:
                pair_cycles.append(a // 2)
            for b in cycles[i + 1:]:  # a pair across two cycles
                pair_cycles += [math.lcm(a, b)] * math.gcd(a, b)
        fixed = [1] + [0] * (len(totals) - 1)
        for length in pair_cycles:
            for e in range(len(fixed) - 1, length - 1, -1):
                fixed[e] += fixed[e - length]
        permutations = math.factorial(n)
        for a, m in Counter(cycles).items():
            permutations //= a**m * math.factorial(m)
        for e, count in enumerate(fixed):
            totals[e] += permutations * count
    assert all(t % math.factorial(n) == 0 for t in totals)
    return [t // math.factorial(n) for t in totals]


def connected_counts_by_edges(n_max):
    """Connected graphs up to isomorphism by edge count, for n = 1..n_max:
    index n holds the list of counts for e = 0..n(n - 1)/2 edges.

    Every graph is a multiset of connected ones, so with G(x, y) the sum
    of graph counts by edges (x) and vertices (y), and C(x, y) the
    connected one, log G = sum over k >= 1 of C(x^k, y^k) / k.  The
    y^n coefficients of y d/dy log G are m_n = n g_n - sum of m_k
    g_(n - k) over k < n, and Möbius inversion gives
    c_n(x) = sum over d | n of mu(d) m_(n / d)(x^d), divided by n; all
    in integers.
    """
    graphs = [None] + [graph_counts_by_edges(n) for n in range(1, n_max + 1)]
    logs = [None]
    for n in range(1, n_max + 1):
        m = [n * g for g in graphs[n]]
        for k in range(1, n):
            for i, a in enumerate(logs[k]):
                for j, b in enumerate(graphs[n - k]):
                    m[i + j] -= a * b
        logs.append(m)
    connected = [None]
    for n in range(1, n_max + 1):
        c = [0] * len(graphs[n])
        for d in range(1, n + 1):
            mu = _mobius(d) if n % d == 0 else 0
            if mu:
                for i, a in enumerate(logs[n // d]):
                    c[i * d] += mu * a
        assert all(x % n == 0 for x in c)
        connected.append([x // n for x in c])
    return connected


def labeled_connected_counts_by_edges(n_max):
    """Labeled connected graphs by edge count, for n = 1..n_max: index n
    holds the list of counts for e = 0..n(n - 1)/2 edges.

    Of the C(C(n, 2), e) labeled graphs with n vertices and e edges, those
    whose vertex 1 lies in a component of k vertices and j edges number
    C(n - 1, k - 1) times the connected ones of order k with j edges times
    all graphs on the other n - k vertices with e - j edges.  The k = n
    term is the connected count (Harary and Palmer, *Graphical
    Enumeration*, 1973, ch. 1); the totals are OEIS A001187.
    """
    connected = [None]
    for n in range(1, n_max + 1):
        pairs = n * (n - 1) // 2
        counts = [math.comb(pairs, e) for e in range(pairs + 1)]
        for k in range(1, n):
            ways = math.comb(n - 1, k - 1)
            rest = (n - k) * (n - k - 1) // 2
            for j, c in enumerate(connected[k]):
                for i in range(rest + 1):
                    counts[i + j] -= ways * c * math.comb(rest, i)
        connected.append(counts)
    return connected


def automorphism_group_order(g):
    """|Aut(g)| from the stabilizer chain of ``automorphism_generators``
    here, which shares no search with the library's generators.

    ``automorphism_generators`` visits b_1, ..., b_n in refined-cell order
    and keeps one automorphism fixing b_1, ..., b_(i-1) for each image x
    of b_i it finds, so b_i is the first vertex in that order that each
    map kept at level i moves.  Those images and b_i itself are the orbit
    of b_i under the stabilizer of b_1, ..., b_(i-1), so |Aut(g)| is the
    product over the levels of 1 + the maps kept there.
    """
    base = [v for cell in _refined_cells(g) for v in cell]
    kept = Counter(
        next(v for v in base if sigma[v] != v) for sigma in automorphism_generators(g)
    )
    return math.prod(1 + kept[v] for v in base)

def _mobius(d):
    """The Möbius function: 0 if a square divides d, else (-1)^(prime factors)."""
    sign, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if d > 1 else sign


# -- shared test graphs -----------------------------------------------


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, rng):
    """Each of the n(n-1)/2 pairs is an edge with probability 1/2."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return from_edges(n, edges)
