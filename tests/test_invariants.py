import itertools
import random
import sys

import pytest

from absindex import (
    GraphError,
    are_isomorphic,
    canonical_form,
    chromatic_number,
    complete_graph,
    complete_split,
    connected_class_forms,
    double_star,
    from_edges,
    independence_number,
    kite,
    pendant_count,
    star,
    turan,
    GraphInvariants,
    enumerate_connected,
)
from absindex import search
from absindex.invariants import (
    _colorable,
    _refined_cells,
    canonical_labeling,
    graph_from_canonical_form,
    independence_within,
)

import references
from references import cycle, random_graph


def permuted(g, perm):
    return from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


PETERSEN = from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


# -- independent slow oracles -----------------------------------------


def chromatic_oracle(g):
    """Smallest k with a proper coloring, by trying every assignment."""
    if g.edge_count == 0:
        return 1
    edges = g.edges()
    for k in range(2, g.order + 1):
        for coloring in itertools.product(range(k), repeat=g.order):
            if all(coloring[u] != coloring[v] for u, v in edges):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def independence_oracle(g):
    """Largest independent subset, by scanning all 2^n subsets."""
    best = 0
    for mask in range(1 << g.order):
        members = [v for v in range(g.order) if mask >> v & 1]
        if all(not g.has_edge(u, v) for u, v in itertools.combinations(members, 2)):
            best = max(best, len(members))
    return best


class TestChromatic:
    def test_odd_cycle(self):
        assert chromatic_number(cycle(5)) == 3

    def test_complete(self):
        assert chromatic_number(complete_graph(4)) == 4

    def test_turan_5_3(self):
        assert chromatic_number(turan(5, 3)) == 3

    def test_edgeless(self):
        assert chromatic_number(from_edges(3, [])) == 1

    def test_single_vertex(self):
        assert chromatic_number(from_edges(1, [])) == 1

    def test_against_oracle_random(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng.randint(2, 6), rng)
            assert chromatic_number(g) == chromatic_oracle(g)


class TestIndependence:
    def test_cycle(self):
        assert independence_number(cycle(5)) == 2

    def test_complete(self):
        assert independence_number(complete_graph(6)) == 1

    def test_star(self):
        assert independence_number(star(5)) == 4

    def test_single_vertex(self):
        assert independence_number(from_edges(1, [])) == 1

    def test_against_oracle_random(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng.randint(2, 8), rng)
            assert independence_number(g) == independence_oracle(g)


class TestPendants:
    def test_star(self):
        assert pendant_count(star(5)) == 4

    def test_cycle(self):
        assert pendant_count(cycle(5)) == 0

    def test_double_star(self):
        g = from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5)])
        assert pendant_count(g) == 4


class TestInvariantRelations:
    def test_color_classes_cover(self):
        # each color class is independent, so chi * alpha >= n
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng.randint(2, 7), rng)
            inv = GraphInvariants.of(g)
            assert inv.chromatic * inv.independence >= g.order

    def test_turan_invariants(self):
        for n in range(3, 9):
            for chi in range(3, n + 1):
                g = turan(n, chi)
                assert chromatic_number(g) == chi
                assert independence_number(g) == -(-n // chi)

    def test_complete_split_independence(self):
        for n in range(2, 9):
            for alpha in range(1, n):
                assert independence_number(complete_split(n, alpha)) == alpha


class TestCanonicalForm:
    def test_relabeling_invariance_path(self):
        a = from_edges(3, [(0, 1), (1, 2)])
        b = from_edges(3, [(1, 0), (0, 2)])
        assert canonical_form(a) == canonical_form(b)

    def test_distinguishes_c4_p4(self):
        c4 = cycle(4)
        p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert canonical_form(c4) != canonical_form(p4)

    def test_permutation_invariance_random(self):
        rng = random.Random(13)
        for _ in range(100):
            g = random_graph(rng.randint(2, 8), rng)
            perm = list(range(g.order))
            rng.shuffle(perm)
            assert canonical_form(permuted(g, perm)) == canonical_form(g)

    def test_connected_class_count_n5(self):
        # dedup all labeled graphs on 5 vertices: 21 connected classes
        forms = set()
        pairs = list(itertools.combinations(range(5), 2))
        for mask in range(1 << len(pairs)):
            g = from_edges(5, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
            if g.is_connected():
                forms.add(canonical_form(g))
        assert len(forms) == 21


def reference_refined_cells(g):
    """Colour refinement with sorted neighbour-colour tuples as signatures."""
    n = g.order
    colors = [row.bit_count() for row in g.rows]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[sigs[v]] for v in range(n)]
        stable = len(set(new)) == len(set(colors))
        colors = new
        if stable:
            break
    cells = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


class TestRefinement:
    def test_matches_reference_on_every_class_relabeled(self):
        rng = random.Random(17)
        for n in range(1, 8):
            for g in enumerate_connected(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, permuted(g, perm)):
                    assert _refined_cells(h) == reference_refined_cells(h)

    def test_matches_reference_on_random_graphs_up_to_12(self):
        rng = random.Random(19)
        for _ in range(300):
            g = random_graph(rng.randint(1, 12), rng)
            assert _refined_cells(g) == reference_refined_cells(g)

    def test_matches_reference_on_gnp_graphs_9_to_12(self, gnp_graphs):
        for g in gnp_graphs:
            assert _refined_cells(g) == reference_refined_cells(g)

    def test_matches_reference_on_every_order_8_class_relabeled(self):
        rng = random.Random(47)
        perm = list(range(8))
        for form in connected_class_forms(8):
            rng.shuffle(perm)
            g = permuted(graph_from_canonical_form(form), perm)
            assert _refined_cells(g) == reference_refined_cells(g)

    def test_single_cell_graphs(self):
        # vertex-transitive, so no round splits the one degree class
        rng = random.Random(53)
        for g in (cycle(12), turan(12, 2), PETERSEN):
            perm = list(range(g.order))
            rng.shuffle(perm)
            for h in (g, permuted(g, perm)):
                assert _refined_cells(h) == reference_refined_cells(h) == [list(range(g.order))]

    def test_matches_reference_on_extremal_families(self):
        rng = random.Random(59)
        for n in range(2, 13):
            family = [star(n), *(turan(n, chi) for chi in range(2, n + 1))]
            family += [complete_split(n, a) for a in range(1, n)]
            family += [double_star(n, m) for m in range(2, n - 1)]
            family += [kite(n, p) for p in range(0, n - 1)]
            for g in family:
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, permuted(g, perm)):
                    assert _refined_cells(h) == reference_refined_cells(h)


class TestKernelReferences:
    """chi, alpha and the form decoder return exactly what the old bodies did."""

    def test_every_class_up_to_7(self, small_classes):
        for g in small_classes:
            assert chromatic_number(g) == references.chromatic_number(g)
            assert independence_number(g) == references.independence_number(g)
            form = canonical_form(g)
            assert graph_from_canonical_form(form) == references.graph_from_canonical_form(form)

    def test_gnp_graphs_9_to_12(self, gnp_graphs):
        for g in gnp_graphs:
            assert chromatic_number(g) == references.chromatic_number(g)
            assert independence_number(g) == references.independence_number(g)

    def test_form_decoder_on_random_pair_strings(self):
        # any packed pair string is a form's body, so no canonical_form
        # (whose search explodes on some n >= 9 graphs) is needed
        rng = random.Random(29)
        for n in range(1, 13):
            nbits = n * (n - 1) // 2
            for _ in range(40):
                tri = rng.getrandbits(nbits)
                form = bytes([n]) + tri.to_bytes(max(1, (nbits + 7) // 8), "big")
                assert graph_from_canonical_form(form) == references.graph_from_canonical_form(form)


class TestFormDecoder:
    """graph_from_canonical_form takes only forms of the length
    form_from_triangle writes for their order."""

    def test_rejects_wrong_lengths(self):
        for form in (b"", b"\x05", b"\x05\x00\x00\x00"):
            with pytest.raises(GraphError, match="wrong length"):
                graph_from_canonical_form(form)

    def test_every_form_up_to_7_round_trips(self):
        for n in range(1, 8):
            for form in connected_class_forms(n):
                assert canonical_form(graph_from_canonical_form(form)) == form


class TestCanonicalLabelingReference:
    """The packed-column search returns exactly the old search's minimal
    triangle and the first vertex order that reaches it."""

    def test_every_class_up_to_7(self, small_classes):
        for g in small_classes:
            assert canonical_labeling(g)[:2] == references.canonical_labeling(g)

    def test_every_order_8_class_relabeled(self):
        rng = random.Random(61)
        perm = list(range(8))
        for form in connected_class_forms(8):
            rng.shuffle(perm)
            g = permuted(graph_from_canonical_form(form), perm)
            assert canonical_labeling(g)[:2] == references.canonical_labeling(g)

    def test_gnp_graphs_9_to_12(self, gnp_graphs):
        for g in gnp_graphs:
            assert canonical_labeling(g)[:2] == references.canonical_labeling(g)

    def test_symmetric_families(self):
        # the searches that walk the most orders
        for g in (complete_graph(8), star(9), kite(9, 7), complete_split(9, 8), turan(10, 5)):
            assert canonical_labeling(g)[:2] == references.canonical_labeling(g)


def assert_reference_orbits(graphs):
    """The labeling search's generators and the old stabilizer chain give
    every vertex the same orbit."""
    for g in graphs:
        ours = canonical_labeling(g)[2]
        old = references.automorphism_generators(g)
        for v in range(g.order):
            assert search._orbit(ours, v) == search._orbit(old, v)


class TestIsomorphismReference:
    """The labeling search's generators give the orbits of the stabilizer
    chain built on the reference isomorphism search."""

    def test_generator_orbits_of_gnp_graphs_9_to_12(self, gnp_graphs):
        assert_reference_orbits(gnp_graphs)


def _inner_code(fn, name):
    return next(c for c in fn.__code__.co_consts if getattr(c, "co_name", None) == name)


def _count_calls(codes, work, limit=None) -> tuple[int, ...]:
    """Calls of each code object while ``work()`` runs, counted by a profile
    hook; the hook raises once one code passes ``limit`` calls, so a search
    gone exponential fails at once instead of running for minutes."""
    counts = dict.fromkeys(codes, 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1
            if limit is not None and counts[frame.f_code] > limit:
                raise AssertionError(f"{frame.f_code.co_name} called over {limit} times")

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return tuple(counts.values())


def search_nodes(graphs) -> tuple[int, int, int]:
    """Calls of α's ``expand``, χ's ``assign`` (in ``_colorable``, the one
    colouring search, which ``colour_classes`` shares) and the canonical
    labeling's ``place`` (one per search node) while α, χ and the canonical
    labeling of each graph are computed."""

    def work():
        for g in graphs:
            independence_number(g)
            chromatic_number(g)
            canonical_labeling(g)

    return _count_calls(
        (
            _inner_code(independence_within, "expand"),
            _inner_code(_colorable, "assign"),
            _inner_code(canonical_labeling, "place"),
        ),
        work,
    )


def reference_place_nodes(graphs) -> int:
    """Calls of the reference labeling's ``place`` on the graphs whose
    refined cells are not discrete (the others take no search now)."""
    searched = [g for g in graphs if len(_refined_cells(g)) < g.order]

    def work():
        for g in searched:
            references.canonical_labeling(g)

    return _count_calls((_inner_code(references.canonical_labeling, "place"),), work)[0]


class TestSearchNodes:
    """α and χ are exact under any branching rule, so only the node counts
    see the rule: α branches on its lowest candidate, taken or left out.
    The labeling's count is pinned beside the unpruned reference's on the
    graphs it searches: twin pruning and descending only the candidates of
    least column keep about a quarter of its nodes.  The column rule cuts
    most on one-cell graphs (``TestOneCellSearch``)."""

    def test_every_class_up_to_7(self, small_classes):
        assert search_nodes(small_classes) == (16826, 1430, 10043)
        assert reference_place_nodes(small_classes) == 47071

    def test_gnp_graphs_9_to_12(self, gnp_graphs):
        assert search_nodes(gnp_graphs) == (14156, 1981, 1930)
        assert reference_place_nodes(gnp_graphs) == 7128


TWIN_FAMILIES = {
    # each graph's place count, then those of three seeded relabelings
    "star(12)": (star(12), (13, 13, 13, 13)),
    "K12": (complete_graph(12), (13, 13, 13, 13)),
    "complete_split(12,3)": (complete_split(12, 3), (13, 13, 13, 13)),
    "kite(12,2)": (kite(12, 2), (13, 13, 13, 13)),
    "turan(12,2)": (turan(12, 2), (25, 25, 25, 25)),
    "turan(12,4)": (turan(12, 4), (193, 193, 193, 193)),
    "double_star(12,5)": (double_star(12, 5), (13, 13, 13, 13)),
}


class TestTwinPruning:
    """Families made of twin classes, whose unpruned searches visit one
    minimal leaf per automorphism (11! on star(12), which took 223 s), too
    many for the reference to check.  Each gets one form under
    relabelings, decoding to a graph isomorphic to it.  The count hook
    stops a search past 10 000 nodes, so a lost pruning fails in
    milliseconds."""

    @pytest.mark.parametrize("name", TWIN_FAMILIES)
    def test_one_form_under_relabelings(self, name):
        g, pinned = TWIN_FAMILIES[name]
        rng = random.Random(41)
        graphs = [g]
        for _ in range(3):
            perm = list(range(g.order))
            rng.shuffle(perm)
            graphs.append(permuted(g, perm))
        place = _inner_code(canonical_labeling, "place")
        forms = []
        counts = tuple(
            _count_calls((place,), lambda: forms.append(canonical_form(h)), limit=10_000)[0]
            for h in graphs
        )
        assert counts == pinned
        assert len(set(forms)) == 1
        decoded = graph_from_canonical_form(forms[0])
        assert references.find_isomorphism(decoded, g) is not None


def random_regular(n, d, rng):
    """A seeded d-regular graph on n vertices (n * d even, d < n): the
    circulant joining each vertex to the d // 2 nearest on each side, and
    to the opposite vertex if d is odd, then random edge swaps (a-b, c-e
    to a-e, c-b), each keeping every degree and the graph simple."""
    edges = {tuple(sorted((u, (u + k) % n))) for u in range(n) for k in range(1, d // 2 + 1)}
    if d % 2:
        edges |= {(u, u + n // 2) for u in range(n // 2)}
    edges = sorted(edges)
    for _ in range(10 * len(edges)):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, e) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, e = e, c
        swapped = [tuple(sorted(pair)) for pair in ((a, e), (c, b))]
        if a != e and c != b and not any(pair in edges for pair in swapped):
            edges[i], edges[j] = swapped
    return from_edges(n, edges)


REGULAR_GRAPHS = [
    random_regular(n, d, random.Random(100 * n + d))
    for n in range(10, 13)
    for d in range(3, 7)
    if n * d % 2 == 0
]


class TestOneCellSearch:
    """Regular graphs, which refinement leaves one cell, so the labeling
    search alone orders their vertices.  Only candidates of least column
    are descended; the count hook stops a search past 20 000 nodes, so a
    lost pruning fails in milliseconds (C12 took 52 063 without it)."""

    def test_random_regular_graphs_match_the_references(self):
        rng = random.Random(53)
        graphs = []
        for g in REGULAR_GRAPHS:
            assert _refined_cells(g) == [list(range(g.order))]
            perm = list(range(g.order))
            rng.shuffle(perm)
            graphs += [g, permuted(g, perm)]
        place = _inner_code(canonical_labeling, "place")
        labelings = []
        count = _count_calls(
            (place,), lambda: labelings.extend(map(canonical_labeling, graphs)), limit=20_000
        )[0]
        assert count == 12048
        for g, labeling in zip(graphs, labelings):
            assert labeling[:2] == references.canonical_labeling(g)
        assert_reference_orbits(REGULAR_GRAPHS)

    @pytest.mark.parametrize(
        "g, pinned", [(cycle(12), 9925), (PETERSEN, 1105)], ids=["C12", "Petersen"]
    )
    def test_symmetric_graphs(self, g, pinned):
        place = _inner_code(canonical_labeling, "place")
        labeling = []
        count = _count_calls((place,), lambda: labeling.append(canonical_labeling(g)), limit=20_000)[0]
        assert count == pinned
        assert labeling[0][:2] == references.canonical_labeling(g)


class TestIsomorphism:
    def test_relabelled_cycle(self):
        g = cycle(5)
        assert are_isomorphic(g, permuted(g, [2, 0, 4, 1, 3]))

    def test_claw_vs_path(self):
        claw = star(4)
        p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert not are_isomorphic(claw, p4)

    def test_turan_6_3_is_octahedron(self):
        # independent construction of K_{2,2,2}
        k222 = from_edges(
            6,
            [
                (u, v)
                for u in range(6)
                for v in range(u + 1, 6)
                if u % 3 != v % 3
            ],
        )
        assert are_isomorphic(turan(6, 3), k222)

    def test_order_mismatch(self):
        assert not are_isomorphic(cycle(4), cycle(5))

    def test_generators_find_exactly_the_orbit_pairs(self):
        # w lies in u's orbit under the generators iff some automorphism,
        # found by brute force over all permutations, maps u onto w
        for n in range(1, 7):
            for g in enumerate_connected(n):
                edges = g.edges()
                orbit_pairs = {
                    (u, p[u])
                    for p in itertools.permutations(range(n))
                    if all(g.has_edge(p[u], p[v]) for u, v in edges)
                    for u in range(n)
                }
                generators = canonical_labeling(g)[2]
                for sigma in generators:
                    assert permuted(g, sigma) == g
                for u in range(n):
                    orbit = search._orbit(generators, u)
                    for w in range(n):
                        assert bool(orbit >> w & 1) == ((u, w) in orbit_pairs)

    def test_relabelings_of_symmetric_families_at_12(self):
        rng = random.Random(31)
        for g in (star(12), turan(12, 2), complete_split(12, 3), kite(12, 2)):
            perm = list(range(12))
            rng.shuffle(perm)
            h = permuted(g, perm)
            assert are_isomorphic(g, h)

    def test_two_regular_graphs_of_order_12(self):
        # one disjoint union of cycles per partition of 12 into parts >= 3;
        # refinement leaves each one cell, so only the labeling search
        # tells them apart
        def partitions(total, least):
            if total == 0:
                yield ()
            for part in range(least, total + 1):
                for rest in partitions(total - part, part):
                    yield (part, *rest)

        rng = random.Random(43)
        forms = set()
        for lengths in partitions(12, 3):
            edges, start = [], 0
            for k in lengths:
                edges += [(start + i, start + (i + 1) % k) for i in range(k)]
                start += k
            g = from_edges(12, edges)
            assert _refined_cells(g) == [list(range(12))]
            perm = list(range(12))
            rng.shuffle(perm)
            assert are_isomorphic(g, permuted(g, perm))
            forms.add(canonical_form(g))
        assert len(forms) == 9
