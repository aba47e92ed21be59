"""networkx as an independent oracle for alpha, isomorphism, automorphism
groups, graph6 and the order-7 classes."""

import itertools
import random

import pytest

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402

from absindex import (  # noqa: E402
    are_isomorphic,
    canonical_form,
    complete_graph,
    connected_class_forms,
    encode_graph6,
    enumerate_connected,
    from_edges,
    independence_number,
)
from absindex.invariants import canonical_labeling  # noqa: E402


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


def from_nx(h, order):
    return from_edges(order, list(h.edges()))


def test_independence_number_is_clique_number_of_complement(gnp_graphs):
    for g in gnp_graphs:
        h = to_nx(g)
        _, size = nx.max_weight_clique(nx.complement(h), weight=None)
        assert independence_number(g) == size


def test_graph6_agrees_with_networkx(small_classes, gnp_graphs):
    extremes = [g for n in range(1, 13) for g in (from_edges(n, []), complete_graph(n))]
    for g in [*small_classes, *gnp_graphs, *extremes]:
        text = nx.to_graph6_bytes(to_nx(g), header=False).strip()
        assert text == encode_graph6(g).encode()
        assert from_nx(nx.from_graph6_bytes(text), g.order) == g


def test_atlas_order_7_gives_exactly_the_enumerated_classes():
    # the atlas lists each graph up to 7 vertices once, up to isomorphism
    forms = sorted(
        canonical_form(from_edges(7, atlas.edges()))
        for atlas in nx.graph_atlas_g()
        if atlas.number_of_nodes() == 7 and nx.is_connected(atlas)
    )
    assert len(forms) == len(set(forms)) == 853
    assert forms == sorted(connected_class_forms(7))


def test_order_7_classes_with_equal_degree_sequences():
    # distinct classes, so every pair is non-isomorphic; only the
    # search, not a degree count, can tell these apart
    by_degrees = {}
    for g in enumerate_connected(7):
        by_degrees.setdefault(tuple(sorted(g.degrees())), []).append(g)
    pairs = 0
    for graphs in by_degrees.values():
        for g, h in itertools.combinations(graphs, 2):
            assert are_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))
            pairs += 1
    assert pairs == 3048


def test_automorphism_generators_generate_the_whole_group(small_classes):
    # networkx counts |Aut(g)|; FFzn_ (order 7, 4-regular) is where one
    # pinned map per refined cell generated a proper subgroup, 6 of 48
    for g in small_classes:
        h = to_nx(g)
        size = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        generators = canonical_labeling(g)[2]
        for sigma in generators:
            assert all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges())
        group = {tuple(range(g.order))}
        frontier = list(group)
        while frontier:
            p = frontier.pop()
            for sigma in generators:
                q = tuple(sigma[v] for v in p)
                if q not in group:
                    group.add(q)
                    frontier.append(q)
        assert len(group) == size, encode_graph6(g)


def test_gnp_relabelings_and_degree_preserving_swaps(gnp_graphs):
    rng = random.Random(41)
    verdicts = []
    for i, g in enumerate(gnp_graphs):
        perm = list(range(g.order))
        rng.shuffle(perm)
        relabeled = from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
        assert are_isomorphic(g, relabeled)
        assert nx.is_isomorphic(to_nx(g), to_nx(relabeled))
        # two edge swaps keep every degree; the result may or may not be
        # isomorphic to g
        swapped = to_nx(relabeled)
        if swapped.number_of_edges() < 4:
            continue
        try:
            nx.double_edge_swap(swapped, nswap=2, max_tries=100, seed=i)
        except nx.NetworkXException:
            continue
        other = from_nx(swapped, g.order)
        verdicts.append(are_isomorphic(g, other))
        assert verdicts[-1] == nx.is_isomorphic(to_nx(g), swapped)
    # both verdicts occur (25 isomorphic, 364 not, with these seeds)
    assert verdicts.count(True) > 10 and verdicts.count(False) > 300
