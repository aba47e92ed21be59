"""networkx as an independent oracle for alpha and for the order-7 classes."""

import pytest

nx = pytest.importorskip("networkx")

from absindex import (  # noqa: E402
    canonical_form,
    connected_class_forms,
    from_edges,
    independence_number,
)


def test_independence_number_is_clique_number_of_complement(gnp_graphs):
    for g in gnp_graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.order))
        h.add_edges_from(g.edges())
        _, size = nx.max_weight_clique(nx.complement(h), weight=None)
        assert independence_number(g) == size


def test_atlas_order_7_gives_exactly_the_enumerated_classes():
    # the atlas lists each graph up to 7 vertices once, up to isomorphism
    forms = sorted(
        canonical_form(from_edges(7, atlas.edges()))
        for atlas in nx.graph_atlas_g()
        if atlas.number_of_nodes() == 7 and nx.is_connected(atlas)
    )
    assert len(forms) == len(set(forms)) == 853
    assert forms == sorted(connected_class_forms(7))
