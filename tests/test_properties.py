"""Property-based tests of the graph6 decoder, the canonical form and
the isomorphism search."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from absindex import (  # noqa: E402
    Graph,
    Graph6Error,
    are_isomorphic,
    canonical_form,
    decode_graph6,
    encode_graph6,
    from_edges,
)
from absindex.invariants import graph_from_canonical_form  # noqa: E402

import references  # noqa: E402


@st.composite
def graphs(draw, max_order):
    return draw(graphs_of_order(draw(st.integers(1, max_order))))


@st.composite
def graphs_of_order(draw, n):
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


@st.composite
def graph6_like(draw):
    """Header, body length and body characters on and around the valid ones."""
    n = draw(st.integers(-2, 14))
    nbytes = max(0, (n * (n - 1) // 2 + 5) // 6)
    length = max(0, nbytes + draw(st.sampled_from((0, 0, 0, -1, 1))))
    body = draw(st.text(st.characters(min_codepoint=62, max_codepoint=127),
                        min_size=length, max_size=length))
    prefix = draw(st.sampled_from(("", "", ">>graph6<<", " ")))
    return prefix + chr(n + 63) + body


def find_isomorphism(g, h):
    """A list m with h.has_edge(m[u], m[v]) == g.has_edge(u, v), or None."""
    n = g.order
    if h.order != n:
        return None
    image = []

    def extend():
        u = len(image)
        if u == n:
            return True
        for x in range(n):
            if x in image or h.degree(x) != g.degree(u):
                continue
            if all(g.has_edge(u, w) == h.has_edge(x, image[w]) for w in range(u)):
                image.append(x)
                if extend():
                    return True
                image.pop()
        return False

    return image if extend() else None


@given(st.one_of(st.text(), graph6_like()))
def test_decode_returns_a_graph_or_raises_graph6_error(text):
    try:
        g = decode_graph6(text)
    except Graph6Error as exc:
        with pytest.raises(Graph6Error) as want:
            references.decode_graph6(text)
        assert str(exc) == str(want.value)
    else:
        assert isinstance(g, Graph)
        assert g == references.decode_graph6(text)


@given(graphs(12))
def test_graph6_round_trip(g):
    assert decode_graph6(encode_graph6(g)) == g


@given(graphs(7), st.data())
def test_canonical_form_is_invariant_under_relabeling(g, data):
    perm = data.draw(st.permutations(range(g.order)))
    relabeled = from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_form(relabeled) == canonical_form(g)


@given(graphs(7))
def test_canonical_graph_is_isomorphic(g):
    h = graph_from_canonical_form(canonical_form(g))
    assert find_isomorphism(g, h) is not None


@given(graphs(12), st.data())
def test_a_relabeling_is_isomorphic(g, data):
    perm = data.draw(st.permutations(range(g.order)))
    relabeled = from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
    assert are_isomorphic(g, relabeled)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(graphs_of_order(n), graphs_of_order(n))))
def test_isomorphism_agrees_with_the_backtracking_oracle(pair):
    g, h = pair
    assert are_isomorphic(g, h) == (find_isomorphism(g, h) is not None)
