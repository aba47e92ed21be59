import math

import pytest

from absindex import (
    GraphInvariants,
    TuranDecomposition,
    abs_index,
    are_isomorphic,
    chromatic_bound_printed,
    complete_graph,
    complete_split,
    double_star,
    double_star_split_value,
    formula_audit,
    from_edges,
    independence_bound_printed,
    kite,
    pendant_bound_printed,
    pendant_count,
    pendant_maximizer,
    star,
    turan,
)
from absindex import extremal
from absindex.extremal import (
    CASES,
    THEOREMS,
    kite_clique_contribution,
    pendant_bound_clique_term_printed,
)
from absindex.graphs import GraphError
from absindex.search import CONSTRAINT_KINDS

import references

EXACT = 1e-12


class TestTuranDecomposition:
    def test_5_3(self):
        d = TuranDecomposition.of(5, 3)
        assert (d.q, d.r) == (1, 2)
        assert d.part_sizes == (2, 2, 1)

    def test_balanced_and_summing(self):
        for n in range(2, 13):
            for chi in range(2, n + 1):
                d = TuranDecomposition.of(n, chi)
                assert sum(d.part_sizes) == n
                assert max(d.part_sizes) - min(d.part_sizes) <= 1
                assert n == d.q * chi + d.r and 0 <= d.r < chi

    def test_rejects_bad_chi(self):
        with pytest.raises(GraphError):
            TuranDecomposition.of(5, 6)


class TestConstructors:
    def test_turan_5_3(self):
        g = turan(5, 3)
        assert g.edge_count == 8
        assert sorted(g.degrees()) == [3, 3, 3, 3, 4]

    def test_turan_r0(self):
        assert sorted(turan(6, 3).degrees()) == [4] * 6

    def test_turan_complete(self):
        assert turan(5, 5) == complete_graph(5)

    def test_complete_split_degrees(self):
        g = complete_split(6, 2)
        assert sorted(g.degrees()) == [4, 4, 5, 5, 5, 5]

    def test_complete_split_alpha1_is_complete(self):
        assert complete_split(5, 1) == complete_graph(5)

    def test_complete_split_max_alpha_is_star(self):
        assert are_isomorphic(complete_split(5, 4), star(5))

    def test_star_rejects_tiny(self):
        with pytest.raises(GraphError):
            star(1)

    def test_double_star_p4(self):
        p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert are_isomorphic(double_star(4, 2), p4)

    def test_double_star_degrees(self):
        g = double_star(6, 2)
        assert sorted(g.degrees()) == [1, 1, 1, 1, 2, 4]
        assert pendant_count(g) == 4

    def test_double_star_rejects_bad_m(self):
        with pytest.raises(GraphError):
            double_star(6, 5)

    def test_kite_no_pendants_is_complete(self):
        assert kite(5, 0) == complete_graph(5)

    def test_kite_structure(self):
        # core of 2 degenerates to a star, so p = n - 2 is excluded here
        for n in range(4, 9):
            for p in range(1, n - 2):
                g = kite(n, p)
                assert pendant_count(g) == p
                core = n - p
                for u in range(core):
                    for v in range(u + 1, core):
                        assert g.has_edge(u, v)

    def test_kite_rejects_large_p(self):
        with pytest.raises(GraphError):
            kite(4, 3)

    def test_pendant_maximizer_cases(self):
        assert are_isomorphic(pendant_maximizer(6, 5), star(6))
        assert are_isomorphic(pendant_maximizer(6, 4), double_star(6, 2))
        assert are_isomorphic(pendant_maximizer(6, 2), kite(6, 2))

    def test_pendant_maximizer_has_its_pendant_count(self):
        # wherever it exists; at n = 2 it does not, as K2 has two pendants
        with pytest.raises(GraphError, match="order 2"):
            pendant_maximizer(2, 1)
        assert CASES["T3"].maximizer(2, 1) is None
        for n in range(3, 13):
            for p in range(1, n):
                g = CASES["T3"].maximizer(n, p)
                assert g is None or pendant_count(g) == p


class TestDirectValues:
    def test_turan_5_3(self):
        expected = 4 * math.sqrt(2 / 3) + 4 * math.sqrt(5 / 7)
        assert abs_index(turan(5, 3)) == pytest.approx(expected, abs=EXACT)

    def test_complete_split_4_2(self):
        expected = 4 * math.sqrt(3 / 5) + math.sqrt(2 / 3)
        assert abs_index(complete_split(4, 2)) == pytest.approx(expected, abs=EXACT)

    def test_star_5(self):
        assert abs_index(star(5)) == pytest.approx(4 * math.sqrt(3 / 5), abs=EXACT)

    def test_double_star_6_2(self):
        expected = math.sqrt(1 / 3) + math.sqrt(2 / 3) + 3 * math.sqrt(3 / 5)
        assert abs_index(double_star(6, 2)) == pytest.approx(expected, abs=EXACT)

    def test_kite_6_2(self):
        expected = 2 * math.sqrt(2 / 3) + 3 * math.sqrt(3 / 4) + 3 * math.sqrt(2 / 3)
        assert abs_index(kite(6, 2)) == pytest.approx(expected, abs=EXACT)

    def test_kite_5_2(self):
        expected = 2 * math.sqrt(3 / 5) + 2 * math.sqrt(2 / 3) + math.sqrt(0.5)
        assert abs_index(kite(5, 2)) == pytest.approx(expected, abs=EXACT)


class TestPrintedBounds:
    """The published closed forms, evaluated exactly as printed."""

    def test_chromatic_5_3(self):
        expected = math.sqrt(3 / 4) + 4 * math.sqrt(5 / 7)
        assert chromatic_bound_printed(5, 3) == pytest.approx(expected, abs=EXACT)

    def test_chromatic_r0_single_term(self):
        # r = 0 kills the first two terms
        n, chi = 6, 3
        q = 2
        expected = chi * (chi - 1) * (q + 1) ** 2 / 2 * math.sqrt((n - q - 2) / (n - q))
        assert chromatic_bound_printed(n, chi) == pytest.approx(expected, abs=EXACT)

    def test_independence_4_2(self):
        assert independence_bound_printed(4, 2) == pytest.approx(
            2 * math.sqrt(2), abs=EXACT
        )

    def test_independence_vanishing(self):
        assert pendant_bound_printed(4, 3) == pytest.approx(
            3 * math.sqrt(2) / 4, abs=EXACT
        )
        assert independence_bound_printed(4, 3) == 0.0

    def test_pendant_star_case(self):
        assert pendant_bound_printed(5, 4) == pytest.approx(
            4 * math.sqrt(3) / 5, abs=EXACT
        )

    def test_pendant_double_star_case(self):
        expected = 1 / math.sqrt(3) + math.sqrt(4) / 6 + 3 * math.sqrt(3) / 5
        assert pendant_bound_printed(6, 4) == pytest.approx(expected, abs=EXACT)

    def test_pendant_kite_case(self):
        expected = (
            2 * math.sqrt(4 / 6)
            + 3 * math.sqrt(5 / 7)
            + 0.5 * math.sqrt(3) * 2**1.5
        )
        assert pendant_bound_printed(6, 2) == pytest.approx(expected, abs=EXACT)

    def test_pendant_rejects_boundary(self):
        with pytest.raises(GraphError):
            pendant_bound_printed(6, 0)
        with pytest.raises(GraphError):
            pendant_bound_printed(6, 6)

    def test_chromatic_refuses_order_2(self):
        # verbatim, the third radicand would be -1
        with pytest.raises(GraphError, match=r"^need n >= 3, got n=2$"):
            chromatic_bound_printed(2, 2)

    @pytest.mark.parametrize(
        "name",
        ["chromatic_bound_printed", "independence_bound_printed", "pendant_bound_printed"],
    )
    def test_same_as_the_reference_body(self, name):
        """The same float, or the same exception type and message, as the
        bound's old body at every 3 <= n <= 40 and 0 <= k <= n + 1."""

        def outcome(bound, n, k):
            try:
                return bound(n, k)
            except Exception as e:
                return type(e), str(e)

        bound, reference = getattr(extremal, name), getattr(references, name)
        for n in range(3, 41):
            for k in range(n + 2):
                assert outcome(bound, n, k) == outcome(reference, n, k), (n, k)


class TestFormulaAudit:
    def test_chromatic_disagrees(self):
        a = formula_audit("T1", 5, 3)
        assert not a.agrees
        assert a.printed_value == pytest.approx(4.2466424, abs=1e-6)
        assert a.direct_value == pytest.approx(6.6466033, abs=1e-6)

    def test_independence_disagrees(self):
        a = formula_audit("T2", 4, 2)
        assert not a.agrees
        assert a.printed_value == pytest.approx(2.8284271, abs=1e-6)
        assert a.direct_value == pytest.approx(3.9148833, abs=1e-6)

    def test_pendant_star_disagrees(self):
        a = formula_audit("T3", 5, 4)
        assert not a.agrees
        assert a.printed_value == pytest.approx(1.3856406, abs=1e-6)
        assert a.direct_value == pytest.approx(3.0983867, abs=1e-6)

    def test_clique_term_agrees(self):
        a = formula_audit("T3-clique-term", 6, 2)
        assert a.agrees
        assert a.printed_value == pytest.approx(2.4494897, abs=1e-6)

    def test_clique_term_agrees_in_range(self):
        for n in range(5, 9):
            for p in range(1, n - 2):
                assert pendant_bound_clique_term_printed(n, p) == pytest.approx(
                    kite_clique_contribution(n, p), abs=1e-9
                )

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            formula_audit("T4", 5, 2)


class TestDoubleStarSplit:
    def test_matches_graph_value(self):
        assert double_star_split_value(4, 1) == pytest.approx(
            abs_index(double_star(6, 2)), abs=EXACT
        )
        assert double_star_split_value(4, 2) == pytest.approx(
            abs_index(double_star(6, 3)), abs=EXACT
        )

    def test_split_symmetry(self):
        for p in range(2, 11):
            for t in range(1, p):
                assert double_star_split_value(p, t) == pytest.approx(
                    double_star_split_value(p, p - t), abs=EXACT
                )

    def test_endpoints_maximize(self):
        for p in range(3, 11):
            values = {t: double_star_split_value(p, t) for t in range(1, p)}
            top = max(values.values())
            argmax = {t for t, v in values.items() if top - v <= 1e-9}
            assert argmax == {1, p - 1}

    def test_rejects_bad_split(self):
        with pytest.raises(GraphError):
            double_star_split_value(4, 0)
        with pytest.raises(GraphError):
            double_star_split_value(4, 4)


class TestClaimTable:
    def test_cases(self):
        assert tuple(CASES) == ("T1", "T2", "T3", "T3-clique-term")
        assert THEOREMS == ("T1", "T2", "T3")
        assert [CASES[t].kind for t in THEOREMS] == list(CONSTRAINT_KINDS[:3])
        assert CASES["T3-clique-term"].construct is None

    def test_parameter_ranges(self):
        assert [list(CASES[c].params(6)) for c in CASES] == [
            [3, 4, 5], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [1, 2, 3]
        ]
        assert [CASES[c].param for c in CASES] == ["chi", "alpha", "p", "p"]

    def test_claims_match_the_constructions(self):
        """From its first claimed order on, every maximizer has the claimed
        value of its constraint; T3's has p pendants exactly from order 3 on."""
        for theorem in THEOREMS:
            case = CASES[theorem]
            for n in range(1, 13):
                for k in case.params(n):
                    g = case.maximizer(n, k)
                    if g is None:
                        continue
                    value = getattr(GraphInvariants.of(g), case.kind)
                    if n >= case.claimed_from:
                        assert value == k, (theorem, n, k)
                    if theorem == "T3":
                        assert (value == k) == (n >= 3), (n, k)

    def test_maximizer_outside_its_domain_is_none(self):
        assert CASES["T1"].maximizer(5, 1) is None
        assert CASES["T2"].maximizer(5, 5) is None
        assert CASES["T3"].maximizer(3, 1) is None  # no double star of order 3
        assert CASES["T3"].maximizer(6, 3) == kite(6, 3)

    def test_maximizer_at_an_order_no_graph_has_raises(self):
        # a missing maximizer is None only for an order a graph can have
        with pytest.raises(GraphError):
            CASES["T3"].maximizer(13, 1)

    def test_constructors_are_looked_up_in_the_module(self, monkeypatch):
        """A wrapper bound over a constructor's module name sees the table's
        calls, as the benchmark's tracer needs."""
        calls = []
        for name in ("turan", "complete_split", "pendant_maximizer"):
            original = getattr(extremal, name)

            def wrapped(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(extremal, name, wrapped)
        for theorem in THEOREMS:
            CASES[theorem].maximizer(6, 3)
        assert calls == ["turan", "complete_split", "pendant_maximizer"]
