import decimal
import math
import random

import pytest

from absindex import (
    EdgeContribution,
    abs_index,
    complete_graph,
    edge_contributions,
    edge_weight,
    enumerate_connected,
    from_edges,
    gain_contrast,
    shift_gain,
    star,
    turan,
)
from absindex.index import _WEIGHT_BY_EDGE_DEGREE

import references
from references import cycle

EXACT = 1e-12


class TestEdgeWeight:
    def test_degenerate_zero(self):
        assert edge_weight(1, 1) == 0.0

    def test_known_values(self):
        assert edge_weight(2, 2) == pytest.approx(math.sqrt(0.5), abs=EXACT)
        assert edge_weight(3, 4) == pytest.approx(math.sqrt(5 / 7), abs=EXACT)

    def test_real_arguments(self):
        assert edge_weight(1.5, 2.5) == pytest.approx(math.sqrt(0.5), abs=EXACT)

    def test_range(self):
        for x in (1, 2, 7.5, 40):
            for y in (1, 3.5, 50):
                assert 0 <= edge_weight(x, y) < 1

    def test_domain_rejection(self):
        bad = (0.5, 0.99, math.nan, math.inf)
        for x, y in [(x, 2) for x in bad] + [(2, y) for y in bad]:
            with pytest.raises(ValueError):
                edge_weight(x, y)


class TestShiftGain:
    def test_value_at_one(self):
        assert shift_gain(1, 1, 1) == pytest.approx(math.sqrt(1 / 3), abs=EXACT)

    def test_value_at_two(self):
        expected = math.sqrt(3 / 5) - math.sqrt(0.5)
        assert shift_gain(1, 2, 2) == pytest.approx(expected, abs=EXACT)

    def test_positive_sampled(self):
        rng = random.Random(1)
        for _ in range(200):
            s = rng.uniform(0.1, 5)
            x = rng.uniform(1, 30)
            y = rng.uniform(1, 30)
            assert shift_gain(s, x, y) > 0

    def test_zero_where_the_shift_rounds_away(self):
        # x + s rounds back to x, so both weights are one float
        assert shift_gain(1e-20, 2, 2) == 0.0
        assert shift_gain(1e-300, 1, 1) == 0.0

    def test_nonnegative_below_2_to_54(self):
        # x + y - 2 is exact below 2**54, so the rounded weight cannot fall
        rng = random.Random(7)
        for _ in range(2000):
            x, y = 10 ** rng.uniform(0, 15.7), 10 ** rng.uniform(0, 15.7)
            s = 10 ** rng.uniform(-20, 15.7)
            assert shift_gain(s, x, y) >= 0

    def test_rejects_nonpositive_shift(self):
        for s in (0, -1, math.nan, math.inf):
            with pytest.raises(ValueError):
                shift_gain(s, 2, 2)
        with pytest.raises(ValueError):
            shift_gain(1, math.nan, 2)


class TestGainContrast:
    def test_zero_at_equal_bounds(self):
        assert gain_contrast(2, 3, 3, 1.5) == 0.0

    def test_value(self):
        expected = (math.sqrt(1 / 3) - 0) - (math.sqrt(0.5) - math.sqrt(1 / 3))
        assert gain_contrast(1, 1, 2, 1) == pytest.approx(expected, abs=EXACT)

    def test_shrinks_in_x(self):
        # the contrast toward the smaller bound decays as x grows
        assert gain_contrast(1, 1, 3, 2) > gain_contrast(1, 1, 3, 5)

    def test_rejects_bad_bounds(self):
        for lo, hi in ((3, 2), (0.5, 2), (math.nan, 3), (1, math.nan), (1, math.inf)):
            with pytest.raises(ValueError):
                gain_contrast(1, lo, hi, 1)


class TestScalarLemmaProof:
    """The closed forms of phi', phi'' and phi''' that the ``index``
    docstring's proof rests on, phi(t) = sqrt(1 - 2/t) written at
    u = t - 2, against central differences of phi in 60-digit decimal
    arithmetic, so that a sign or coefficient slip in them fails."""

    def test_closed_forms_match_finite_differences(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            one = decimal.Decimal(1)

            def phi(u):
                return (u / (u + 2)).sqrt()

            points = [m * one.scaleb(e) for e in range(-6, 6) for m in (1, 2, 5)]
            for u in points + [one.scaleb(6)]:  # u from 1e-6 to 1e6
                r, s = u.sqrt(), (u + 2).sqrt()
                closed = (
                    1 / (r * s**3),
                    -(2 * u + 1) / (r**3 * s**5),
                    3 * (2 * u * u + 2 * u + 1) / (r**5 * s**7),
                )
                # the truncation errors are about (h / u)^2 = 1e-24 of each
                h = u.scaleb(-12)
                f = {k: phi(u + k * h) for k in (-2, -1, 0, 1, 2)}
                differences = (
                    (f[1] - f[-1]) / (2 * h),
                    (f[1] - 2 * f[0] + f[-1]) / h**2,
                    (f[2] - 2 * f[1] + 2 * f[-1] - f[-2]) / (2 * h**3),
                )
                assert closed[0] > 0 > closed[1] and closed[2] > 0
                for exact, estimate in zip(closed, differences):
                    assert abs(estimate / exact - 1) < decimal.Decimal("1e-15"), u


class TestAbsIndex:
    def test_k2_zero(self):
        assert abs_index(from_edges(2, [(0, 1)])) == 0.0

    def test_c5(self):
        assert abs_index(cycle(5)) == pytest.approx(5 * math.sqrt(0.5), abs=EXACT)

    def test_k4(self):
        assert abs_index(complete_graph(4)) == pytest.approx(
            6 * math.sqrt(2 / 3), abs=EXACT
        )

    def test_p3(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        assert abs_index(g) == pytest.approx(2 * math.sqrt(1 / 3), abs=EXACT)

    def test_edgeless(self):
        assert abs_index(from_edges(3, [])) == 0.0

    def test_bounded_by_edge_count(self):
        for n in range(2, 7):
            for g in enumerate_connected(n):
                assert 0 <= abs_index(g) < g.edge_count or g.edge_count == 0

    def test_edge_degree_form_equivalent(self):
        # the edge-degree formulation sums sqrt(1 - 2/(d_e + 2))
        for n in range(2, 6):
            for g in enumerate_connected(n):
                via_edge_degree = sum(
                    math.sqrt(1 - 2 / (g.edge_degree(u, v) + 2))
                    for u, v in g.edges()
                )
                assert abs_index(g) == pytest.approx(via_edge_degree, abs=EXACT)

    def test_isomorphism_invariance(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(2, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = from_edges(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            h = from_edges(n, [(perm[u], perm[v]) for u, v in edges])
            # same multiset of summands, so equality is exact
            assert abs_index(h) == abs_index(g)


class TestEdgeContributions:
    def test_star_symmetric(self):
        contribs = edge_contributions(star(5))
        assert len(contribs) == 4
        for c in contribs:
            assert c.value == pytest.approx(math.sqrt(3 / 5), abs=EXACT)

    def test_k2_single_zero(self):
        contribs = edge_contributions(from_edges(2, [(0, 1)]))
        assert [c.value for c in contribs] == [0.0]

    def test_turan_5_3_classes(self):
        values = sorted(c.value for c in edge_contributions(turan(5, 3)))
        expected = sorted([math.sqrt(2 / 3)] * 4 + [math.sqrt(5 / 7)] * 4)
        assert values == pytest.approx(expected, abs=EXACT)

    def test_sum_matches_index(self):
        for g in enumerate_connected(5):
            total = sum(c.value for c in edge_contributions(g))
            assert total == pytest.approx(abs_index(g), abs=EXACT)


class TestEdgeContributionRecord:
    def test_fields_in_order(self):
        assert EdgeContribution._fields == ("edge", "du", "dv", "value")

    def test_repr(self):
        c = edge_contributions(from_edges(2, [(0, 1)]))[0]
        assert repr(c) == "EdgeContribution(edge=(0, 1), du=1, dv=1, value=0.0)"

    def test_attributes_and_tuple_equality(self):
        c = edge_contributions(star(3))[1]
        assert (c.edge, c.du, c.dv, c.value) == ((0, 2), 2, 1, edge_weight(2, 1))
        assert c == ((0, 2), 2, 1, edge_weight(2, 1))

    def test_immutable(self):
        c = edge_contributions(star(3))[0]
        for field in EdgeContribution._fields:
            with pytest.raises(AttributeError):
                setattr(c, field, 0)
        with pytest.raises(AttributeError):
            c.weight = 1.0


class TestKernelReferences:
    """abs_index and edge_contributions return exactly what the old bodies did."""

    def test_weight_table_is_edge_weight(self):
        for du in range(1, 12):
            for dv in range(1, 12):
                assert _WEIGHT_BY_EDGE_DEGREE[du + dv - 2] == edge_weight(du, dv)

    def test_every_class_up_to_7(self, small_classes):
        for g in small_classes:
            assert abs_index(g) == references.abs_index(g)
            assert edge_contributions(g) == references.edge_contributions(g)

    def test_gnp_graphs_9_to_12(self, gnp_graphs):
        for g in gnp_graphs:
            assert abs_index(g) == references.abs_index(g)
            assert edge_contributions(g) == references.edge_contributions(g)
