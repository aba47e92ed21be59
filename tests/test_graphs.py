import random

import pytest

from absindex import (
    Graph,
    Graph6Error,
    GraphError,
    complete_graph,
    decode_graph6,
    encode_graph6,
    from_edges,
)
from absindex import search
from absindex.graphs import from_packed_pairs, to_packed_pairs

import references
from references import cycle, random_graph


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestConstruction:
    def test_path_degrees(self):
        g = path(3)
        assert g.degrees() == (1, 2, 1)

    def test_single_vertex(self):
        g = from_edges(1, [])
        assert g.order == 1
        assert g.edge_count == 0

    def test_complete(self):
        g = from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert g.degrees() == (3, 3, 3, 3)
        assert g == complete_graph(4)

    def test_rejects_loop(self):
        with pytest.raises(GraphError, match=r"\(1, 1\)"):
            from_edges(3, [(0, 1), (1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError, match=r"\(1, 0\)|\(0, 1\)"):
            from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match=r"\(0, 3\)"):
            from_edges(3, [(0, 3)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00))

    def test_rejects_diagonal(self):
        with pytest.raises(GraphError):
            Graph(2, (0b01, 0b10))

    def test_freezes_the_callers_rows(self):
        rows = [0b10, 0b01]
        g = Graph(2, rows)
        k2 = Graph(2, (0b10, 0b01))
        assert g == k2 and hash(g) == hash(k2)
        rows[0] = 0
        assert g.rows == (0b10, 0b01) and g.edge_count == 1


def _verdict(check, order, rows):
    """None if ``check(order, rows)`` accepts the rows, else its message."""
    try:
        check(order, rows)
    except GraphError as exc:
        return str(exc)
    return None


def _inject(rows, n, fault, rng):
    """``rows`` with one fault of the named kind."""
    rows = list(rows)
    if fault == "asymmetric":
        u, v = rng.sample(range(n), 2)
        rows[u] ^= 1 << v
    elif fault == "loop":
        v = rng.randrange(n)
        rows[v] |= 1 << v
    elif fault == "high bit":
        # bits far above the order as well as just above it
        rows[rng.randrange(n)] |= 1 << rng.choice((n, n + 1, 15, 16, 17, 16 + n, 40))
    elif fault == "negative":
        v = rng.randrange(n)
        rows[v] = rng.choice((~rows[v], -1, -(1 << n), -rows[v]))
    elif fault == "row count":
        if rng.random() < 0.5:
            rows.pop(rng.randrange(len(rows)))
        else:
            rows.insert(rng.randrange(len(rows) + 1), rng.getrandbits(n))
    return rows


FAULTS = ("asymmetric", "loop", "high bit", "negative", "row count")


class TestValidationReference:
    """Graph accepts exactly the rows the old checks accept, and otherwise
    raises the same first message."""

    def test_random_row_tuples(self):
        rng = random.Random(43)
        seen = {}
        for n in range(1, 13):
            kinds = FAULTS if n > 1 else tuple(f for f in FAULTS if f != "asymmetric")
            for _ in range(120):
                rows = random_graph(n, rng).rows
                # in FAULTS order, so that the row count changes last
                faults = sorted(
                    rng.sample(kinds, rng.choice((0, 0, 1, 1, 1, 2, 3))), key=FAULTS.index
                )
                for fault in faults:
                    rows = _inject(rows, n, fault, rng)
                rows = tuple(rows)
                want = _verdict(references.validate_rows, n, rows)
                assert _verdict(Graph, n, rows) == want, (n, rows)
                if not faults:
                    assert want is None
                kind = want.split(" ")[0] if want else "valid"
                seen[kind] = seen.get(kind, 0) + 1
        # every message of the old checks, and valid rows, came up
        assert set(seen) == {"valid", "number", "row", "loop", "adjacency"}, seen

    def test_hand_cases(self):
        cases = [
            (0, ()),
            (13, (0,) * 13),
            (2, (0b10,)),
            (2, (0b10 | 1 << 16, 0)),  # row 0 out of range, row 1 asymmetric
            (2, (0b10 | 1 << 16, 0b01)),
            (2, (0b10 | 1 << 17, 0b01)),
            (3, (0b110, 0b101, 0b011 | 1 << 32)),
            (2, (-0b10, 0b01)),
            (3, (0b111, 0b101, 0b010)),  # loop and asymmetry
            (12, (0,) * 11 + (1 << 12,)),
            (12, tuple((1 << 12) - 1 ^ 1 << v for v in range(12))),
        ]
        for order, rows in cases:
            assert _verdict(Graph, order, rows) == _verdict(
                references.validate_rows, order, rows
            ), (order, rows)


class TestUncheckedBuilds:
    """The builders that store rows unchecked make only rows the checks
    accept, and the build path runs no checks."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Puts the rows of every ``Graph._from_valid_rows`` call through the
        reference checks; counts those calls and those of ``Graph.__post_init__``."""
        counts = {"unchecked": 0, "checked": 0}
        unchecked = Graph._from_valid_rows.__func__
        post_init = Graph.__post_init__

        def reference_checked(cls, order, rows):
            references.validate_rows(order, rows)
            assert type(rows) is tuple
            counts["unchecked"] += 1
            return unchecked(cls, order, rows)

        def counted(self):
            counts["checked"] += 1
            post_init(self)

        monkeypatch.setattr(Graph, "_from_valid_rows", classmethod(reference_checked))
        monkeypatch.setattr(Graph, "__post_init__", counted)
        return counts

    def test_class_table_builds_valid_rows_unchecked(self, cold_caches, builds):
        table = search.class_table(8)
        assert len(table.forms) == 11117
        # the 996 parents of orders 1..7 decoded, the 1 561 children of
        # orders 2..8 that the acceptance test labels built
        assert builds["unchecked"] == 996 + 1561
        assert builds["checked"] == 0

    def test_packed_pairs_decode_to_valid_rows(self, builds):
        rng = random.Random(31)
        for n in range(1, 13):
            for _ in range(50):
                g = from_packed_pairs(n, rng.getrandbits(n * (n - 1) // 2))
                assert g == Graph(n, g.rows)
        assert builds["unchecked"] == 600

    def test_unchecked_graph_equals_checked_graph(self, small_classes):
        for g in small_classes:
            h = Graph._from_valid_rows(g.order, g.rows)
            checked = Graph(g.order, g.rows)
            assert h == checked and hash(h) == hash(checked)


class TestAddEdge:
    def test_closes_triangle(self):
        g = path(3).add_edge(0, 2)
        assert g.degrees() == (2, 2, 2)

    def test_restores_complete(self):
        k4 = complete_graph(4)
        minus = from_edges(4, [e for e in k4.edges() if e != (0, 1)])
        assert minus.add_edge(0, 1) == k4

    def test_chord_degree_sequence(self):
        g = cycle(5).add_edge(0, 2)
        assert sorted(g.degrees()) == [2, 2, 2, 3, 3]

    def test_copy_semantics(self):
        g = path(3)
        h = g.add_edge(0, 2)
        assert g.edge_count == 2 and h.edge_count == 3
        assert not g.has_edge(0, 2)

    def test_rejects_existing_edge(self):
        with pytest.raises(GraphError):
            path(3).add_edge(0, 1)

    def test_rejects_loop(self):
        with pytest.raises(GraphError):
            path(3).add_edge(1, 1)


class TestDegreeQueries:
    def test_star_degrees(self):
        g = from_edges(5, [(0, v) for v in range(1, 5)])
        assert g.degree(0) == 4
        assert g.degree(1) == 1

    def test_cycle_degree(self):
        assert cycle(5).degree(3) == 2

    def test_degree_range_check(self):
        with pytest.raises(GraphError):
            path(3).degree(3)

    def test_edge_degree_cases(self):
        assert from_edges(2, [(0, 1)]).edge_degree(0, 1) == 0
        assert path(3).edge_degree(0, 1) == 1
        assert complete_graph(4).edge_degree(0, 1) == 4

    def test_edge_degree_missing_edge(self):
        with pytest.raises(GraphError):
            path(3).edge_degree(0, 2)

    def test_edge_degree_identity_random(self):
        # d_e = d_u + d_v - 2 for every edge
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng.randint(2, 8), rng)
            for u, v in g.edges():
                assert g.edge_degree(u, v) == g.degree(u) + g.degree(v) - 2


class TestConnectivity:
    def test_path_connected(self):
        assert path(3).is_connected()

    def test_matching_disconnected(self):
        assert not from_edges(4, [(0, 1), (2, 3)]).is_connected()

    def test_c4_connected(self):
        assert cycle(4).is_connected()

    def test_single_vertex_connected(self):
        assert from_edges(1, []).is_connected()


class TestGraph6:
    def test_k3_encoding(self):
        # cross-checked against the reference encoder (networkx agrees)
        assert encode_graph6(complete_graph(3)) == "Bw"

    def test_roundtrip_c5(self):
        g = cycle(5)
        assert decode_graph6(encode_graph6(g)) == g

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng.randint(1, 10), rng)
            assert decode_graph6(encode_graph6(g)) == g

    def test_header_prefix_accepted(self):
        assert decode_graph6(">>graph6<<Bw") == complete_graph(3)

    def test_empty_rejected(self):
        with pytest.raises(Graph6Error, match="empty"):
            decode_graph6("")

    def test_bad_length_rejected(self):
        with pytest.raises(Graph6Error, match="byte"):
            decode_graph6("Bwww")

    def test_header_out_of_range(self):
        with pytest.raises(Graph6Error, match="order"):
            decode_graph6("~~~")

    def test_nonzero_padding_bit(self):
        # K3 has 3 pair bits; "x" = 0b111001 sets a padding bit
        with pytest.raises(Graph6Error, match=r"^byte 1: nonzero padding bit$"):
            decode_graph6("Bx")
        with pytest.raises(Graph6Error, match=r"^byte 2: nonzero padding bit$"):
            decode_graph6("Dw~")

    def test_character_outside_alphabet(self):
        with pytest.raises(Graph6Error, match=r"^byte 1: character '!' outside graph6 alphabet$"):
            decode_graph6("D!w")
        with pytest.raises(Graph6Error, match=r"^byte 2: character '\\x7f' outside graph6 alphabet$"):
            decode_graph6(">>graph6<<Dw\x7f")

    def test_errors_match_reference(self):
        bad = ["", "  ", ">>graph6<<", "~~~", "?", "B", "Bwww", "Bx", "B!",
               "D!w", "Dw!", "Dw~", "Dwé", "K" + "~" * 10, "K" + "~" * 12, "M" + "~" * 11]
        for text in bad:
            with pytest.raises(Graph6Error) as got:
                decode_graph6(text)
            with pytest.raises(Graph6Error) as want:
                references.decode_graph6(text)
            assert str(got.value) == str(want.value), text


class TestPackedPairs:
    def test_first_pair_is_most_significant(self):
        # order 3: pairs (0, 1), (0, 2), (1, 2) at significance 2, 1, 0
        assert from_packed_pairs(3, 0b100) == from_edges(3, [(0, 1)])
        assert from_packed_pairs(3, 0b001) == from_edges(3, [(1, 2)])

    def test_rejects_bits_beyond_the_pairs(self):
        with pytest.raises(GraphError, match="do not fit the 3 pairs"):
            from_packed_pairs(3, 0b1000)
        with pytest.raises(GraphError, match="do not fit"):
            from_packed_pairs(3, -1)

    def test_rejects_order_out_of_range(self):
        for order in (0, 13):
            with pytest.raises(GraphError, match="order must be in 1..12"):
                from_packed_pairs(order, 1)

    def test_to_packed_pairs_puts_the_first_pair_on_top(self):
        assert to_packed_pairs(from_edges(3, [(0, 1)])) == 0b100
        assert to_packed_pairs(from_edges(3, [(1, 2)])) == 0b001
        assert to_packed_pairs(complete_graph(12)) == (1 << 66) - 1


def reference_graphs(small_classes, gnp_graphs):
    """Every class of order 1..8, the G(n, p) graphs of order 9..12, 600
    seeded G(n, p) graphs of order 1..12, and the edgeless and complete
    graph of every order 1..12."""
    rng = random.Random(5)
    seeded = [random_graph(rng.randint(1, 12), rng) for _ in range(600)]
    extremes = [g for n in range(1, 13) for g in (from_edges(n, []), complete_graph(n))]
    return [*small_classes, *search.enumerate_connected(8), *gnp_graphs, *seeded, *extremes]


class TestEncoderReference:
    """encode_graph6 writes exactly what the old body did, and the packed
    pair string round-trips."""

    def test_encode_matches_reference(self, small_classes, gnp_graphs):
        for g in reference_graphs(small_classes, gnp_graphs):
            assert encode_graph6(g) == references.encode_graph6(g)

    def test_packed_pairs_round_trip(self, small_classes, gnp_graphs):
        for g in reference_graphs(small_classes, gnp_graphs):
            assert from_packed_pairs(g.order, to_packed_pairs(g)) == g


class TestDecoderReference:
    """decode_graph6 returns exactly what the old body did."""

    def test_every_class_up_to_7(self, small_classes):
        for g in small_classes:
            text = encode_graph6(g)
            assert decode_graph6(text) == references.decode_graph6(text) == g

    def test_gnp_graphs_9_to_12(self, gnp_graphs):
        for g in gnp_graphs:
            text = encode_graph6(g)
            assert decode_graph6(text) == references.decode_graph6(text) == g
