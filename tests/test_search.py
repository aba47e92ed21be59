import hashlib
import itertools
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from absindex import (
    Constraint,
    abs_index,
    canonical_form,
    check_edge_additions,
    check_scalar_properties,
    complete_split,
    connected_class_forms,
    decode_graph6,
    encode_graph6,
    enumerate_connected,
    kite,
    max_abs_under,
    turan,
    verify_theorem,
)
from absindex import GraphError, index, invariants, search
from absindex.graphs import Graph, from_packed_pairs
from absindex.invariants import (
    GraphInvariants,
    canonical_labeling,
    chromatic_number,
    form_from_triangle,
    graph_from_canonical_form,
    independence_number,
    pendant_count,
)
from absindex.search import class_table

import references

# connected isomorphism classes of order n = 1..12 (OEIS A001349)
A001349 = (1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571, 1006700565, 164059830476)
ORDER_8_DIGEST = "13f308b1b8a6a9e97ae1d07a761b9dbf65d2b6b8a5b6f1868202e5d239d05e39"
# order 9: 261,080 classes (OEIS A001349), with no form found twice
ORDER_9_DIGEST = "0508d7bb27da5ea085a0a10f6601a85ec8224c5c356f360083ea9ffb4ea83ce8"


class TestEnumeration:
    def test_known_counts(self):
        for n in range(1, 9):
            assert len(connected_class_forms(n)) == A001349[n - 1]

    def test_order_8_forms_digest(self):
        forms = connected_class_forms(8)
        assert hashlib.sha256(b"".join(sorted(forms))).hexdigest() == ORDER_8_DIGEST

    def test_order_9_forms_digest(self, order_9):
        forms = connected_class_forms(9, workers=2)
        assert len(forms) == A001349[8]
        assert hashlib.sha256(b"".join(forms)).hexdigest() == ORDER_9_DIGEST

    def test_labeled_sweep_agrees(self):
        # n = 4..7 are compared in acceptance criterion 7
        for n in range(1, 4):
            assert references.connected_class_forms_labeled(n) == connected_class_forms(n)

    def test_representatives_are_connected_and_distinct(self):
        for n in range(2, 7):
            graphs = enumerate_connected(n)
            forms = {canonical_form(g) for g in graphs}
            assert len(forms) == len(graphs)
            assert all(g.is_connected() for g in graphs)

    def test_roundtrip_graph6(self):
        for n in range(1, 7):
            for g in enumerate_connected(n):
                assert decode_graph6(encode_graph6(g)) == g

    def test_order_8_needs_no_opt_in(self):
        # one limit with no opt-in: every search path takes order 8 alike
        assert len(enumerate_connected(8)) == A001349[7]
        assert len(class_table(8).forms) == A001349[7]
        assert max_abs_under(Constraint(8, "chromatic", 3)).unique
        assert verify_theorem("T1", 8, 3).construction_match

    def test_invariant_partition(self):
        # every class lands in exactly one bucket per invariant
        for n in (5, 6):
            graphs = enumerate_connected(n)
            for key in ("chromatic", "independence", "pendants"):
                total = sum(
                    max_abs_under(Constraint(n, key, k)).graph_count
                    for k in range(0, n + 1)
                )
                assert total == len(graphs)


def edge_histogram(n, forms):
    """Classes by edge count, from a table's packed pair strings."""
    counts = [0] * (n * (n - 1) // 2 + 1)
    for pairs in forms:
        counts[pairs.bit_count()] += 1
    return counts


class TestPolyaCounts:
    """Class counts by edge count from Burnside's lemma, which uses
    neither the enumeration nor a canonical form."""

    def test_edge_histograms_match_the_class_tables(self):
        counts = references.connected_counts_by_edges(12)
        assert tuple(sum(counts[n]) for n in range(1, 13)) == A001349
        for n in range(1, 9):
            assert edge_histogram(n, class_table(n).forms) == counts[n]

    def test_order_9_edge_histogram(self, order_9):
        forms = class_table(9, workers=2).forms
        assert edge_histogram(9, forms) == references.connected_counts_by_edges(9)[9]


def orbit_weighted_counts(n, forms):
    """Labeled graphs by edge count: a class G of order n stands for
    n!/|Aut(G)| of them."""
    counts = [0] * (n * (n - 1) // 2 + 1)
    for pairs in forms:
        g = from_packed_pairs(n, pairs)
        counts[g.edge_count] += math.factorial(n) // references.automorphism_group_order(g)
    return counts


class TestLabeledCounts:
    """Labeled connected graphs by edge count, from a recurrence that uses
    neither the enumeration nor a canonical form, against the classes
    weighted by the automorphism groups the enumeration's orbit leaders
    come from."""

    def test_orbit_weighted_counts_match_to_8(self):
        counts = references.labeled_connected_counts_by_edges(8)
        # OEIS A001187
        assert [sum(counts[n]) for n in range(1, 9)] == [
            1, 1, 4, 38, 728, 26704, 1866256, 251548592
        ]
        for n in range(1, 9):
            assert orbit_weighted_counts(n, class_table(n).forms) == counts[n], n

    def test_order_9_orbit_weighted_counts(self, order_9):
        forms = class_table(9, workers=2).forms
        assert orbit_weighted_counts(9, forms) == (
            references.labeled_connected_counts_by_edges(9)[9]
        )

    def test_a_swapped_class_fails_only_the_weighted_counts(self):
        # one order-7 class replaced by a copy of another with as many
        # edges and a different group keeps every bucket's class count
        forms = list(class_table(7).forms)
        groups = {}
        for i, pairs in enumerate(forms):
            g = from_packed_pairs(7, pairs)
            groups.setdefault(g.edge_count, {})[
                references.automorphism_group_order(g)
            ] = i
        kept, lost = next(
            list(by_group.values())[:2] for by_group in groups.values() if len(by_group) > 1
        )
        forms[lost] = forms[kept]
        assert edge_histogram(7, forms) == references.connected_counts_by_edges(7)[7]
        assert orbit_weighted_counts(7, forms) != (
            references.labeled_connected_counts_by_edges(7)[7]
        )


class TestMaxAbsUnder:
    def test_chromatic_5_3(self):
        report = max_abs_under(Constraint(5, "chromatic", 3))
        assert report.unique
        assert report.max_value == pytest.approx(
            4 * math.sqrt(2 / 3) + 4 * math.sqrt(5 / 7), abs=1e-12
        )
        winner = decode_graph6(report.maximizer_graph6[0])
        assert references.find_isomorphism(winner, turan(5, 3)) is not None

    def test_independence_5_2(self):
        report = max_abs_under(Constraint(5, "independence", 2))
        assert report.unique
        assert report.max_value == pytest.approx(
            6 * math.sqrt(5 / 7) + 3 * math.sqrt(3 / 4), abs=1e-12
        )
        winner = decode_graph6(report.maximizer_graph6[0])
        assert references.find_isomorphism(winner, complete_split(5, 2)) is not None

    def test_pendants_5_2(self):
        report = max_abs_under(Constraint(5, "pendants", 2))
        assert report.unique
        winner = decode_graph6(report.maximizer_graph6[0])
        assert references.find_isomorphism(winner, kite(5, 2)) is not None

    def test_empty_bucket(self):
        report = max_abs_under(Constraint(4, "pendants", 4))
        assert report.graph_count == 0
        assert report.max_value is None
        assert report.maximizer_graph6 == ()

    def test_unconstrained_max_is_complete(self):
        report = max_abs_under(Constraint(5))
        assert report.unique
        winner = decode_graph6(report.maximizer_graph6[0])
        assert winner.edge_count == 10

    def test_maximizer_values_consistent(self):
        for k in range(1, 6):
            report = max_abs_under(Constraint(6, "independence", k))
            for g6 in report.maximizer_graph6:
                g = decode_graph6(g6)
                assert abs(abs_index(g) - report.max_value) <= 1e-9

    def test_bad_constraint(self):
        with pytest.raises(ValueError):
            Constraint(5, "girth", 3)
        with pytest.raises(ValueError):
            Constraint(5, "chromatic")


class TestVerifyTheorem:
    def test_turan_6_3(self):
        report = verify_theorem("T1", 6, 3)
        assert report.construction_match and report.unique and report.in_hypothesis

    def test_star_case_trivial(self):
        report = verify_theorem("T3", 7, 6)
        assert report.construction_match
        assert report.graph_count == 1

    def test_complete_split_6_3(self):
        report = verify_theorem("T2", 6, 3)
        assert report.construction_match and report.unique

    def test_out_of_hypothesis_still_reported(self):
        report = verify_theorem("T1", 4, 3)
        assert report.in_hypothesis is False
        assert report.graph_count > 0

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            verify_theorem("T9", 5, 2)
        with pytest.raises(ValueError, match="unknown theorem id"):
            verify_theorem("T3-clique-term", 7, 2)

    def test_no_construction_means_no_claim(self):
        """Every (n, k) with n <= 7 and 0 <= k <= n + 1 gets a report; where
        the if-chain verifier reported, the report is the same, and where
        its Turán or split construction did not exist, nothing is claimed."""
        for theorem in ("T1", "T2", "T3"):
            for n in range(1, 8):
                for k in range(n + 2):
                    report = verify_theorem(theorem, n, k)
                    try:
                        want = references.verify_theorem(theorem, n, k)
                    except GraphError:
                        assert report.construction_match is False
                        assert report.in_hypothesis is False
                        assert report.expected_graph6 is None
                    else:
                        assert report == want, (theorem, n, k)


class TestEdgeAddition:
    def test_small_orders_pass(self):
        for n in (4, 5):
            report = check_edge_additions(n)
            assert report.passed
            assert report.min_margin > 0
            assert report.counterexample is None

    def test_complete_graph_vacuous(self):
        # n = 1..3 include K_n classes with no non-edges; still passes
        report = check_edge_additions(3)
        assert report.passed

    def test_cap(self):
        with pytest.raises(ValueError, match=r"^order 10 outside the supported range"):
            check_edge_additions(10)

    def test_margins_from_degrees_match_the_reference(self):
        # each margin is the change of the whole sum within 1e-12, and the
        # report counts what the per-addition check counted
        for n in range(1, 8):
            for g in enumerate_connected(n):
                direct = [
                    abs_index(g.add_edge(u, v)) - abs_index(g)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if not g.has_edge(u, v)
                ]
                assert search._addition_margins(g.rows) == pytest.approx(
                    direct, rel=0, abs=1e-12
                )
            report, want = check_edge_additions(n), references.check_edge_additions(n)
            assert (report.passed, report.checks) == (want.passed, want.checks)
            if want.min_margin is not None:
                assert report.min_margin == pytest.approx(want.min_margin, rel=0, abs=1e-12)

    def test_a_nonpositive_margin_fails(self, monkeypatch):
        # W(4) = 0.6 < 0.8 W(3) makes adding the missing edge of K4 - e the
        # one addition at order 4 that lowers ABS: 5 W(4) - 4 W(3) < 0
        weights = list(index._WEIGHT_BY_EDGE_DEGREE)
        weights[4] = 0.6
        monkeypatch.setattr(search, "_WEIGHT_BY_EDGE_DEGREE", tuple(weights))
        # the classes are checked in the row order of the cached table
        graphs = [from_packed_pairs(4, pairs) for pairs in class_table(4).forms]
        diamond = next(i for i, g in enumerate(graphs) if g.edge_count == 5)
        report = check_edge_additions(4)
        assert not report.passed
        assert report.counterexample == encode_graph6(graphs[diamond])
        assert report.checks == 1 + sum(6 - g.edge_count for g in graphs[:diamond])
        assert report.min_margin == pytest.approx(3.0 - 4 * math.sqrt(3 / 5), abs=1e-12)


class TestScalarProperties:
    def test_all_pass(self):
        results = check_scalar_properties()
        assert len(results) == 5
        for prop in results:
            assert prop.passed, prop

    def test_strict_margins(self):
        for prop in check_scalar_properties():
            if "constant" not in prop.name:
                assert prop.min_margin > 0

    def test_grid_runs_once(self, monkeypatch):
        first = check_scalar_properties()
        monkeypatch.setattr(search, "edge_weight", lambda x, y: pytest.fail("grid rerun"))
        assert check_scalar_properties() is first


def direct_scan(n):
    """(form, {kind: value}, ABS) of every class of order n, from the
    sorted forms and the direct kernels."""
    scan = []
    for form in connected_class_forms(n):
        g = graph_from_canonical_form(form)
        fixed = {
            "chromatic": chromatic_number(g),
            "independence": independence_number(g),
            "pendants": pendant_count(g),
        }
        scan.append((form, fixed, abs_index(g)))
    return scan


def brute_force_max(constraint, scan):
    """Per-class maximization over a ``direct_scan`` of the constraint's
    order; a constraint's kind names the value it fixes."""
    kind = constraint.kind
    scored = [
        (value, form)
        for form, fixed, value in scan
        if kind == "none" or fixed[kind] == constraint.value
    ]
    if not scored:
        return 0, None, ()
    best = max(v for v, _ in scored)
    tied = (f for v, f in scored if best - v <= search.TIE_TOLERANCE)
    return len(scored), best, tuple(sorted(tied))


def _count_labelings(monkeypatch):
    """A one-item list that counts the ``canonical_labeling`` calls made
    through ``search`` from here on."""
    count = [0]
    labeling = search.canonical_labeling

    def counted(g):
        count[0] += 1
        return labeling(g)

    monkeypatch.setattr(search, "canonical_labeling", counted)
    return count


def rows_unlike_direct(n):
    """The (form, row, direct) triples of ``class_table(n)`` whose χ, α,
    pendant and ABS row, derived from the parent, differs from the direct
    kernels on the class."""
    table = class_table(n)
    wrong = []
    for i, form in enumerate(table.forms):
        g = from_packed_pairs(n, form)
        row = (table.chromatic[i], table.independence[i], table.pendants[i], table.abs_value[i])
        direct = (chromatic_number(g), independence_number(g), pendant_count(g), abs_index(g))
        if row != direct:
            wrong.append((form, row, direct))
    return wrong


class TestClassTable:
    def test_rows_match_direct_invariants(self, cold_caches):
        for n in range(1, 7):
            forms = connected_class_forms(n)
            table = class_table(n)
            labeled = sorted(canonical_labeling(from_packed_pairs(n, p))[0] for p in table.forms)
            assert tuple(form_from_triangle(n, tri) for tri in labeled) == forms
            for i, pairs in enumerate(table.forms):
                g = from_packed_pairs(n, pairs)
                inv = GraphInvariants.of(g)
                assert table.chromatic[i] == inv.chromatic
                assert table.independence[i] == inv.independence
                assert table.pendants[i] == inv.pendants
                assert table.abs_value[i] == abs_index(g)

    def test_max_abs_under_matches_brute_force(self):
        # every kind and value at every order, against a scan of the
        # sorted forms with the direct kernels
        for n in range(1, 9):
            scan = direct_scan(n)
            constraints = [Constraint(n)] + [
                Constraint(n, kind, k)
                for kind in ("chromatic", "independence", "pendants")
                for k in range(n + 2)
            ]
            for constraint in constraints:
                report = max_abs_under(constraint)
                count, best, winners = brute_force_max(constraint, scan)
                assert report.graph_count == count
                assert report.max_value == best
                assert report.maximizer_forms == winners
                assert report.unique == (len(winners) == 1)
                assert report.maximizer_graph6 == tuple(
                    encode_graph6(graph_from_canonical_form(f)) for f in winners
                )

    def test_invariants_once_per_class(self, cold_caches, monkeypatch):
        # one row per order-7 class, and no exact chi or alpha search: the
        # order-6 parents' values come from their table; the lower orders
        # are built first, so only order 7 counts
        connected_class_forms(6)
        calls = dict.fromkeys(
            ("_child_row", "chromatic_number", "independence_number"), 0
        )

        def counting(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        counting(search, "_child_row")
        counting(invariants, "chromatic_number")
        counting(invariants, "independence_number")
        # nor does the scan compute invariants per class
        monkeypatch.setattr(
            GraphInvariants, "of", classmethod(lambda cls, g: pytest.fail("of"))
        )
        for theorem, first in (("T1", 3), ("T2", 1), ("T3", 1)):
            for k in range(first, 7):
                verify_theorem(theorem, 7, k)
        assert calls == {
            "_child_row": 853,
            "chromatic_number": 0,
            "independence_number": 0,
        }

    def test_parent_derived_rows_match_direct_invariants_to_8(self):
        # every row is exactly what the direct kernels give on the class
        assert [wrong for n in range(1, 9) for wrong in rows_unlike_direct(n)] == []

    def test_parent_derived_rows_match_direct_invariants_order_9(self, order_9):
        assert rows_unlike_direct(9) == []

    def test_table_is_cached(self):
        assert class_table(5) is class_table(5)

    def test_lazy_reports_equal_labeled_reports(self, cold_caches):
        # every kind and value at every order, on verdict rows built from
        # cold caches and then on tables whose forms were read first
        constraints = [
            Constraint(n, kind, k)
            for n in range(1, 9)
            for kind in ("chromatic", "independence", "pendants")
            for k in range(n + 2)
        ] + [Constraint(n) for n in range(1, 9)]
        class_table(8)
        assert all(search._table_cache[n].triangles is None for n in range(1, 9))
        rows_only = [max_abs_under(c) for c in constraints]
        search._table_cache.clear()
        search._record_cache.clear()
        for n in range(1, 9):
            connected_class_forms(n)
        assert all(search._table_cache[n].triangles is not None for n in range(1, 9))
        assert [max_abs_under(c) for c in constraints] == rows_only

    def test_forms_after_verdict_rows(self, cold_caches, monkeypatch):
        # the forms are read off the cached verdict table, which is not
        # rebuilt, and a second read labels nothing
        labelings = _count_labelings(monkeypatch)
        class_table(8)
        assert labelings == [2557]  # verdict rows of orders 1..8
        cached = dict(search._table_cache)
        monkeypatch.setattr(search, "_augment_parent", lambda row: pytest.fail("rebuilt"))
        labelings[0] = 0
        forms = connected_class_forms(8)
        assert hashlib.sha256(b"".join(forms)).hexdigest() == ORDER_8_DIGEST
        assert labelings == [11117]  # one per class
        assert connected_class_forms(8) == forms
        assert labelings == [11117]
        assert class_table(8) == cached[8]
        assert class_table(8).forms is cached[8].forms
        assert all(class_table(n) is cached[n] for n in range(1, 8))

    def test_verdict_rows_after_forms(self, cold_caches, monkeypatch):
        # a table built for its forms serves the verdicts as it is
        labelings = _count_labelings(monkeypatch)
        forms = connected_class_forms(8)
        assert hashlib.sha256(b"".join(forms)).hexdigest() == ORDER_8_DIGEST
        assert labelings == [13674]  # from cold caches: 2,557 + 11,117
        cached = dict(search._table_cache)
        monkeypatch.setattr(search, "_augment_parent", lambda row: pytest.fail("rebuilt"))
        assert all(class_table(n) is cached[n] for n in range(1, 9))
        assert verify_theorem("T1", 8, 3).construction_match
        assert connected_class_forms(8) == forms
        assert [len(connected_class_forms(n)) for n in range(1, 9)] == list(A001349[:8])
        assert connected_class_forms(6) == references.connected_class_forms_labeled(6)

    def test_orders_outside_the_limit_build_nothing(self, cold_caches):
        searches = (
            enumerate_connected,
            class_table,
            lambda n: max_abs_under(Constraint(n, "chromatic", 3)),
            lambda n: verify_theorem("T1", n, 3),
        )
        for n in (0, 10):
            for search_at in searches:
                with pytest.raises(
                    ValueError, match=rf"^order {n} outside the supported range 1\.\.9$"
                ):
                    search_at(n)
        assert search._table_cache == {} == search._record_cache


def scanned_records(n):
    """The records of order n by a scan of ``class_table(n)``: for each
    bucket (kind, value) and ("none", None), its class count, its max ABS
    and the sorted path strings of its classes within TIE_TOLERANCE of it."""
    table = class_table(n)
    buckets = {}
    for form, chi, alpha, pend, value in zip(
        table.forms, table.chromatic, table.independence, table.pendants, table.abs_value
    ):
        for key in (("chromatic", chi), ("independence", alpha), ("pendants", pend), ("none", None)):
            buckets.setdefault(key, []).append((value, form))
    records = {}
    for key, members in buckets.items():
        best = max(value for value, _ in members)
        tied = sorted(form for value, form in members if best - value <= search.TIE_TOLERANCE)
        records[key] = (len(members), best, tied)
    return records


def sorted_records(records):
    """``records`` with each record's candidates as sorted path strings."""
    return {
        key: (count, best, sorted(form for _, form in tied))
        for key, (count, best, tied) in records.items()
    }


class TestRecords:
    @pytest.mark.parametrize(
        "workers, fork, shared", [(1, True, []), (2, True, [2] * 5), (64, False, [64] * 2)]
    )
    def test_records_equal_a_scan_of_the_table(
        self, cold_caches, shares, workers, fork, shared
    ):
        # each order's records reduced from its jobs, in shares, before its
        # table is built, and then folded from that table
        seen = shares(cores=workers, fork=fork)
        for n in range(1, 9):
            connected_class_forms(n, workers, build="records")
            assert (n in search._table_cache) == (n == 1)
            reduced = sorted_records(search._record_cache.pop(n))
            assert reduced == scanned_records(n)
            connected_class_forms(n, workers, build="records")
            assert sorted_records(search._record_cache[n]) == reduced
        # orders 4..8 have two parents or more, orders 7 and 8 at least 64
        assert seen.sizes == shared

    def test_unknown_build_builds_nothing(self, cold_caches):
        with pytest.raises(ValueError, match="^unknown build 'record'; expected"):
            connected_class_forms(5, build="record")
        assert search._table_cache == {} == search._record_cache

    def test_a_max_abs_under_keeps_no_table_of_its_order(self, cold_caches):
        report = max_abs_under(Constraint(8, "chromatic", 3))
        assert sorted(search._table_cache) == list(range(1, 8))
        assert report.graph_count == scanned_records(8)[("chromatic", 3)][0]


def _subset_image(mask, perm):
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def _automorphisms(g):
    """All automorphisms of g, by brute force over the permutations."""
    edges = g.edges()
    return [
        p
        for p in itertools.permutations(range(g.order))
        if all(g.has_edge(p[u], p[v]) for u, v in edges)
    ]


def _table_rows(n):
    """The (order, pair string, chi, alpha) rows of ``class_table(n)``:
    the jobs of n + 1."""
    table = class_table(n)
    return [(n, *row) for row in zip(table.forms, table.chromatic, table.independence)]


def _order_8_job_calls():
    """Calls of the canonical labeling and of the refinement while the
    853 order-8 jobs run, each job on its order-7 parent's row, keyed by
    (name, order of the graph): the jobs label order-8 children and
    order-7 parents.  Of the order-8 children, ``("passed", 8)`` counts
    those that pass the key test, ``("tied", 8)`` those of them with more
    than one max-key non-cut vertex, ``("finer", 8)`` those of these still
    tied after the finer key, and ``("twins", 8)`` those of these whose
    other tied vertices are all twins of the new one."""
    calls = dict.fromkeys(itertools.product(("labeling", "refinement"), (7, 8)), 0)
    for name in ("passed", "tied", "finer", "twins"):
        calls[name, 8] = 0

    def counting(name, fn):
        def counted(g):
            calls[name, g.order] += 1
            return fn(g)

        return counted

    key_test = search._Parent.max_key_ties
    finer_ties = search._finer_ties
    twins_of_new = search._Parent.twins_of_new

    def counted_key_test(parent, nbrs):
        tied = key_test(parent, nbrs)
        if tied is not None:
            calls["passed", 8] += 1
            calls["tied", 8] += len(tied) > 1
        return tied

    def counted_finer_ties(rows, tied):
        finer = finer_ties(rows, tied)
        calls["finer", 8] += finer is not None and len(finer) > 1
        return finer

    def counted_twins(parent, nbrs, tied):
        twins = twins_of_new(parent, nbrs, tied)
        calls["twins", 8] += twins and len(tied) > 1
        return twins

    parents = _table_rows(7)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "canonical_labeling", counting("labeling", search.canonical_labeling))
        m.setattr(invariants, "_refined_cells", counting("refinement", invariants._refined_cells))
        m.setattr(search._Parent, "max_key_ties", counted_key_test)
        m.setattr(search, "_finer_ties", counted_finer_ties)
        m.setattr(search._Parent, "twins_of_new", counted_twins)
        for row in parents:
            search._augment_parent(row)
    return calls


@pytest.fixture(scope="class")
def order_8_job_calls():
    return _order_8_job_calls()


def path_record(n):
    """What ``class_table(n)`` says of the augmentation tree: its count of
    distinct rows, the rows that name no row of order n - 1 as their
    parent or add an empty new column, and the lengths of its columns."""
    table = class_table(n)
    parents = set(class_table(n - 1).forms)
    new_column = (1 << n - 1) - 1
    orphans = [row for row in table.forms if row >> n - 1 not in parents or not row & new_column]
    columns = (table.forms, table.chromatic, table.independence, table.pendants, table.abs_value)
    return len(set(table.forms)), orphans, [len(column) for column in columns]


class TestAcceptRule:
    def test_every_class_has_an_accepted_parent(self):
        # each row is its path string: its parent's row one column up and
        # a nonempty new column; no row repeats, and the rows number the
        # classes of the order
        for n in range(2, 9):
            assert path_record(n) == (A001349[n - 1], [], [A001349[n - 1]] * 5)

    def test_order_9_rows_name_their_parents(self, order_9):
        assert path_record(9) == (A001349[8], [], [A001349[8]] * 5)

    def test_lazy_jobs_find_every_class_once(self):
        # each unlabeled form is a labeling of its class: labeled, the jobs'
        # rows are the direct kernels' on the sorted forms, no class twice
        for n in range(2, 9):
            found = []
            for row in _table_rows(n - 1):
                forms, *columns = search._augment_parent(row)
                found += [
                    (canonical_labeling(from_packed_pairs(n, form))[0], *rest)
                    for form, *rest in zip(forms, *columns)
                ]
            labeled = [(form_from_triangle(n, tri), rest) for tri, *rest in sorted(found)]
            direct = [(form, [*fixed.values(), value]) for form, fixed, value in direct_scan(n)]
            assert labeled == direct

    def test_order_8_canonicalizes_accepted_children_only(self, order_8_job_calls):
        # of 853 * 127 = 108,331 children, 11,987 pass the key test, and
        # only those of them still tied after the finer key, with a tied
        # vertex that is no twin of the new one, are labeled
        assert order_8_job_calls["passed", 8] == 11987
        assert order_8_job_calls["labeling", 8] == (
            order_8_job_calls["finer", 8] - order_8_job_calls["twins", 8]
        ) == 1385

    def test_order_8_lazy_jobs_label_only_tied_children(self, order_8_job_calls):
        # of 853 * 127 = 108,331 children, 11,987 pass the key test; the
        # 7,563 whose new vertex alone has the largest key go unlabeled;
        # of the other 4,424, the finer key rejects 708 and leaves 3,221
        # tied, 1,836 of them with twins of the new vertex only; each
        # parent is still labeled once
        assert order_8_job_calls == {
            ("labeling", 7): 853,
            ("labeling", 8): 1385,
            ("refinement", 7): 853,
            ("refinement", 8): 1385,
            ("passed", 8): 11987,
            ("tied", 8): 4424,
            ("finer", 8): 3221,
            ("twins", 8): 1836,
        }

    def test_order_8_refines_each_labeled_child_once(self, order_8_job_calls):
        # one refinement per labeling: each labeled child's also gives the
        # orbit test its automorphisms, and each parent is labeled for its own
        for order in (7, 8):
            assert order_8_job_calls["refinement", order] == order_8_job_calls["labeling", order]

    def test_order_8_tries_one_neighbour_set_per_orbit(self):
        # the orbits of each order-7 parent's automorphism group on its
        # nonempty vertex sets, but for the sizes the key test rejects:
        # 67,141 orbits, 32,852 of them skipped
        leaders = 0
        for row in _table_rows(7):
            parent = search._Parent(*row)
            leaders += len(search._orbit_leaders(parent.graph, parent.rejected_sizes))
        assert leaders == 34289  # of 853 * 127 = 108,331 neighbour sets

    def test_max_key_ties_match_the_reference(self):
        # the key test answered from the parent ties exactly the vertices
        # the old test on the built child ties, for every child at n <= 7
        for parent, nbrs, rows in every_child(7):
            assert parent.max_key_ties(nbrs) == references._max_key_ties(rows)

    def test_finer_ties_match_the_reference(self):
        # the finer key, counted only on the key test's ties, leaves the
        # vertices the full key on the built child leaves, for every child
        # at n <= 7; the parent builds the same child rows
        decided = 0
        for parent, nbrs, rows in every_child(7):
            assert parent.child_rows(nbrs) == rows
            tied = parent.max_key_ties(nbrs)
            finer = None if tied is None else search._finer_ties(rows, tied)
            assert finer == references._finer_max_key_ties(rows)
            decided += tied is not None and len(tied) > 1 and (finer is None or len(finer) == 1)
        assert decided > 0

    def test_skipped_sizes_fail_the_key_test(self):
        # no neighbour set of a size the parent skips passes the key test
        skipped = 0
        for parent, nbrs, rows in every_child(7):
            if nbrs.bit_count() in parent.rejected_sizes:
                skipped += 1
                assert references._max_key_ties(rows) is None
        assert skipped > 0

    def test_twin_acceptance_agrees_with_the_labeling(self):
        # a child accepted as the new vertex's twins is accepted by the
        # labeling test too, for every child at n <= 7
        accepted = 0
        for parent, nbrs, rows in every_child(7):
            finer = references._finer_max_key_ties(rows)
            if finer is not None and len(finer) > 1 and parent.twins_of_new(nbrs, finer):
                accepted += 1
                assert search._accepted_by_labeling(rows, finer)
        assert accepted > 0

    def test_parent_columns_match_the_kernels(self):
        # χ from the parent's colour classes, the pendant count and ABS of
        # every child at n <= 7 are the direct kernels' on the built child
        for parent, nbrs, rows in every_child(7):
            assert columns_unlike_kernels(parent, nbrs, rows) is None

    def test_parent_columns_match_the_kernels_order_9(self, slow):
        # the same for every order-9 child that passes the key test
        wrong = []
        for row in _table_rows(8):
            parent = search._Parent(*row)
            for nbrs in search._orbit_leaders(parent.graph, parent.rejected_sizes):
                if parent.max_key_ties(nbrs) is not None:
                    found = columns_unlike_kernels(parent, nbrs, parent.child_rows(nbrs))
                    if found is not None:
                        wrong.append(found)
        assert wrong == []

    def test_orbit_leaders_meet_every_orbit_of_neighbour_sets(self):
        # the leaders are ascending, and every orbit of Aut(g) on the
        # nonempty vertex sets holds one of them, its least set; skipped
        # sizes drop their orbits' leaders and no other
        for n in range(1, 6):
            for g in enumerate_connected(n):
                leaders = search._orbit_leaders(g, range(0))
                assert leaders == sorted(set(leaders))
                autos = _automorphisms(g)
                for mask in range(1, 1 << n):
                    orbit = {_subset_image(mask, p) for p in autos}
                    assert orbit & set(leaders) == {min(orbit)}
                assert search._orbit_leaders(g, range(2, 4)) == [
                    mask for mask in leaders if mask.bit_count() not in (2, 3)
                ]


def every_child(max_order):
    """(parent, nbrs, child rows) for every child of order 2..max_order:
    each class of order n < max_order as a ``search._Parent`` in its
    canonical labels, with each nonempty neighbour set, and the child's
    rows built here."""
    for n in range(1, max_order):
        for g in enumerate_connected(n):
            parent = search._Parent(
                n, canonical_labeling(g)[0], chromatic_number(g), independence_number(g)
            )
            assert parent.rows == g.rows  # the labels the references see
            for nbrs in range(1, 1 << n):
                rows = [row | (nbrs >> v & 1) << n for v, row in enumerate(g.rows)]
                rows.append(nbrs)
                yield parent, nbrs, rows


def columns_unlike_kernels(parent, nbrs, rows):
    """None if the parent's χ(parent)-colourability, pendant count and ABS
    of the child on ``nbrs`` equal the direct kernels on its ``rows``, ABS
    bit for bit; else the parent's pair string, ``nbrs`` and both triples."""
    child = Graph(len(rows), rows)
    ours = (parent.colourable(nbrs), parent.pendants(nbrs), parent.abs_value(nbrs).hex())
    direct = (
        invariants.is_colorable(child, parent.chromatic),
        pendant_count(child),
        abs_index(child).hex(),
    )
    return None if ours == direct else (parent.pairs, nbrs, ours, direct)


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_child(error, monkeypatch):
    """Make the second of order 7's jobs, the first of share 1, which the
    forked child computes when there are two shares, call ``error()``."""
    class_table(6)
    augment, caller = search._augment_parent, os.getpid()
    target = search._table_cache[6].forms[1]

    def augment_or_fail(row):
        if row[1] == target and os.getpid() != caller:
            error()
        return augment(row)

    monkeypatch.setattr(search, "_augment_parent", augment_or_fail)


def raise_(error):
    raise error


class Unpicklable(Exception):
    """An exception that pickle cannot rebuild: it takes two arguments."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


class TestWorkerPool:
    """``search._in_shares``: shares of jobs, all but the first in forked children."""

    def test_clamped_to_usable_cores(self, cold_caches, shares):
        seen = shares(cores=3)
        forms = connected_class_forms(6, workers=64)
        assert seen.sizes == [3, 3]
        # order 6's jobs, then its pair strings labeled; orders 1..5 in
        # this process
        assert seen.batches == [21, 112]
        assert len(forms) == 112
        assert_no_children()

    def test_no_pool_for_batches_below_its_size(self, cold_caches, shares):
        seen = shares(cores=64, fork=False)
        assert len(connected_class_forms(6, workers=64)) == 112
        # order 6's 21 jobs run in this process, its 112 labelings shared
        assert (seen.sizes, seen.batches) == ([64], [112])

    def test_one_pool_for_the_requested_order(self, cold_caches, shares):
        seen = shares(cores=2)
        table = class_table(7, workers=2)
        assert seen.sizes == [2]
        assert seen.batches == [112]  # order 7; orders 1..6 in this process
        assert_no_children()
        assert len(table.forms) == len(table.abs_value) == 853

    def test_failed_job_terminates_the_pool(self, cold_caches, shares, monkeypatch):
        seen = shares(cores=2)
        class_table(6)
        augment = search._augment_parent

        def augment_or_fail(row):
            if row[1] == min(search._table_cache[6].forms):
                raise RuntimeError("job failed")
            return augment(row)

        monkeypatch.setattr(search, "_augment_parent", augment_or_fail)
        with pytest.raises(RuntimeError, match="job failed"):
            class_table(7, workers=2)
        assert seen.sizes == [2]
        assert_no_children()
        assert 7 not in search._table_cache

    def test_one_worker_forks_nothing(self, cold_caches, shares):
        seen = shares(cores=8)
        class_table(7)
        assert seen.sizes == []

    def test_importing_the_library_loads_no_multiprocessing(self):
        # -S keeps site hooks from loading either; the shares import
        # pickle, which shows that they ran, and never multiprocessing
        code = (
            "import os, sys, absindex, absindex.cli\n"
            "loaded = lambda: [m for m in ('multiprocessing', 'pickle') if m in sys.modules]\n"
            "print(loaded())\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "absindex.search.class_table(7, 2)\n"
            "print(loaded())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout == "[]\n['pickle']\n"

    def test_pooled_table_matches_serial(self, cold_caches, shares):
        shares(cores=2)
        shared = class_table(7, workers=2)
        search._table_cache.clear()
        search._record_cache.clear()
        assert class_table(7) == shared

    def test_tables_equal_for_1_2_and_64_workers(self, cold_caches, shares):
        seen = shares(cores=4)
        tables = []
        for workers in (1, 2, 64):
            search._table_cache.clear()
            search._record_cache.clear()
            forms = connected_class_forms(7, workers)
            tables.append((search._table_cache[7], search._table_cache[7].triangles, forms))
            assert_no_children()
        # order 7's jobs and its labelings, in 2 and then 4 shares
        assert seen.sizes == [2, 2, 4, 4]
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize(
        "error, raised, message",
        [
            (GraphError("job failed in a child"), GraphError, "^job failed in a child$"),
            (Unpicklable("job", "failed"), RuntimeError, "^Unpicklable: job: failed$"),
        ],
    )
    def test_child_job_error_is_raised_here(
        self, cold_caches, shares, monkeypatch, error, raised, message
    ):
        shares(cores=2)
        fail_in_child(lambda: raise_(error), monkeypatch)
        with pytest.raises(raised, match=message) as info:
            class_table(7, workers=2)
        assert info.type is raised
        assert_no_children()
        assert 7 not in search._table_cache

    def test_child_killed_by_a_signal_is_named(self, cold_caches, shares, monkeypatch):
        shares(cores=2)
        fail_in_child(lambda: os.kill(os.getpid(), signal.SIGKILL), monkeypatch)
        with pytest.raises(RuntimeError, match="^share 1 ended by SIGKILL without its results$"):
            class_table(7, workers=2)
        assert_no_children()
        assert 7 not in search._table_cache

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_in_own_share_kills_the_children(
        self, cold_caches, shares, monkeypatch, error
    ):
        # the child sleeps in its first job, so only a kill ends it soon
        shares(cores=2)
        class_table(6)
        caller = os.getpid()

        def sleep_or_fail(row):
            if os.getpid() != caller:
                time.sleep(60)
            raise error("own share failed")

        ends = []
        waitpid = os.waitpid

        def recorded_waitpid(pid, options):
            reaped = waitpid(pid, options)
            ends.append(os.waitstatus_to_exitcode(reaped[1]))
            return reaped

        monkeypatch.setattr(search, "_augment_parent", sleep_or_fail)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        start = time.monotonic()
        with pytest.raises(error, match="own share failed"):
            class_table(7, workers=2)
        assert time.monotonic() - start < 30
        assert ends == [-signal.SIGKILL]
        assert_no_children()
        assert 7 not in search._table_cache
