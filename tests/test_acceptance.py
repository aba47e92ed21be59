"""Acceptance gate: one test per release criterion.

Each test prints a [PASS]/[FAIL] line (run with ``pytest -s`` to see
them live).  Tolerances are fixed here and nowhere else: 1e-12 for
hand-derived sums, 1e-9 for maximizer ties and audits.
"""

import math
import subprocess
import sys

from absindex import (
    abs_index,
    check_edge_additions,
    check_scalar_properties,
    complete_graph,
    complete_split,
    connected_class_forms,
    double_star_split_value,
    formula_audit,
    from_edges,
    kite,
    star,
    turan,
    verify_theorem,
)
from references import connected_class_forms_labeled

SUM_TOL = 1e-12
TIE_TOL = 1e-9


def report(number, description, passed):
    verdict = "PASS" if passed else "FAIL"
    print(f"[{verdict}] criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_unit_values():
    cases = [
        ("K_2", from_edges(2, [(0, 1)]), 0.0),
        ("P_3", from_edges(3, [(0, 1), (1, 2)]), 2 * math.sqrt(1 / 3)),
        (
            "C_5",
            from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
            5 * math.sqrt(1 / 2),
        ),
        ("K_4", complete_graph(4), 6 * math.sqrt(2 / 3)),
        ("star(5)", star(5), 4 * math.sqrt(3 / 5)),
        ("turan(5,3)", turan(5, 3), 4 * math.sqrt(2 / 3) + 4 * math.sqrt(5 / 7)),
        (
            "kite(6,2)",
            kite(6, 2),
            2 * math.sqrt(2 / 3) + 3 * math.sqrt(3 / 4) + 3 * math.sqrt(2 / 3),
        ),
        (
            "complete_split(4,2)",
            complete_split(4, 2),
            4 * math.sqrt(3 / 5) + math.sqrt(2 / 3),
        ),
    ]
    ok = all(abs(abs_index(g) - expected) <= SUM_TOL for _, g, expected in cases)
    report(1, "abs_index matches hand-derived sums within 1e-12", ok)


def test_criterion_2_chromatic_sweep():
    ok = True
    for n in (5, 6, 7):
        for chi in range(3, n):
            r = verify_theorem("T1", n, chi)
            ok &= bool(r.construction_match and r.unique)
    report(2, "fixed chromatic number: unique maximizer is the balanced "
              "multipartite graph for n=5..7", ok)


def test_criterion_3_independence_sweep():
    ok = True
    for n in (4, 5, 6, 7):
        for alpha in range(1, n):
            r = verify_theorem("T2", n, alpha)
            ok &= bool(r.construction_match and r.unique)
    report(3, "fixed independence number: unique maximizer is the "
              "complete split graph for n=4..7", ok)


def test_criterion_4_pendant_sweep():
    ok = True
    for n in (5, 6, 7):
        for p in range(1, n):
            r = verify_theorem("T3", n, p)
            ok &= bool(r.construction_match and r.unique)
    report(4, "fixed pendant count: unique maximizer is star / double star "
              "/ kite for n=5..7", ok)


def test_criterion_5_edge_addition():
    ok = True
    min_margin = None
    for n in range(1, 7):
        r = check_edge_additions(n)
        ok &= r.passed
        if r.min_margin is not None:
            min_margin = r.min_margin if min_margin is None else min(
                min_margin, r.min_margin
            )
    ok &= min_margin is not None and min_margin > 0
    report(5, f"every edge addition strictly raises ABS for n<=6 "
              f"(min margin {min_margin:.6f})", ok)


def test_criterion_6_scalar_grids():
    results = check_scalar_properties()
    strict = [p for p in results if "constant" not in p.name]
    ok = all(p.passed for p in results) and all(p.min_margin > 0 for p in strict)
    report(6, "scalar monotonicity/convexity grids pass with strict margins", ok)


def test_criterion_7_enumeration_counts():
    expected = {4: 6, 5: 21, 6: 112, 7: 853}
    ok = True
    for n, count in expected.items():
        labeled = connected_class_forms_labeled(n)
        ok &= len(labeled) == count
        ok &= labeled == connected_class_forms(n)
    report(7, "connected class counts 6/21/112/853 for n=4..7, labeled "
              "sweep and fast path identical", ok)


def test_criterion_8_formula_audit_regression():
    a1 = formula_audit("T1", 5, 3)
    a2 = formula_audit("T2", 4, 2)
    a3 = formula_audit("T3", 5, 4)
    a4 = formula_audit("T3-clique-term", 6, 2)
    ok = (
        not a1.agrees
        and abs(a1.printed_value - 4.2466424) <= 1e-6
        and abs(a1.direct_value - 6.6466033) <= 1e-6
        and not a2.agrees
        and abs(a2.printed_value - 2.8284271) <= 1e-6
        and abs(a2.direct_value - 3.9148833) <= 1e-6
        and not a3.agrees
        and abs(a3.printed_value - 1.3856406) <= 1e-6
        and abs(a3.direct_value - 3.0983867) <= 1e-6
        and a4.agrees
        and abs(a4.printed_value - 2.4494897) <= 1e-6
        and abs(a4.direct_value - 2.4494897) <= 1e-6
    )
    report(8, "printed-vs-direct audit verdicts match the pinned golden values", ok)


def test_criterion_9_double_star_split_scan():
    ok = True
    for p in range(3, 11):
        values = {t: double_star_split_value(p, t) for t in range(1, p)}
        top = max(values.values())
        argmax = {t for t, v in values.items() if top - v <= TIE_TOL}
        ok &= argmax == {1, p - 1}
    report(9, "double-star split maximum sits at the extreme splits "
              "for p=3..10", ok)


def test_criterion_10_worker_determinism():
    outputs = []
    for workers in (1, 2, 4):
        proc = subprocess.run(
            [sys.executable, "-m", "absindex", "verify", "--workers", str(workers)],
            capture_output=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, "default verification sweep is byte-identical for 1/2/4 "
               "workers", ok)
