"""Correctness checks for every operation, run after its timed region.

Each check returns a list of problems; an empty list means the operation
is correct.  ``absindex`` (from ``src``) and networkx must be importable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random

import networkx as nx

# Connected graphs on 1..8 vertices, OEIS A001349.
A001349 = [1, 1, 2, 6, 21, 112, 853, 11117]
# sha256 of the sorted order-8 canonical forms, concatenated.
ENUM_N8_DIGEST = "13f308b1b8a6a9e97ae1d07a761b9dbf65d2b6b8a5b6f1868202e5d239d05e39"
# sha256 of the stdout of `absindex verify --n 8 --enable-n8` (any worker count).
SWEEP_N8_STDOUT_SHA256 = "efc3635c47aec7c21c3d23dcea937936699af0ea131e6878a876fc8cdcf7a1f2"


def check_enumeration(report: dict) -> list[str]:
    """``report`` is the JSON line printed by ``ops.py enumerate``."""
    problems = []
    if report.get("counts") != A001349:
        problems.append(f"class counts {report.get('counts')} != A001349 {A001349}")
    if report.get("digest") != ENUM_N8_DIGEST:
        problems.append(f"order-8 form digest {report.get('digest')} != {ENUM_N8_DIGEST}")
    return problems


def check_sweep(returncode: int | None, stdout: bytes) -> list[str]:
    """Exit code 0, byte-identical stdout, and every in-hypothesis row holds."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != SWEEP_N8_STDOUT_SHA256:
        problems.append(f"stdout sha256 {digest} != {SWEEP_N8_STDOUT_SHA256}")
    rows = list(csv.DictReader(io.StringIO(stdout.decode(errors="replace"))))
    if len(rows) != 19:
        problems.append(f"{len(rows)} table rows, expected 19")
    for row in rows:
        if row.get("in_hypothesis") == "true" and not (
            row.get("construction_match") == "true" and row.get("unique") == "true"
        ):
            problems.append(f"{row.get('theorem')} k={row.get('param')} fails in hypothesis")
    return problems


def _nx_graph(n: int, edges) -> nx.Graph:
    g = nx.empty_graph(n)
    g.add_edges_from(edges)
    return g


def check_queries(stream, results, seed: int) -> list[list[str]]:
    """Problems per query of ``query-mixed``.

    alpha is compared with networkx (maximum clique of the complement) and
    the canonical form must decode to a graph networkx finds isomorphic to
    the query.  The first time a base graph is seen, chi, alpha, the
    pendant count, the ABS value and the canonical form are recomputed on
    a seeded relabeling and must not change; later labelings of the same
    base graph (the families, which repeat every block) must reproduce
    those reference values.
    """
    import absindex
    from absindex.invariants import graph_from_canonical_form

    rng = random.Random(f"check-{seed}")
    reference: dict[str, tuple] = {}
    out = []
    for q, r in zip(stream, results, strict=True):
        connected, chi, alpha, pendants, value, terms_sum, n_terms, form_hex = r
        problems = []
        g = nx.from_graph6_bytes(q.graph6.encode())
        n = g.number_of_nodes()
        if connected is not True:
            problems.append("reported disconnected")
        if n_terms != g.number_of_edges():
            problems.append(f"{n_terms} edge terms for {g.number_of_edges()} edges")
        if terms_sum != value:
            problems.append(f"edge terms sum to {terms_sum}, ABS value is {value}")
        ref = reference.get(q.base)
        if ref is None:
            form = bytes.fromhex(form_hex)
            canon = graph_from_canonical_form(form)
            if canon.order != n or not nx.is_isomorphic(g, _nx_graph(n, canon.edges())):
                problems.append("canonical form is not a relabeling of the query")
            perm = rng.sample(range(n), n)
            h = absindex.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
            alpha_nx = nx.max_weight_clique(nx.complement(g), weight=None)[1]
            ref = reference[q.base] = (
                absindex.chromatic_number(h),
                alpha_nx,
                absindex.pendant_count(h),
                absindex.abs_index(h),
                absindex.canonical_form(h).hex(),
            )
        for name, got, want in zip(
            ("chi", "alpha", "pendants", "abs", "canonical form"),
            (chi, alpha, pendants, value, form_hex),
            ref,
        ):
            if got != want:
                problems.append(f"{name} {got!r} != reference {want!r}")
        out.append(problems)
    return out
