import hashlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from absindex import cli, complete_graph, encode_graph6, search, star, turan
from absindex.cli import main

# stdout of `absindex verify --n 8` (T1-T3, 19 rows), with or without --enable-n8
N8_STDOUT_SHA256 = "efc3635c47aec7c21c3d23dcea937936699af0ea131e6878a876fc8cdcf7a1f2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_k3(self, capsys):
        code, out, _ = run(capsys, "compute", "Bw")
        assert code == 0
        assert "graph6,Bw" in out
        assert "2.1213203436" in out  # 3 * sqrt(1/2)

    def test_empty_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, _, err = run(capsys, "compute")
        assert code == 2
        assert "empty" in err

    def test_malformed(self, capsys):
        code, _, err = run(capsys, "compute", "Bwww")
        assert code == 2
        assert "byte" in err

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
        code, out, _ = run(capsys, "compute")
        assert code == 0
        assert "2.1213203436" in out


# `absindex compute` stdout for K3, star(6) and turan(7, 3), byte for
# byte, so that a change to the edge records or the tables shows
COMPUTE_STDOUT = {
    "Bw": (
        "graph6,Bw\n\n"
        "order,edges,connected,chromatic,independence,pendants,abs_index\n"
        "3,3,true,3,1,0,2.1213203436\n\n"
        "u,v,deg_u,deg_v,value\n"
        "0,1,2,2,0.7071067812\n"
        "0,2,2,2,0.7071067812\n"
        "1,2,2,2,0.7071067812\n"
    ),
    "Esa?": (
        "graph6,Esa?\n\n"
        "order,edges,connected,chromatic,independence,pendants,abs_index\n"
        "6,5,true,2,5,5,4.0824829046\n\n"
        "u,v,deg_u,deg_v,value\n"
        "0,1,5,1,0.8164965809\n"
        "0,2,5,1,0.8164965809\n"
        "0,3,5,1,0.8164965809\n"
        "0,4,5,1,0.8164965809\n"
        "0,5,5,1,0.8164965809\n"
    ),
    "FFz~o": (
        "graph6,FFz~o\n\n"
        "order,edges,connected,chromatic,independence,pendants,abs_index\n"
        "7,16,true,3,3,0,14.1607140083\n\n"
        "u,v,deg_u,deg_v,value\n"
        "0,3,4,5,0.8819171037\n"
        "0,4,4,5,0.8819171037\n"
        "0,5,4,5,0.8819171037\n"
        "0,6,4,5,0.8819171037\n"
        "1,3,4,5,0.8819171037\n"
        "1,4,4,5,0.8819171037\n"
        "1,5,4,5,0.8819171037\n"
        "1,6,4,5,0.8819171037\n"
        "2,3,4,5,0.8819171037\n"
        "2,4,4,5,0.8819171037\n"
        "2,5,4,5,0.8819171037\n"
        "2,6,4,5,0.8819171037\n"
        "3,5,5,5,0.8944271910\n"
        "3,6,5,5,0.8944271910\n"
        "4,5,5,5,0.8944271910\n"
        "4,6,5,5,0.8944271910\n"
    ),
}


class TestComputeGolden:
    @pytest.mark.parametrize("graph6", sorted(COMPUTE_STDOUT))
    def test_stdout(self, capsys, graph6):
        code, out, _ = run(capsys, "compute", graph6)
        assert code == 0
        assert out == COMPUTE_STDOUT[graph6]

    def test_families_encode_to_the_golden_inputs(self):
        assert encode_graph6(complete_graph(3)) == "Bw"
        assert encode_graph6(star(6)) == "Esa?"
        assert encode_graph6(turan(7, 3)) == "FFz~o"


class TestConstruct:
    def test_turan(self, capsys):
        code, out, _ = run(capsys, "construct", "turan", "--n", "5", "--chi", "3")
        assert code == 0
        assert "6.6466033426" in out
        assert ",8," in out  # 8 edges

    def test_kite_with_audit(self, capsys):
        code, out, _ = run(
            capsys, "construct", "kite", "--n", "6", "--p", "2", "--audit"
        )
        assert code == 0
        assert "6.6805591160" in out
        assert "false" in out  # printed bound disagrees

    def test_star_abs(self, capsys):
        code, out, _ = run(capsys, "construct", "star", "--n", "5")
        assert code == 0
        assert "3.0983866770" in out

    def test_invalid_params(self, capsys):
        code, _, err = run(capsys, "construct", "kite", "--n", "4", "--p", "3")
        assert code == 2
        assert "p" in err

    def test_missing_param(self, capsys):
        code, _, err = run(capsys, "construct", "turan", "--n", "5")
        assert code == 2
        assert "--chi" in err

    def test_option_of_another_family(self, capsys):
        for family, argv in (
            ("star", ("--n", "5", "--chi", "9")),
            ("turan", ("--n", "5", "--chi", "3", "--m", "4")),
            ("split", ("--n", "5", "--alpha", "2", "--p", "1")),
            ("dstar", ("--n", "6", "--alpha", "2")),
            ("kite", ("--n", "6", "--p", "2", "--m", "2")),
        ):
            code, out, err = run(capsys, "construct", family, *argv)
            assert (code, out) == (2, "")
            assert err == f"construct: family {family!r} takes no {argv[-2]}\n"

    def test_dstar_builds_m_2_without_m(self, capsys):
        _, default, _ = run(capsys, "construct", "dstar", "--n", "6")
        _, given, _ = run(capsys, "construct", "dstar", "--n", "6", "--m", "2")
        assert default == given
        assert default.startswith("graph6,")

    def test_audit_row_only_where_audit_prints_it(self, capsys):
        # T1 claims 3 <= chi <= n - 1: no row at chi = 2, and none at all at n = 2
        for n, chi in (("2", "2"), ("5", "2"), ("5", "5")):
            argv = ("construct", "turan", "--n", n, "--chi", chi, "--audit")
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert "case,printed" not in out
        _, out, _ = run(capsys, "construct", "turan", "--n", "5", "--chi", "3", "--audit")
        _, table, _ = run(capsys, "audit", "T1", "--n", "5")
        row = next(r for r in table.splitlines() if r.startswith("T1,5,3,"))
        assert out.splitlines()[-1] == "T1 n=5 chi=3," + row.split(",", 3)[3]


class TestVerify:
    def test_t1_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorems", "T1", "--n", "5..6")
        assert code == 0
        lines = out.strip().splitlines()
        # header + (5: chi 3,4) + (6: chi 3,4,5)
        assert len(lines) == 6
        assert all(",true,true,true" in line for line in lines[1:])

    def test_t3_n6_rows(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorems", "T3", "--n", "6..6")
        assert code == 0
        lines = out.strip().splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == ["1", "2", "3", "4", "5"]

    def test_cap_exceeded(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "10..10")
        assert (code, out) == (2, "")
        assert err == "verify: order 10 outside the supported range 1..9\n"

    def test_markdown_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--theorems", "T2", "--n", "4..4", "--format", "markdown"
        )
        assert code == 0
        assert out.startswith("| theorem |")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code = main(
            ["verify", "--theorems", "T2", "--n", "4..4", "--out", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        text = target.read_text()
        assert text.startswith("theorem,")
        assert text.endswith("\n")

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "7..5")
        assert code == 2

    def test_smallest_orders(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1..4")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 13  # T1 at n = 4; T2 and T3 at n = 2, 3, 4: 1 + 2 + 3 each
        # no double star at n = 3, and star(2) has two pendants, not one
        assert "T3,2,1,0,,,false,false,false" in rows
        assert "T3,3,1,0,,,false,false,false" in rows
        assert "T3,3,2,1,1.1547005384,BW,true,true,true" in rows

    @pytest.mark.parametrize(
        "flags",
        [("--enable-n8", "--workers", "1"), ("--enable-n8", "--workers", "2"), ("--workers", "2")],
        ids=["1", "2", "2-without-flag"],
    )
    def test_n8_sweep_stdout(self, capsys, cold_caches, flags):
        # --enable-n8 has no effect; it still parses
        code, out, _ = run(capsys, "verify", "--n", "8", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == N8_STDOUT_SHA256

    def test_order_9_sweep_matches_the_committed_table(self, capsys, order_9):
        # on the table of the order_9 fixture, whose forms were read
        code, out, _ = run(capsys, "verify", "--n", "9", "--workers", "2")
        assert code == 0
        committed = Path(__file__).parent.parent / "results" / "verify_n9.csv"
        assert out == committed.read_text()

    def test_order_9_sweep_from_cold_caches(self, capsys, slow, cold_caches):
        # as a first run builds it: the table of every order below 9, and
        # order 9's records in two shares, with only the children still
        # tied labeled; no order-9 table is built
        code, out, _ = run(capsys, "verify", "--n", "9", "--workers", "2")
        assert code == 0
        committed = Path(__file__).parent.parent / "results" / "verify_n9.csv"
        assert out == committed.read_text()
        assert 9 not in search._table_cache
        assert 8 in search._table_cache

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="maxrss in kB")
    def test_order_9_sweep_peak_rss(self, slow):
        # a fresh `verify --n 9 --workers 2`, started by a process of its
        # own so that RUSAGE_CHILDREN holds only its peak and its share's:
        # 41.6 MB when the order-9 table was stored, about 18.4 MB with
        # records (2 shared cores, Python 3.11.7)
        code = (
            "import resource, subprocess, sys\n"
            "argv = [sys.executable, '-m', 'absindex', 'verify', '--n', '9', '--workers', '2']\n"
            "sys.stdout.write(subprocess.run(argv, stdout=subprocess.PIPE, text=True).stdout)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        committed = Path(__file__).parent.parent / "results" / "verify_n9.csv"
        assert done.stdout == committed.read_text()
        assert int(done.stderr) < 28 * 1024


class TestAudit:
    def test_t1_all_disagree(self, capsys):
        code, out, _ = run(capsys, "audit", "T1", "--n", "5..7")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows
        assert all(row.endswith("false") for row in rows)

    def test_clique_term_all_agree(self, capsys):
        code, out, _ = run(capsys, "audit", "T3-clique-term", "--n", "6..8")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows
        assert all(row.endswith("true") for row in rows)

    def test_t3_range_through_order_3(self, capsys):
        code, out, err = run(capsys, "audit", "T3", "--n", "2..5")
        assert code == 0 and err == ""
        rows = out.splitlines()[1:]
        for n in (2, 4, 5):
            _, alone, _ = run(capsys, "audit", "T3", "--n", str(n))
            assert [r for r in rows if r.split(",")[1] == str(n)] == alone.splitlines()[1:]
        # no graph of order 2 has one pendant (K2 has two), so no row
        assert [r for r in rows if r.split(",")[1] == "2"] == []
        # no double star at n = 3, so p = 1 has no maximizer and no row
        assert [r for r in rows if r.split(",")[1] == "3"] == [
            "T3,3,2,0.6666666667,1.1547005384,0.4880338717,false"
        ]

    def test_empty_range(self, capsys):
        code, out, _ = run(capsys, "audit", "T1", "--n", "3..3")
        assert code == 0
        assert len(out.strip().splitlines()) == 1  # header only


# sha256 over "exit code, newline, stdout" of `audit <case> --n N` for
# N = 1..12 (T3 without N = 3), and of `construct <family> --audit` for
# n = 1..9 and every parameter 0..n + 1, in that order; they pin which
# inputs print an audit row and what it says
AUDIT_SHA256 = {
    "T1": "98fc813885ace6d754fdd742462fba26a8d75b845506dc7ed076aa990b787a01",
    "T2": "6d113f882d272cb59dee7dba4e0903de28a71b0e0494fd214752e3be124456ec",
    "T3": "dd48de0b0246448a7025a420c334bf316e37ae019d1d6a3e440d4722f30b4c7e",
    "T3-clique-term": "ef55148418b5f80072366ef0226e06df69823d80cc7cf57060d99c79bb33a3b7",
}
CONSTRUCT_AUDIT_SHA256 = {
    "turan": "5f102cea4d15d02b070c3f2f5c6077191a68c1a3707b4d0726116fbc1dfcf08e",
    "split": "410244065ec293561e2efd1b59f7010ebf59136e37cddb964a4d012dca8d9ffd",
    "star": "7faca4e466e68e5d94b60d60d193084ab1ef58e1a9dd8bfee4e32398ee17c5af",
    "dstar": "4aba8b84c68489f8a93474c825e89615af870254205a0743f571ebc54baae808",
    "kite": "e6a80faef4f4d917c43b27df5fefe02435c1455e675ce6014be288038456422c",
}
# sha256 over "exit code, newline, stdout" of `lemmas --n 1..7` in each format
LEMMAS_SHA256 = {
    "csv": "11d9f9e8611f7de5732d947efdd7f51b323966330d9c3a0753a97c8a1327f233",
    "markdown": "4344e2f50b5f74c81798d1243a19c2cfe51f0282741e8a6773cab0910ea09f8e",
}
FAMILY_OPTION = {"turan": "--chi", "split": "--alpha", "dstar": "--m", "kite": "--p"}


def stdout_digest(capsys, invocations) -> str:
    h = hashlib.sha256()
    for argv in invocations:
        code, out, _ = run(capsys, *argv)
        h.update(f"{code}\n{out}".encode())
    return h.hexdigest()


class TestOutputPins:
    @pytest.mark.parametrize("case", sorted(AUDIT_SHA256))
    def test_audit(self, capsys, case):
        invocations = [
            ("audit", case, "--n", str(n))
            for n in range(1, 13)
            if (case, n) != ("T3", 3)
        ]
        assert stdout_digest(capsys, invocations) == AUDIT_SHA256[case]

    @pytest.mark.parametrize("family", sorted(CONSTRUCT_AUDIT_SHA256))
    def test_construct_audit(self, capsys, family):
        option = FAMILY_OPTION.get(family)
        invocations = []
        for n in range(1, 10):
            if option is None:
                invocations.append(("construct", family, "--n", str(n), "--audit"))
                continue
            invocations += [
                ("construct", family, "--n", str(n), option, str(x), "--audit")
                for x in range(n + 2)
            ]
        assert stdout_digest(capsys, invocations) == CONSTRUCT_AUDIT_SHA256[family]

    @pytest.mark.parametrize("fmt", sorted(LEMMAS_SHA256))
    def test_lemmas(self, capsys, fmt):
        invocations = [("lemmas", "--n", "1..7", "--format", fmt)]
        assert stdout_digest(capsys, invocations) == LEMMAS_SHA256[fmt]


class TestLemmas:
    def test_cap(self, capsys):
        code, out, err = run(capsys, "lemmas", "--n", "10")
        assert (code, out) == (2, "")
        assert err == "lemmas: order 10 outside the supported range 1..9\n"

    def test_cap_refused_before_any_order_is_built(self, capsys, cold_caches):
        for argv in (("lemmas", "--n", "4..10"), ("verify", "--n", "5..10")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"{argv[0]}: order 10 outside the supported range 1..9\n"
            assert search._table_cache == {}


class TestDeterminism:
    def test_same_output_repeated(self, capsys):
        _, first, _ = run(capsys, "verify", "--theorems", "T2", "--n", "5..5")
        _, second, _ = run(capsys, "verify", "--theorems", "T2", "--n", "5..5")
        assert first == second

    def test_one_pool_builds_every_order_of_the_sweep(
        self, capsys, cold_caches, shares
    ):
        seen = shares(cores=2)
        code, shared, _ = run(capsys, "verify", "--n", "5..7", "--workers", "2")
        assert code == 0
        assert seen.sizes == [2]
        assert seen.batches == [112]  # order 7's records; orders 1..6 in this process
        assert sorted(search._table_cache) == [1, 2, 3, 4, 5, 6]
        search._table_cache.clear()
        search._record_cache.clear()
        _, serial, _ = run(capsys, "verify", "--n", "5..7", "--workers", "1")
        assert seen.sizes == [2]
        assert shared == serial

    def test_the_sweep_builds_through_the_traced_route(
        self, capsys, cold_caches, shares, monkeypatch
    ):
        # the benchmark's tracer times the build by the spans of
        # connected_class_forms, wherever the name is bound, and
        # perfbench/run.py's sweep_traced by outer[0] of the
        # search.enumerate[8] spans of a traced sweep, so verify builds
        # its top order's records through that function first
        shares(cores=2)
        calls = []
        forms, verify = search.connected_class_forms, cli.verify_theorem

        def recorded_forms(*args, **kwargs):
            calls.append(("forms", args, kwargs))
            return forms(*args, **kwargs)

        def recorded_verify(*args):
            calls.append(("verify", args))
            return verify(*args)

        for module in (search, cli):
            monkeypatch.setattr(module, "connected_class_forms", recorded_forms)
        monkeypatch.setattr(cli, "verify_theorem", recorded_verify)
        code, _, _ = run(capsys, "verify", "--n", "5..6", "--workers", "2")
        assert code == 0
        route = ("forms", (6, 2), {"build": "records"})
        assert calls.count(route) == 1
        assert calls.index(route) < next(i for i, c in enumerate(calls) if c[0] == "verify")
        assert 6 not in search._table_cache

    def test_the_top_order_is_sent_as_records(self, capsys, cold_caches, shares):
        # a cold order-8 sweep in two shares: the forked share pickles its
        # records, not its jobs' columns (140,449 bytes), and no order-8
        # table is built
        seen = shares(cores=2)
        code, out, _ = run(capsys, "verify", "--n", "8", "--workers", "2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == N8_STDOUT_SHA256
        assert (seen.sizes, seen.batches) == ([2], [853])
        assert len(seen.sent) == 1 and seen.sent[0] < 4096
        assert 8 not in search._table_cache
        assert 7 in search._table_cache

    def test_workers_env_override(self, capsys, cold_caches, shares, monkeypatch):
        # ABSINDEX_WORKERS no longer overrides the default of one worker:
        # a cold verify with it set forks no share and prints the same rows
        seen = shares(cores=2)
        monkeypatch.setenv("ABSINDEX_WORKERS", "2")
        code, env_out, _ = run(capsys, "verify", "--theorems", "T2", "--n", "5..5")
        assert code == 0
        assert seen.sizes == []
        monkeypatch.delenv("ABSINDEX_WORKERS")
        _, plain_out, _ = run(capsys, "verify", "--theorems", "T2", "--n", "5..5")
        assert env_out == plain_out


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_theorem(self, capsys):
        code, _, _ = run(capsys, "verify", "--theorems", "T7")
        assert code == 2

    def test_verify_order_not_a_number(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "five")
        assert (code, out) == (2, "")
        assert "bad order range 'five'" in err

    def test_empty_theorem_list(self, capsys):
        code, out, err = run(capsys, "verify", "--theorems", ",")
        assert (code, out) == (2, "")
        assert "empty theorem list" in err

    def test_verify_order_zero(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "0")
        assert code == 2
        assert out == ""
        assert "below 1" in err

    def test_audit_order_range_from_zero(self, capsys):
        code, out, err = run(capsys, "audit", "T1", "--n", "0..3")
        assert code == 2
        assert out == ""
        assert "below 1" in err

    @pytest.mark.parametrize("case", ["T1", "T2", "T3", "T3-clique-term"])
    def test_audit_order_above_graph_cap(self, capsys, case):
        # an order no graph can have is an input error, not a missing
        # maximizer; no row is built for it, or for the orders below it
        code, out, err = run(capsys, "audit", case, "--n", "12..13")
        assert (code, out) == (2, "")
        assert err == "audit: order must be in 1..12, got 13\n"

    @pytest.mark.parametrize(
        "family", ["turan --chi 3", "split --alpha 2", "star", "dstar", "kite --p 2"]
    )
    def test_construct_order_above_graph_cap(self, capsys, monkeypatch, family):
        # refused before any constructor builds its edges, which grow as n^2
        for name in ("turan", "complete_split", "star", "double_star", "kite"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"{name} called"))
        code, out, err = run(capsys, "construct", *family.split(), "--n", "13")
        assert (code, out) == (2, "")
        assert err == "construct: order must be in 1..12, got 13\n"

    def test_workers_zero(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "4..4", "--workers", "0")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--workers" in err

    def test_workers_negative(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "4..4", "--workers", "-3")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--workers" in err

    def test_workers_above_core_count_are_clamped(
        self, capsys, cold_caches, shares
    ):
        seen = shares(cores=2)
        code, many, _ = run(capsys, "verify", "--n", "6..6", "--workers", "64")
        assert code == 0
        assert seen.sizes == [2]
        search._table_cache.clear()
        search._record_cache.clear()
        _, one, _ = run(capsys, "verify", "--n", "6..6", "--workers", "1")
        assert many == one

    @pytest.mark.parametrize(
        "argv",
        [("compute", "Bw"), ("construct", "star", "--n", "5"), ("audit", "T1"), ("lemmas",)],
    )
    def test_enable_n8_belongs_to_verify(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--enable-n8")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --enable-n8" in err

    @pytest.mark.parametrize(
        "argv",
        [("compute", "Bw"), ("construct", "star", "--n", "5"), ("audit", "T1"), ("lemmas",)],
    )
    def test_workers_belongs_to_the_searches(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--workers", "2")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --workers 2" in err

    def test_workers_flag_wins_over_bad_env(self, capsys, monkeypatch):
        # the variable is read by nothing, so a malformed value cannot
        # shadow the flag or turn a valid run into an error
        _, plain, _ = run(capsys, "verify", "--n", "4..4", "--workers", "1")
        monkeypatch.setenv("ABSINDEX_WORKERS", "two")
        code, out, err = run(capsys, "verify", "--n", "4..4", "--workers", "1")
        assert (code, out, err) == (0, plain, "")
        code, out, err = run(capsys, "verify", "--n", "4..4", "--workers", "0")
        assert (code, out) == (2, "")
        assert err == "verify: --workers must be a positive integer, got '0'\n"

    def test_workers_env_is_not_read_without_a_search(self, capsys, monkeypatch):
        monkeypatch.setenv("ABSINDEX_WORKERS", "two")
        code, out, err = run(capsys, "compute", "Bw")
        assert (code, out, err) == (0, COMPUTE_STDOUT["Bw"], "")
        code, out, err = run(capsys, "lemmas", "--n", "4..4")
        assert (code, err) == (0, "")
        assert all(",true," in row for row in out.strip().splitlines()[1:])

    def test_unwritable_out_is_found_before_the_sweep(
        self, tmp_path, capsys, cold_caches
    ):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(
            capsys, "verify", "--n", "8", "--out", str(target)
        )
        assert (code, out) == (2, "")
        assert err == f"verify: cannot write {target}: No such file or directory\n"
        assert search._table_cache == {}

    def test_out_that_is_a_directory_or_under_a_file(self, tmp_path, capsys):
        code, out, err = run(capsys, "verify", "--n", "4..4", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"verify: cannot write {tmp_path}: Is a directory\n"
        (tmp_path / "f.csv").write_text("kept")
        target = tmp_path / "f.csv" / "x.csv"
        code, out, err = run(capsys, "verify", "--n", "4..4", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"verify: cannot write {target}: Not a directory\n"
        assert (tmp_path / "f.csv").read_text() == "kept"

    def test_unwritable_out(self, tmp_path, capsys):
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run(
            capsys, "verify", "--n", "4..4", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "cannot write" in err
        assert not target.parent.exists()


def run_process(argv, stdout, **options):
    """``python -m absindex *argv`` in a new process; its exit code and stderr.

    Its stdout is block-buffered, as by default, so that what a failed
    write leaves in the buffer would be flushed again at exit.  Further
    ``subprocess.run`` options are passed on.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "absindex", *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        **options,
    )
    return done.returncode, done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
class TestFailedWrite:
    """A write that fails after the work exits 2 with one line, no traceback."""

    def test_out_on_full_device(self):
        argv = ("verify", "--n", "5", "--out", "/dev/full")
        code, err = run_process(argv, subprocess.DEVNULL)
        assert code == 2
        assert err == "verify: cannot write /dev/full: No space left on device\n"

    def test_stdout_on_full_device(self):
        with open("/dev/full", "w") as full:
            code, err = run_process(("compute", "Bw"), full)
        assert code == 2
        assert err == "compute: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
class TestClosedStreams:
    """A closed stdin or stdout exits 2 with one line, no traceback."""

    @pytest.mark.parametrize(
        "argv", [("compute", "Bw"), ("verify", "--n", "7"), ("lemmas", "--n", "4")]
    )
    def test_closed_stdout(self, argv):
        code, err = run_process(argv, None, preexec_fn=lambda: os.close(1))
        assert code == 2
        assert err == f"{argv[0]}: cannot write stdout: Bad file descriptor\n"

    @pytest.mark.parametrize(
        "argv", [("compute", "Bw"), ("verify", "--n", "7"), ("lemmas", "--n", "4")]
    )
    def test_read_only_stdout_is_found_before_the_work(
        self, argv, capsys, cold_caches, monkeypatch
    ):
        # fd 1 open for reading only: a zero-byte write fails with EBADF
        with open(os.devnull) as read_only:
            code, err = run_process(argv, read_only)
        assert code == 2
        assert err == f"{argv[0]}: cannot write stdout: Bad file descriptor\n"
        # the same in this process, where no table is built
        monkeypatch.setattr(search, "_augment_parent", lambda row: pytest.fail("table built"))
        with open(os.devnull) as read_only:
            monkeypatch.setattr(sys, "stdout", read_only)
            assert main(list(argv)) == 2
            monkeypatch.undo()
        assert capsys.readouterr().err == err
        assert search._table_cache == {} == search._record_cache

    def test_closed_stdin(self):
        code, err = run_process(
            ("compute",), subprocess.DEVNULL, preexec_fn=lambda: os.close(0)
        )
        assert code == 2
        assert err == "compute: cannot read stdin: Bad file descriptor\n"

    def test_write_only_stdin(self, tmp_path):
        # Python opens it as stdin, and only the read fails
        with open(tmp_path / "input", "w") as stdin:
            code, err = run_process(("compute",), subprocess.DEVNULL, stdin=stdin)
        assert code == 2
        assert err == "compute: cannot read stdin: Bad file descriptor\n"

    def test_closed_stdout_is_found_before_the_work(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "connected_class_forms", lambda *a, **k: pytest.fail("built"))
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["verify", "--n", "7"]) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == "verify: cannot write stdout: Bad file descriptor\n"


class TestReplacedOut:
    """A regular --out file is replaced only by a complete copy."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
    def test_failed_write_leaves_out_as_it_was(self, tmp_path):
        import resource

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))

        target = tmp_path / "kept.csv"
        assert main(["verify", "--n", "5", "--out", str(target)]) == 0
        good = target.read_bytes()
        argv = ("verify", "--n", "5..7", "--out", "kept.csv")
        code, err = run_process(
            argv, subprocess.DEVNULL, cwd=tmp_path, preexec_fn=limit_file_size
        )
        assert code == 2
        assert err == "verify: cannot write kept.csv: File too large\n"
        assert target.read_bytes() == good
        assert os.listdir(tmp_path) == ["kept.csv"]

    def test_symlink_and_permission_bits_are_kept(self, tmp_path, capsys):
        target = tmp_path / "real.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        _, expected, _ = run(capsys, "verify", "--n", "4")
        assert main(["verify", "--n", "4", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text() == expected
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        target = tmp_path / "new.csv"
        old = os.umask(0o027)
        try:
            assert main(["verify", "--n", "4", "--out", str(target)]) == 0
        finally:
            os.umask(old)
        assert target.stat().st_mode & 0o777 == 0o640

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_dev_stdout_into_a_pipe_is_written_in_place(self, capsys):
        _, expected, _ = run(capsys, "verify", "--n", "5")
        read_end, write_end = os.pipe()
        with open(read_end) as reader, open(write_end, "w") as writer:
            argv = ("verify", "--n", "5", "--out", "/dev/stdout")
            code, err = run_process(argv, writer)
            writer.close()
            assert (code, err) == (0, "")
            assert reader.read() == expected

    def written_in_place(self, capsys, target):
        """Run ``verify --n 4 --out target`` over an old ``target`` and
        assert that the same inode now holds the table, beside no new file."""
        target.write_text("old\n")
        inode = target.stat().st_ino
        before = sorted(os.listdir(target.parent))
        _, expected, _ = run(capsys, "verify", "--n", "4")
        assert main(["verify", "--n", "4", "--out", str(target)]) == 0
        assert target.stat().st_ino == inode
        assert target.read_text() == expected
        assert sorted(os.listdir(target.parent)) == before

    def test_file_of_another_owner_is_written_in_place(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "geteuid", lambda: os.stat(tmp_path).st_uid + 1)
        self.written_in_place(capsys, tmp_path / "theirs.csv")

    def test_hard_linked_file_is_written_in_place(self, tmp_path, capsys):
        target = tmp_path / "linked.csv"
        target.write_text("old\n")
        (tmp_path / "other.csv").hardlink_to(target)
        self.written_in_place(capsys, target)
        assert (tmp_path / "other.csv").read_text() == target.read_text()

    def test_file_in_unwritable_directory_is_written_in_place(
        self, tmp_path, capsys, monkeypatch
    ):
        folder = os.path.realpath(tmp_path)
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: p != folder and access(p, mode))
        self.written_in_place(capsys, tmp_path / "kept.csv")


class TestOutputOnUsageError:
    """A run that exits 2 writes nothing, to --out or to stdout."""

    def test_existing_out_file_is_left_as_it_was(self, tmp_path, capsys):
        target = tmp_path / "results.csv"
        assert main(["verify", "--n", "4..4", "--out", str(target)]) == 0
        good = target.read_bytes()
        code, out, err = run(capsys, "verify", "--n", "10", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == "verify: order 10 outside the supported range 1..9\n"
        assert target.read_bytes() == good

    def test_no_out_file_is_created(self, tmp_path, capsys):
        target = tmp_path / "f.csv"
        code, _, err = run(capsys, "construct", "turan", "--n", "5", "--out", str(target))
        assert code == 2
        assert "--chi" in err
        assert not target.exists()

    def test_error_after_the_report_prints_no_report(self, capsys, monkeypatch):
        def failing_audit(case, n, k):
            raise ValueError("math domain error")

        monkeypatch.setattr(cli, "formula_audit", failing_audit)
        code, out, err = run(capsys, "construct", "turan", "--n", "5", "--chi", "3", "--audit")
        assert (code, out, err) == (2, "", "construct: math domain error\n")


def readme_cli_lines() -> list[list[str]]:
    """The arguments of each ``absindex`` line in the README's CLI block."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("absindex ")
    ]


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_readme_cli_block_runs(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 0, err
