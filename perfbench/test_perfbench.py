"""Tests of the benchmark's own logic: stream, self time, failure accounting.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import absindex  # noqa: E402
import pytest  # noqa: E402

import ops  # noqa: E402
import run  # noqa: E402
from checks import check_queries  # noqa: E402
from stream import BLOCK_SIZE, FAMILIES, make_stream  # noqa: E402
from tracing import Spans, Tracer, self_times, summarize  # noqa: E402


def test_same_seed_gives_the_same_stream():
    assert make_stream(7, 1) == make_stream(7, 1)


def test_different_seed_gives_a_different_stream():
    assert make_stream(7, 1) != make_stream(8, 1)


def test_every_block_has_the_same_composition():
    stream = make_stream(5, 2)
    assert len(stream) == 2 * BLOCK_SIZE
    for b in range(2):
        block = stream[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE]
        kinds = [q.kind for q in block]
        assert (kinds.count("gnp"), kinds.count("regular"), kinds.count("family")) == (960, 20, 17)
        assert len({q.base for q in block if q.kind == "family"}) == len(set(FAMILIES))


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10]; children [1, 4] and [3, 5] overlap, [6, 7] holds a
    # grandchild [6.2, 6.8], and [9, 12] runs past the root's end
    parent = [-1, 0, 0, 0, 3, 0]
    start = [0.0, 1.0, 3.0, 6.0, 6.2, 9.0]
    end = [10.0, 4.0, 5.0, 7.0, 6.8, 12.0]
    got = list(self_times(parent, start, end))
    assert got == pytest.approx([10 - 4 - 1 - 1, 3, 2, 0.4, 0.6, 3])


def test_self_time_needs_spans_in_start_order():
    with pytest.raises(ValueError):
        self_times([-1, -1], [2.0, 1.0], [3.0, 4.0])


def test_tracer_records_nesting_and_round_trips(tmp_path):
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()
    path = tmp_path / "spans.bin"
    tracer.counts["inputs"] = 1
    tracer.dump(path)
    spans = Spans.load(path)
    assert list(spans.parent) == [-1, 0, 0]
    assert spans.counts == {"inputs": 1}
    stats = summarize(spans)
    # outer runs from tick 0 to 5, each inner call covers one tick
    assert (stats["outer"].calls, stats["outer"].total_s, stats["outer"].self_s) == (1, 5.0, 3.0)
    assert (stats["inner"].calls, stats["inner"].self_s) == (2, 2.0)


def test_tail_is_p99_only_with_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1000)]) == 989.0
    assert run.tail([float(i) for i in range(999)]) is None


def test_query_throughput_is_the_median_over_blocks():
    # one block ran while the host was three times slower
    report = {
        "blocks": 5,
        "block_s": [5.0, 5.0, 15.0, 5.0, 5.0],
        "block_cpu_s": [4.0, 4.0, 12.0, 4.0, 4.0],
        "loop_s": 35.0,
        "cpu_s": 28.0,
        "latencies": [0.001] * (5 * BLOCK_SIZE),
        "maxrss_mb": 25.0,
    }
    res = run.Result()
    run.block_metrics(res, report)
    assert res.metrics["ops_per_s"] == pytest.approx(BLOCK_SIZE / 5.0)
    assert res.metrics["cpu_s_per_op"] == pytest.approx(4.0 / BLOCK_SIZE)
    assert res.metrics["op_p50_s"] == 0.001


def _answers(stream):
    return [ops._record(ops.query(q.graph6, absindex)) for q in stream]


def test_a_wrong_alpha_raises_the_fail_rate():
    stream = [q for q in make_stream(3, 1) if q.kind == "gnp"][:20]
    results = _answers(stream)
    assert all(p == [] for p in check_queries(stream, results, seed=3))

    results[5][2] += 1  # alpha off by one
    res = run.Result()
    for i, problems in enumerate(check_queries(stream, results, seed=3)):
        res.check(f"query {i}", problems)
    assert res.failed == 1 and res.attempted == 20
    assert res.failed / res.attempted > 0


def test_a_canonical_form_that_differs_between_labelings_is_caught():
    family = [q for q in make_stream(4, 2) if q.base == "turan(10,5)"]
    assert len(family) == 2
    results = _answers(family)
    assert all(p == [] for p in check_queries(family, results, seed=4))
    form = bytearray.fromhex(results[1][7])
    form[-1] ^= 1
    results[1][7] = form.hex()
    assert check_queries(family, results, seed=4)[1] != []
