"""absindex benchmark: end-to-end runs and a separate traced run per workload.

    python3 perfbench/run.py --workload {sweep-n8,query-mixed}
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  Every operation runs in a fresh
interpreter with ``PYTHONPATH=src``, one at a time, using at most two
cores.  Timings are taken with tracing off (``--trace 0``); ``--trace 1``
runs the same operations once untraced and once traced and reports
per-layer figures from the spans.  Every operation's output is checked
after its timed region.  Human-readable lines, each timing with its sample
count, come first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The workload and metric names
are read from BENCHMARK.json; NOTES.md explains them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_enumeration, check_queries, check_sweep
from stream import BLOCK_SIZE, make_stream
from tracing import Spans, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # per-run temporary files, removed at the end of the run
STARTED = time.perf_counter()

SETUP_PROBES = 8  # before the ops and again after them: 16 fresh interpreters per run
RUN_BUDGET_S = 170  # an op still running this long after the run began is killed
SWEEP_WORKERS = 2
SWEEP_ARGS = ["verify", "--n", "8", "--enable-n8", "--workers", str(SWEEP_WORKERS)]
QUERY_TRACE_BLOCKS = 2

POOL_NOTE = (
    "pool workers are not traced: in the sweep, enumeration of orders 4..8 runs in "
    f"{SWEEP_WORKERS} pool workers and shows only as the wall time of "
    "search.enumerate[n]; the search.enumerate.n7_s/.n8_s/.children/.yield and "
    "invariants.canonical_form.* figures come from a traced serial "
    "connected_class_forms(8, workers=1) in the same run"
)


# -- child processes ---------------------------------------------------


@dataclass
class Child:
    returncode: int | None  # None: no report from launch.py, e.g. killed at RUN_BUDGET_S
    wall_s: float
    cpu_s: float  # user + system, the op's reaped pool workers included
    maxrss_mb: float  # largest peak RSS of the op and its reaped pool workers
    stdout: bytes
    stderr: bytes


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.pop("ABSINDEX_WORKERS", None)
    return env


def run_child(args: list[str]) -> Child:
    """Run ``python3 <args>`` in the repository root through launch.py.

    The launcher leads its own process group, so a timeout kills the op and
    any pool workers with it.
    """
    report = WORK / f"launch-{os.getpid()}.json"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), str(report), "--", sys.executable, *args],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(
            timeout=max(1.0, RUN_BUDGET_S - (time.perf_counter() - STARTED)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    if proc.returncode != 0 or not report.exists():
        return Child(None, 0.0, 0.0, 0.0, out, err)
    r = json.loads(report.read_text())
    report.unlink()
    return Child(r["returncode"], r["wall_s"], r["cpu_s"], r["maxrss_kb"] / 1024, out, err)


# -- statistics --------------------------------------------------------


def tail(samples: list[float]) -> float | None:
    """p99 (nearest rank), if at least 10 samples lie beyond it."""
    s = sorted(samples)
    if len(s) < 1000:
        return None
    return s[math.ceil(0.99 * len(s)) - 1]


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)  # metric, "tail", "spans" or "pool" -> text
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_walls: list[float] = field(default_factory=list)

    def set(self, name: str, value: float, note: str = "") -> None:
        self.metrics[name] = value
        if note:
            self.notes[name] = note

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


def probe_setup(res: Result, stream: Path | None = None) -> None:
    """Time SETUP_PROBES fresh interpreters that import absindex (and read
    the query stream) and exit; ``setup_s`` is the median of all probes."""
    code = "import absindex, absindex.cli"
    if stream is not None:
        code += f"; open({str(stream)!r}).read().split()"
    for _ in range(SETUP_PROBES):
        c = run_child(["-c", code])
        if c.returncode != 0:
            res.problems.append(f"setup probe: exit {c.returncode}: {c.stderr[-300:]!r}")
        res.setup_walls.append(c.wall_s)
    res.set("setup_s", statistics.median(res.setup_walls),
            f"median of {len(res.setup_walls)} fresh interpreters")


def op_metrics(res: Result, walls: list[float], timed_s: float, cpu_s: float,
               peak_mb: float, what: str) -> None:
    n = len(walls)
    res.set("op_p50_s", statistics.median(walls), f"median of {n} {what}")
    res.set("ops_per_s", n / timed_s if timed_s else 0.0, f"{n} {what} / {timed_s:.3f} s")
    res.set("cpu_s_per_op", cpu_s / n, f"{cpu_s:.3f} s CPU / {n} {what}")
    res.set("peak_rss_mb", peak_mb, "largest single process of any op")


# -- workloads: end to end ---------------------------------------------


def _process_ops(args, op: list[str]) -> list[Child]:
    """Fresh-process ops, one after another, until ``--seconds`` have passed."""
    done: list[Child] = []
    t0 = time.perf_counter()
    while not done or time.perf_counter() - t0 < args.seconds:
        done.append(run_child(op))
    return done


def _enum_report(c: Child) -> tuple[dict, list[str]]:
    if c.returncode != 0:
        return {}, [f"exit code {c.returncode}: {c.stderr[-300:]!r}"]
    report = json.loads(c.stdout)
    return report, check_enumeration(report)


def sweep_e2e(args) -> Result:
    res = Result()
    probe_setup(res)
    ops = _process_ops(args, ["-m", "absindex", *SWEEP_ARGS])
    probe_setup(res)
    for i, c in enumerate(ops):
        res.check(f"sweep op {i}", check_sweep(c.returncode, c.stdout))
    walls = [c.wall_s for c in ops]
    op_metrics(res, walls, sum(walls), sum(c.cpu_s for c in ops),
               max(c.maxrss_mb for c in ops), "sweeps")
    return res


def _write_stream(seed: int, blocks: int):
    stream = make_stream(seed, blocks)
    path = WORK / f"stream-{os.getpid()}.g6"
    path.write_text("".join(q.graph6 + "\n" for q in stream))
    return stream, path


def _query_op(res: Result, stream, path, seed, seconds,
              max_blocks=None, trace=None) -> dict | None:
    out = WORK / f"results-{os.getpid()}.json"
    cmd = [str(HERE / "ops.py"), "query", "--stream", str(path),
           "--block-size", str(BLOCK_SIZE), "--seconds", str(seconds), "--out", str(out)]
    if max_blocks is not None:
        cmd += ["--max-blocks", str(max_blocks)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    c = run_child(cmd)
    if c.returncode != 0:
        res.check("query op", [f"exit code {c.returncode}: {c.stderr[-300:]!r}"])
        return None
    report = json.loads(out.read_text())
    out.unlink()
    report["maxrss_mb"] = c.maxrss_mb
    n = len(report["results"])
    for i, problems in enumerate(check_queries(stream[:n], report["results"], seed)):
        res.check(f"query {i} ({stream[i].base})", problems)
    return report


def block_metrics(res: Result, report: dict) -> None:
    """End-to-end figures of one query-mixed op.

    Every block has the same composition, so throughput and CPU per query
    are taken per block and the median over blocks is reported.  A mean
    over the whole loop would follow the few seconds in which this shared
    host ran fast or slow (NOTES.md); the median follows most of the run.
    """
    n = len(report["latencies"])
    nb = report["blocks"]
    rates = [BLOCK_SIZE / s for s in report["block_s"]]
    cpus = [c / BLOCK_SIZE for c in report["block_cpu_s"]]
    res.set("op_p50_s", statistics.median(report["latencies"]),
            f"median of {n} queries in {nb} blocks")
    p99 = tail(report["latencies"])
    if p99 is not None:
        res.notes["tail"] = f"op_p99_s = {p99:.6g} s  (p99 of {n} queries; printed, not gated)"
    res.set("ops_per_s", statistics.median(rates),
            f"median of {nb} blocks of {BLOCK_SIZE} queries; "
            f"whole loop {n} / {report['loop_s']:.3f} s = {n / report['loop_s']:.6g}")
    res.set("cpu_s_per_op", statistics.median(cpus),
            f"median of {nb} blocks; whole loop {report['cpu_s']:.3f} s CPU / {n} queries")
    res.set("peak_rss_mb", report["maxrss_mb"], "the op process")


def query_e2e(args) -> Result:
    res = Result()
    # one block per second of run: room for the program to become ~5x faster
    stream, path = _write_stream(args.seed, max(2, math.ceil(args.seconds)))
    probe_setup(res, path)
    report = _query_op(res, stream, path, args.seed, args.seconds)
    probe_setup(res, path)
    if report is not None:
        block_metrics(res, report)
    return res


# -- workloads: traced -------------------------------------------------


def load_spans(path: Path):
    spans = Spans.load(path)
    path.unlink()
    return spans


def layer_metrics(res: Result, spans) -> None:
    """Per-layer figures from one traced operation's spans."""
    stats = summarize(spans)

    def calls(name):
        return stats[name].calls if name in stats else 0

    def self_s(name):
        return stats[name].self_s if name in stats else 0.0

    def total_s(name):
        return stats[name].total_s if name in stats else 0.0

    # an order's step is its enumerate span minus the nested lower-order one
    names = spans.names
    step: dict[str, float] = {}
    children: dict[str, int] = {}
    for i, nid in enumerate(spans.name_id):
        name = names[nid]
        p = spans.parent[i]
        pname = names[spans.name_id[p]] if p >= 0 else ""
        if name.startswith("search.enumerate["):
            step[name] = step.get(name, 0.0) + spans.duration(i)
            if pname.startswith("search.enumerate["):
                step[pname] = step.get(pname, 0.0) - spans.duration(i)
        elif name == "invariants.canonical_form" and pname.startswith("search.enumerate["):
            children[pname] = children.get(pname, 0) + 1
    classes8 = spans.counts.get("classes.n8", 0)
    children8 = children.get("search.enumerate[8]", 0)
    of_calls = calls("invariants.of")
    inputs = classes8 or spans.counts.get("inputs", 0)
    cf_calls = calls("invariants.canonical_form")

    res.set("search.enumerate.n7_s", step.get("search.enumerate[7]", 0.0))
    res.set("search.enumerate.n8_s", step.get("search.enumerate[8]", 0.0))
    res.set("search.enumerate.children", sum(children.values()),
            "canonical forms under enumeration, this process only")
    res.set("search.enumerate.yield", classes8 / children8 if children8 else 0.0,
            f"{classes8} classes / {children8} order-8 children")
    res.set("search.maximize.calls", calls("search.maximize"))
    res.set("search.maximize.self_s", self_s("search.maximize"))
    res.set("search.verify.s", total_s("search.verify"))
    res.set("invariants.canonical_form.calls", cf_calls)
    res.set("invariants.canonical_form.self_s", self_s("invariants.canonical_form"))
    res.set("invariants.canonical_form.us_per_call",
            1e6 * total_s("invariants.canonical_form") / cf_calls if cf_calls else 0.0)
    res.set("invariants.of.calls", of_calls)
    res.set("invariants.reuse", inputs / of_calls if of_calls else 0.0,
            f"{inputs} classes or queries / {of_calls} GraphInvariants.of calls")
    res.set("invariants.chromatic.self_s", self_s("invariants.chromatic"))
    res.set("invariants.independence.self_s", self_s("invariants.independence"))
    res.set("invariants.from_form.calls", calls("invariants.from_form"))
    res.set("invariants.from_form.self_s", self_s("invariants.from_form"))
    res.set("graphs.graph_init.calls", calls("graphs.graph_init"))
    res.set("graphs.graph_init.self_s", self_s("graphs.graph_init"))
    res.set("graphs.decode_graph6.self_s", self_s("graphs.decode_graph6"))
    res.set("index.abs_index.calls", calls("index.abs_index"))
    res.set("index.abs_index.self_s", self_s("index.abs_index"))
    res.set("index.edge_contributions.self_s", self_s("index.edge_contributions"))
    res.set("extremal.construct.calls", calls("extremal.construct"))
    res.set("extremal.construct.self_s", self_s("extremal.construct"))
    res.set("cli.main.s", total_s("cli.main"))
    res.set("cli.table.s", total_s("cli.table"))
    res.set("search.enumerate.scaling_eff", 0.0)  # sweep_traced sets the real value
    res.notes["spans"] = f"{len(spans.start)} spans"


# Figures that sweep_traced takes from the traced serial enumeration,
# because the sweep enumerates in untraced pool workers.
SERIAL_ENUM_METRICS = (
    "search.enumerate.n7_s", "search.enumerate.n8_s", "search.enumerate.children",
    "search.enumerate.yield", "invariants.canonical_form.calls",
    "invariants.canonical_form.self_s", "invariants.canonical_form.us_per_call",
)


def sweep_traced(args) -> Result:
    res = Result()
    plain = run_child(["-m", "absindex", *SWEEP_ARGS])
    res.check("untraced sweep op", check_sweep(plain.returncode, plain.stdout))
    trace = WORK / f"spans-{os.getpid()}.bin"
    traced = run_child([str(HERE / "ops.py"), "cli", "--trace", str(trace), "--", *SWEEP_ARGS])
    res.check("traced sweep op", check_sweep(traced.returncode, traced.stdout))
    serial = run_child([str(HERE / "ops.py"), "enumerate"])
    serial_report, problems = _enum_report(serial)
    res.check("serial enumerate op", problems)
    enum_trace = WORK / f"enum-spans-{os.getpid()}.bin"
    serial_traced = run_child([str(HERE / "ops.py"), "enumerate", "--trace", str(enum_trace)])
    res.check("traced serial enumerate op", _enum_report(serial_traced)[1])
    if not res.failed:
        spans = load_spans(trace)
        outer = [i for i, nid in enumerate(spans.name_id)
                 if spans.names[nid] == "search.enumerate[8]"]
        parallel_s = spans.duration(outer[0])  # the first call enumerates; later ones hit the cache
        serial_res = Result()
        layer_metrics(serial_res, load_spans(enum_trace))
        layer_metrics(res, spans)
        for name in SERIAL_ENUM_METRICS:
            note = serial_res.notes.get(name)
            res.set(name, serial_res.metrics[name],
                    f"serial enumeration: {note}" if note else "serial enumeration")
        res.set("search.enumerate.scaling_eff",
                serial_report["call_s"] / (SWEEP_WORKERS * parallel_s),
                f"{serial_report['call_s']:.3f} s serial / ({SWEEP_WORKERS} x "
                f"{parallel_s:.3f} s with {SWEEP_WORKERS} workers)")
        res.set("trace.overhead", traced.wall_s / plain.wall_s,
                f"{traced.wall_s:.3f} s traced / {plain.wall_s:.3f} s untraced sweep")
        res.notes["pool"] = POOL_NOTE
    return res


def query_traced(args) -> Result:
    res = Result()
    stream, path = _write_stream(args.seed, QUERY_TRACE_BLOCKS)
    plain = _query_op(res, stream, path, args.seed, math.inf, QUERY_TRACE_BLOCKS)
    trace = WORK / f"spans-{os.getpid()}.bin"
    traced = _query_op(res, stream, path, args.seed, math.inf, QUERY_TRACE_BLOCKS, trace)
    if plain is not None and traced is not None:
        layer_metrics(res, load_spans(trace))
        res.set("trace.overhead", traced["loop_s"] / plain["loop_s"],
                f"{traced['loop_s']:.3f} s traced / {plain['loop_s']:.3f} s untraced, "
                f"{len(plain['latencies'])} queries each")
    return res


RUNNERS = {
    ("sweep-n8", 0): sweep_e2e,
    ("query-mixed", 0): query_e2e,
    ("sweep-n8", 1): sweep_traced,
    ("query-mixed", 1): query_traced,
}


# -- stamp and output --------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_sha256() -> str:
    """Digest of the source tree, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a gauge of how fast this
    host ran while the run was made, printed beside the results."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "workers": SWEEP_WORKERS if args.workload == "sweep-n8" else 1,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "absindex" / "__init__.py").is_file():
        print(f"perfbench: no absindex package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # check_queries recomputes with absindex
    WORK.mkdir(exist_ok=True)

    print("# stamp " + json.dumps(stamp(args)), flush=True)
    gauge_before = host_loop_ms()
    try:
        res = RUNNERS[(args.workload, args.trace)](args)
    finally:
        for f in WORK.glob(f"*-{os.getpid()}.*"):
            f.unlink()

    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = [name for name in wanted if name not in res.metrics]
    for p in res.problems:
        print(f"FAILED {p}", file=sys.stderr)
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    for name, unit in wanted.items():
        note = res.notes.get(name)
        print(f"{name} = {res.metrics[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"# host loop_ms before={gauge_before:.1f} after={host_loop_ms():.1f}")
    for key in ("tail", "spans", "pool"):
        if key in res.notes:
            print(f"# {key}: {res.notes[key]}")
    rate = res.failed / res.attempted if res.attempted else 1.0
    print(f"fail_rate = {rate:.6g} ratio  ({res.failed} failed / {res.attempted} attempted)")
    print(json.dumps({
        "correct": res.attempted > 0 and res.failed == 0 and not res.problems,
        "attempted": max(res.attempted, 1),
        "failed": res.failed if res.attempted else 1,
        "metrics": {name: {"value": res.metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
