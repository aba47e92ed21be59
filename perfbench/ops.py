"""The benchmark's operations, each run in a fresh interpreter.

    python3 perfbench/ops.py enumerate [--trace FILE]
    python3 perfbench/ops.py query --stream FILE --block-size K --seconds S
        --out FILE [--max-blocks B] [--trace FILE]
    python3 perfbench/ops.py cli [--trace FILE] -- ARGS...

``absindex`` must be importable (``PYTHONPATH=src``).  With ``--trace``
the public functions are wrapped before the operation and the spans are
written to FILE when it ends.  Results go to stdout (``enumerate``) or to
``--out`` (``query``) and are checked by ``run.py``, not here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import threading
import time

from tracing import Tracer, instrument


def _rotate_cpus(interval_s: float = 1.0) -> None:
    """Move this process's main thread to the next allowed core every
    ``interval_s`` seconds, from a daemon thread.

    A single-threaded op otherwise stays on whichever core the scheduler
    picked.  On a shared virtual machine whose cores slow down
    independently, its time then depends on that pick; rotating spreads
    each op evenly over the cores the benchmark may use.  Not used for
    the sweep, whose pool workers would inherit a one-core mask.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    main_thread = threading.get_native_id()

    def rotate() -> None:
        i = 0
        while True:
            os.sched_setaffinity(main_thread, {cpus[i % len(cpus)]})
            i += 1
            time.sleep(interval_s)

    threading.Thread(target=rotate, daemon=True).start()


def _read_stream(path: str) -> list[str]:
    with open(path) as src:
        return src.read().split()


def _start_tracer(path: str | None) -> Tracer | None:
    if path is None:
        return None
    tracer = Tracer()
    instrument(tracer)
    return tracer


def cmd_enumerate(args) -> int:
    _rotate_cpus()
    tracer = _start_tracer(args.trace)
    from absindex import search

    t0 = time.perf_counter()
    forms = search.connected_class_forms(8, workers=1)
    call_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
        tracer.counts["classes.n8"] = len(forms)
        tracer.dump(args.trace)
    # orders below 8 are cached by the call above
    counts = [len(search.connected_class_forms(k)) for k in range(1, 9)]
    digest = hashlib.sha256(b"".join(forms)).hexdigest()
    print(json.dumps({"call_s": call_s, "counts": counts, "digest": digest}))
    return 0


def query(g6: str, absindex):
    """One query: decode, invariants, ABS value, edge terms, canonical form."""
    g = absindex.decode_graph6(g6)
    return (
        absindex.GraphInvariants.of(g),
        absindex.abs_index(g),
        absindex.edge_contributions(g),
        absindex.canonical_form(g),
    )


def _record(answer) -> list:
    inv, value, terms, form = answer
    return [
        inv.connected,
        inv.chromatic,
        inv.independence,
        inv.pendants,
        value,
        math.fsum(c.value for c in terms),
        len(terms),
        form.hex(),
    ]


def cmd_query(args) -> int:
    _rotate_cpus()
    tracer = _start_tracer(args.trace)
    import absindex

    stream = _read_stream(args.stream)
    k = args.block_size
    blocks = len(stream) // k
    if args.max_blocks is not None:
        blocks = min(blocks, args.max_blocks)
    latencies: list[float] = []
    results: list[list] = []
    block_s: list[float] = []
    block_cpu_s: list[float] = []
    clock = time.perf_counter
    cpu0 = time.process_time()
    t0 = clock()
    done = 0
    while done < blocks:
        b_cpu0 = time.process_time()
        b0 = clock()
        for g6 in stream[done * k:(done + 1) * k]:
            q0 = clock()
            answer = query(g6, absindex)
            latencies.append(clock() - q0)
            results.append(_record(answer))
        block_s.append(clock() - b0)
        block_cpu_s.append(time.process_time() - b_cpu0)
        done += 1
        if clock() - t0 >= args.seconds:
            break
    loop_s = clock() - t0
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.enabled = False
        tracer.counts["inputs"] = len(results)
        tracer.dump(args.trace)
    with open(args.out, "w") as out:
        json.dump(
            {
                "blocks": done,
                "loop_s": loop_s,
                "cpu_s": cpu_s,
                "block_s": block_s,
                "block_cpu_s": block_cpu_s,
                "latencies": latencies,
                "results": results,
            },
            out,
        )
    return 0


def cmd_cli(args) -> int:
    tracer = _start_tracer(args.trace)
    from absindex import cli

    code = cli.main(args.argv)
    sys.stdout.flush()
    if tracer is not None:
        tracer.enabled = False
        if code == 0:
            from absindex import search

            # cached by the sweep, so this only reads the class count
            tracer.counts["classes.n8"] = len(search.connected_class_forms(8))
        tracer.dump(args.trace)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ops.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("enumerate")
    p.add_argument("--trace")
    p = sub.add_parser("query")
    p.add_argument("--stream", required=True)
    p.add_argument("--block-size", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--max-blocks", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p = sub.add_parser("cli")
    p.add_argument("--trace")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    handler = {"enumerate": cmd_enumerate, "query": cmd_query, "cli": cmd_cli}[args.mode]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
