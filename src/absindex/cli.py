"""Command-line front end: compute | construct | verify | audit | lemmas.

All tables are emitted deterministically (fixed 10-decimal formatting,
fixed row order) as CSV or Markdown, so identical invocations produce
byte-identical output regardless of worker count.

Exit codes: 0 all checks passed or informational output, 1 a
verification or lemma check failed, 2 usage or input error, output that
could not be written, or a closed stdin or stdout.  Output reaches
``--out`` or stdout only on exit 0 or 1, so a usage error creates no
file and leaves an existing one as it was.  Every usage error is a
ValueError; an ``--out`` that cannot be opened, or a closed stdout, is
found before the work, and a write that fails after it (a full device,
say) is reported as one line too.  A new ``--out`` file, or a regular
one this process owns with no other hard link, is replaced only by a
complete copy, written beside it, so such a failure leaves it as it was
too; any other ``--out``, such as a device or a pipe, is written in
place, and keeps what was written before a failure.

``verify`` and ``lemmas`` take the library's one order limit,
``search.MAX_SEARCH_ORDER``: an order above it is refused before any
order is built.  ``construct`` and ``audit`` refuse an order above
``graphs.MAX_ORDER`` = 12, which no graph has, before any work.
``verify --enable-n8`` has no effect.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import shutil
import stat
import sys

from . import __version__
from .extremal import (
    CASES,
    THEOREMS,
    FormulaAudit,
    complete_split,
    double_star,
    formula_audit,
    kite,
    star,
    turan,
)
from .graphs import MAX_ORDER, Graph, decode_graph6, encode_graph6
from .index import abs_index, edge_contributions
from .invariants import GraphInvariants
from .search import (
    check_edge_additions,
    check_scalar_properties,
    class_table,
    connected_class_forms,
    verify_theorem,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _fmt(x: float) -> str:
    return f"{x:.10f}"


def _write_table(header: list[str], rows: list[list[str]], fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
    else:
        out.write("| " + " | ".join(header) + " |\n")
        out.write("|" + "|".join(" --- " for _ in header) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(row) + " |\n")


def _parse_range(text: str, what: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} range {text!r}; use N or A..B")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty {what} range {text!r}")
    if lo < 1:
        raise argparse.ArgumentTypeError(f"{what} range {text!r} starts below 1")
    return lo, hi


def _check_out(path: str) -> None:
    """Raise before the run the error that opening ``path`` to write would
    raise after it, as far as that shows without creating or truncating it."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write {path}: {os.strerror(code)}")


def _check_stdout() -> None:
    """Raise before the run the error that writing stdout would raise
    after it: stdout is closed, or its descriptor is open but not for
    writing.  A zero-byte write finds the latter (EBADF), and returns 0
    on a pipe whose reader has gone, so ``| head`` is unaffected; a stdout
    with no descriptor, as under pytest's capsys, is not probed."""
    if sys.stdout is None:  # Python found no descriptor 1 at start-up
        raise ValueError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    try:
        os.write(sys.stdout.fileno(), b"")
    except ValueError:  # io.UnsupportedOperation: no descriptor
        pass
    except OSError as exc:
        raise ValueError(f"cannot write stdout: {exc.strerror}") from None


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, else to stdout; a failed open, write,
    flush or close raises ValueError.

    A new file, or a regular file that this process owns and that has no
    other hard link, in a directory this process may write, is replaced
    only by a complete copy (``_replace_with``), so a failed write leaves
    it as it was; any other target, such as a device, a FIFO or a pipe
    named ``/dev/stdout``, is written in place.
    """
    try:
        if not path:
            sys.stdout.write(text)
            sys.stdout.flush()
        elif target := _replaceable(path):
            _replace_with(text, target)
        else:
            with open(path, "w", newline="") as out:
                out.write(text)
    except OSError as exc:
        if not path:
            _drop_stdout()
        raise ValueError(f"cannot write {path or 'stdout'}: {exc.strerror}") from None


def _replaceable(path: str) -> str | None:
    """The resolved file that ``path`` names, if a renamed copy may take
    its place: it does not exist yet, or it is a regular file with one
    link that this process owns, and its directory is writable.  Else
    None.  ``os.stat`` follows symlinks, so a ``/dev/stdout`` that is a
    pipe is found to be one."""
    try:
        info = os.stat(path)
    except FileNotFoundError:
        info = None
    if info and not (
        stat.S_ISREG(info.st_mode) and info.st_nlink == 1 and info.st_uid == os.geteuid()
    ):
        return None
    target = os.path.realpath(path)
    return target if os.access(os.path.dirname(target), os.W_OK) else None


def _replace_with(text: str, target: str) -> None:
    """Write ``text`` to a new file beside ``target``, give it the
    permission bits of ``target`` if that exists, and rename it onto
    ``target``; the new file is removed if any step fails.  It is
    created with mode 0o666, so the umask applies as to a plain open."""
    folder, name = os.path.split(target)
    temp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="") as out:
            out.write(text)
        if os.path.exists(target):
            shutil.copymode(target, temp)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device, so that what a failed
    write left in its buffer goes nowhere at exit instead of failing again."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return  # not backed by a descriptor
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def _audit_cells(a: FormulaAudit) -> list[str]:
    return [
        _fmt(a.printed_value),
        _fmt(a.direct_value),
        _fmt(a.abs_difference),
        str(a.agrees).lower(),
    ]


def _summary_rows(g: Graph) -> tuple[list[str], list[str]]:
    inv = GraphInvariants.of(g)
    header = [
        "order",
        "edges",
        "connected",
        "chromatic",
        "independence",
        "pendants",
        "abs_index",
    ]
    row = [
        str(g.order),
        str(g.edge_count),
        str(inv.connected).lower(),
        str(inv.chromatic),
        str(inv.independence),
        str(inv.pendants),
        _fmt(abs_index(g)),
    ]
    return header, row


def _emit_graph_report(g: Graph, fmt: str, out) -> None:
    header, row = _summary_rows(g)
    _write_table(header, [row], fmt, out)
    out.write("\n")
    contrib_rows = [
        [str(c.edge[0]), str(c.edge[1]), str(c.du), str(c.dv), _fmt(c.value)]
        for c in edge_contributions(g)
    ]
    _write_table(["u", "v", "deg_u", "deg_v", "value"], contrib_rows, fmt, out)


# -- subcommands ------------------------------------------------------


def _read_stdin() -> str:
    """All of stdin; a closed or unreadable one (say, opened write-only)
    raises ValueError."""
    try:
        if sys.stdin is None:  # Python found no descriptor 0 at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return sys.stdin.read()
    except OSError as exc:
        raise ValueError(f"cannot read stdin: {exc.strerror}") from None


def _cmd_compute(args, out) -> int:
    # a Graph6Error, empty input included, is a ValueError: a usage error
    g = decode_graph6(_read_stdin() if args.graph6 is None else args.graph6)
    out.write(f"graph6,{encode_graph6(g)}\n\n")
    _emit_graph_report(g, args.format, out)
    return EXIT_OK


# family: (its option x, the claim it may be the maximizer of, the graph
# and that claim's k at (n, x)).  The audit row is printed only where
# ``audit`` prints it and the claim's maximizer at (n, k) is the built
# graph: turan only at 3 <= chi <= n - 1, dstar only at m = 2, kite only
# at 1 <= p <= n - 3.  A family is given its own option only.
_FAMILIES = {
    "turan": ("chi", "T1", lambda n, x: (turan(n, x), x)),
    "split": ("alpha", "T2", lambda n, x: (complete_split(n, x), x)),
    "star": (None, "T3", lambda n, x: (star(n), n - 1)),
    "dstar": ("m", "T3", lambda n, x: (double_star(n, x), n - 2)),
    "kite": ("p", "T3", lambda n, x: (kite(n, x), x)),
}


def _refuse_above_max_order(n_lo: int, n_hi: int) -> None:
    """No graph has an order above MAX_ORDER, so none is built for one."""
    if n_hi > MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {max(n_lo, MAX_ORDER + 1)}")


def _cmd_construct(args, out) -> int:
    _refuse_above_max_order(args.n, args.n)  # before the n^2 edge lists
    option, case, build = _FAMILIES[args.family]
    for other in ("chi", "alpha", "p", "m"):
        if other != option and getattr(args, other) is not None:
            raise ValueError(f"family {args.family!r} takes no --{other}")
    x = getattr(args, option) if option else None
    x = 2 if args.family == "dstar" and x is None else x
    if option and x is None:
        raise ValueError(f"family {args.family!r} needs --{option}")
    g, k = build(args.n, x)
    out.write(f"graph6,{encode_graph6(g)}\n\n")
    _emit_graph_report(g, args.format, out)
    claim = CASES[case]
    if args.audit and k in claim.params(args.n) and claim.maximizer(args.n, k) == g:
        a = formula_audit(case, args.n, k)
        out.write("\n")
        _write_table(
            ["case", "printed", "direct", "difference", "agrees"],
            [[a.case_label, *_audit_cells(a)]],
            args.format,
            out,
        )
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    n_lo, n_hi = args.n
    if args.workers < 1:
        raise ValueError(f"--workers must be a positive integer, got '{args.workers}'")
    # the top order's records in shares, the lower orders' tables here; too high fails first
    connected_class_forms(n_hi, args.workers, build="records")
    theorems = args.theorems
    header = [
        "theorem",
        "n",
        "param",
        "class_count",
        "max_abs",
        "maximizer_graph6",
        "construction_match",
        "unique",
        "in_hypothesis",
    ]
    rows = []
    all_ok = True
    for theorem in theorems:
        for n in range(n_lo, n_hi + 1):
            for k in CASES[theorem].params(n):
                rep = verify_theorem(theorem, n, k)
                if rep.in_hypothesis and not (rep.construction_match and rep.unique):
                    all_ok = False
                rows.append([
                    theorem,
                    str(n),
                    str(k),
                    str(rep.graph_count),
                    _fmt(rep.max_value) if rep.max_value is not None else "",
                    ";".join(rep.maximizer_graph6),
                    str(rep.construction_match).lower(),
                    str(rep.unique).lower(),
                    str(rep.in_hypothesis).lower(),
                ])
    _write_table(header, rows, args.format, out)
    return EXIT_OK if all_ok else EXIT_FAILED


def _cmd_audit(args, out) -> int:
    n_lo, n_hi = args.n
    _refuse_above_max_order(n_lo, n_hi)  # so no printed bound speaks of it
    header = ["case", "n", "param", "printed", "direct", "difference", "agrees"]
    case = CASES[args.case]
    rows = []
    for n in range(n_lo, n_hi + 1):
        for k in case.params(n):
            if case.construct and case.maximizer(n, k) is None:
                continue  # no maximizer at (n, k), so no claim to audit
            a = formula_audit(args.case, n, k)
            rows.append([args.case, str(n), str(k), *_audit_cells(a)])
    _write_table(header, rows, args.format, out)
    return EXIT_OK


def _cmd_lemmas(args, out) -> int:
    n_lo, n_hi = args.n
    class_table(n_hi)  # every order of the sweep, built once; too high fails first
    checks = [
        (f"edge addition increases ABS (n={n})", check_edge_additions(n))
        for n in range(n_lo, n_hi + 1)
    ]
    checks += [(prop.name, prop) for prop in check_scalar_properties()]
    rows = [
        [
            name,
            str(c.passed).lower(),
            str(c.checks),
            _fmt(c.min_margin) if c.min_margin is not None else "",
        ]
        for name, c in checks
    ]
    _write_table(["check", "passed", "checks", "min_margin"], rows, args.format, out)
    return EXIT_OK if all(c.passed for _, c in checks) else EXIT_FAILED


# -- argument parsing -------------------------------------------------


def _theorem_list(text: str) -> list[str]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    for t in items:
        if t not in THEOREMS:
            raise argparse.ArgumentTypeError(
                f"unknown theorem {t!r}; choose from {','.join(THEOREMS)}"
            )
    if not items:
        raise argparse.ArgumentTypeError("empty theorem list")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absindex",
        description="Atom-bond sum-connectivity index: compute, construct "
        "extremal families, audit printed bounds, verify by exhaustive search.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def common(p):
        p.add_argument(
            "--format", choices=("csv", "markdown"), default="csv",
            help="table output format (default csv)",
        )
        p.add_argument("--out", default=None, help="write output to this file")

    def orders(p, default, help):
        p.add_argument(
            "--n", type=lambda s: _parse_range(s, "order"), default=default, help=help
        )

    p = command("compute", _cmd_compute, "ABS report for a graph6 graph")
    p.add_argument("graph6", nargs="?", help="graph6 text (default: stdin)")
    common(p)

    p = command("construct", _cmd_construct, "build an extremal-family graph")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("--n", type=int, required=True, help="order")
    p.add_argument("--chi", type=int, default=None, help="part count (turan)")
    p.add_argument("--alpha", type=int, default=None, help="independent-set size (split)")
    p.add_argument("--p", type=int, default=None, help="pendant count (kite)")
    p.add_argument("--m", type=int, help="internal degree (dstar, default 2)")
    p.add_argument(
        "--audit", action="store_true", help="append the printed-vs-direct audit row"
    )
    common(p)

    p = command("verify", _cmd_verify, "exhaustive extremal verification sweep")
    p.add_argument(
        "--theorems", type=_theorem_list, default=list(THEOREMS),
        help=f"comma-separated subset of {','.join(THEOREMS)} (default all)",
    )
    orders(p, (5, 7), "order range, N or A..B (default 5..7)")
    common(p)
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the class tables (default 1)",
    )
    p.add_argument(
        "--enable-n8", action="store_true",
        help="no effect; kept so that existing command lines still parse",
    )

    p = command("audit", _cmd_audit, "printed bound vs direct evaluation table")
    p.add_argument("case", choices=CASES)
    orders(p, (5, 7), "order range, N or A..B (default 5..7)")
    common(p)

    p = command("lemmas", _cmd_lemmas, "edge-addition and scalar-grid checks")
    orders(p, (4, 6), "order range for the edge-addition sweep (default 4..6)")
    common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    buffer = io.StringIO()
    try:
        if args.out:
            _check_out(args.out)
        else:
            _check_stdout()
        code = args.handler(args, buffer)
        _emit(buffer.getvalue(), args.out)
        return code
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())
