"""Command line front end.

Exit codes: 0 all applicable tests pass, 1 some obstruction fails, 2 on
usage or input errors, on output that could not be written and on any
crash.  A value that parses but lies outside a command's domain (a
``check --tol`` that is not positive and finite, as ``obstruct``
decides, a size above ``SIZE_LIMIT``, a delta below 2) is refused with a
``TripointError``, which ``main`` turns into one stderr line and exit 2.
Besides ``check``, which reports each file's error and goes on, only
``matrix`` catches one: ``NoUnitaryPhase`` is its answer, printed on stdout
with exit 1.  ``run`` is the process entry: it prints a file name that is
not valid UTF-8 as the bytes given, turns what escapes ``main`` into exit 2
and ends the process without interpreter teardown; it alone lets a large
``check`` batch fork (``tripoint.workers``), with the output and exit
status of one process.  Each command imports only what it runs: ``check``
alone loads the graph layer and ``matrix`` alone the branch matrix, so
start-up loads neither.
"""

from __future__ import annotations

import argparse
import codecs
import json
import math
import os
import sys
from typing import NoReturn

from .errors import InvalidArgument, NoUnitaryPhase, TripointError
from .obstruct import DEFAULT_TRACE_TOL, ObstructionReport, _check_tol, allowed_ratios, run_battery
from .qnum import NUMERIC_TOL, QuantumContext

#: Largest ``qnum --max``, ``ratios --n`` and ``matrix --n``; far above any
#: arm depth, and small enough to compute and print at once even at delta = 2,
#: where no [k] overflows.
SIZE_LIMIT = 10_000


#: The one JSON encoder of the process.  It refuses NaN and infinities, so
#: none reaches the output; each command rounds its own floats with ``_num``.
_encode = json.JSONEncoder(allow_nan=False).encode


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _num(x: float) -> float:
    """``x`` rounded to the 12 significant digits that the text output prints."""
    return float(_fmt(x))


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _complex_dict(z: complex) -> dict:
    return {"re": _num(z.real), "im": _num(z.imag)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripoint",
        description="Triple point obstruction checks for candidate principal graph pairs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", parents=[common], help="run the obstruction battery on graph pair files"
    )
    p_check.add_argument("files", nargs="+", metavar="FILE")
    p_check.add_argument(
        "--tol", type=float, default=DEFAULT_TRACE_TOL,
        help=f"tolerance for obstruction verdicts (default {DEFAULT_TRACE_TOL:g})",
    )
    p_check.set_defaults(handler=_cmd_check)

    p_ratios = sub.add_parser(
        "ratios", parents=[common], help="tabulate admissible dimension ratios"
    )
    p_ratios.add_argument(
        "--n", type=int, required=True, help=f"arm depth (even, >= 2, at most {SIZE_LIMIT})"
    )
    which = p_ratios.add_mutually_exclusive_group(required=True)
    which.add_argument("--delta", type=float, help="graph norm (>= 2)")
    which.add_argument("--index", type=float, help="index delta^2 (>= 4)")
    p_ratios.set_defaults(handler=_cmd_ratios)

    p_matrix = sub.add_parser(
        "matrix", parents=[common], help="print the branch matrix, phases and lambda"
    )
    p_matrix.add_argument("--n", type=int, required=True, help=f"arm depth (at most {SIZE_LIMIT})")
    p_matrix.add_argument("--delta", type=float, required=True)
    p_matrix.add_argument("--p", type=float, required=True)
    p_matrix.add_argument("--q", type=float, required=True)
    p_matrix.set_defaults(handler=_cmd_matrix)

    p_qnum = sub.add_parser("qnum", parents=[common], help="print quantum integers")
    p_qnum.add_argument("--delta", type=float, required=True)
    p_qnum.add_argument(
        "--max", dest="max_k", type=int, required=True, help=f"largest k (at most {SIZE_LIMIT})"
    )
    p_qnum.set_defaults(handler=_cmd_qnum)

    return parser


# ---------------------------------------------------------------------------
# check

def _render_report_json(path: str, report: ObstructionReport) -> str:
    return _encode({
        "file": path,
        "n": report.n,
        "delta": _num(report.delta),
        "p": _num(report.p),
        "q": _num(report.q),
        "r": _num(report.r),
        "lambda_trace": _num(report.lambda_trace),
        "verdicts": {name: v.value for name, v in report.verdicts.items()},
        "root_candidates": [
            {"k": c.k, "distance": _num(c.distance)} for c in report.root_candidates
        ],
        "tol": _num(report.tol),
    })


def _render_report_text(path: str, report: ObstructionReport) -> str:
    lines = [
        f"file: {path}",
        f"  n = {report.n}   delta = {_fmt(report.delta)}",
        f"  p = {_fmt(report.p)}   q = {_fmt(report.q)}   r = {_fmt(report.r)}",
        f"  lambda + 1/lambda = {_fmt(report.lambda_trace)}",
        "  verdicts:",
    ]
    for name, verdict in report.verdicts.items():
        lines.append(f"    {name:<18} {verdict.value}")
    lines.append("  root candidates (k, |trace - 2cos(2 pi k/n)|):")
    for cand in report.root_candidates:
        lines.append(f"    k={cand.k:<3d} {cand.distance:.3e}")
    lines.append(f"  tol = {_fmt(report.tol)}")
    return "\n".join(lines)


def _cmd_check(args: argparse.Namespace) -> int:
    from .graph import parse_pair  # here, not at start-up: no other command needs it

    _check_tol(args.tol)  # once, before any file is read
    render = _render_report_json if args.format == "json" else _render_report_text

    def check(paths: list[str]) -> int:
        """Report on each file in turn, on stdout or stderr; the status of the run."""
        status = 0
        for path in paths:
            try:
                with open(path, "rb") as fh:
                    text = fh.read().removeprefix(codecs.BOM_UTF8).decode()
                principal, dual = parse_pair(text)
                report = run_battery(principal, dual, tol=args.tol)
            except (TripointError, OSError, UnicodeDecodeError) as exc:
                status = 2
                print(f"{path}: {exc}", file=sys.stderr)
                continue
            if report.has_failure:
                status = max(status, 1)
            print(render(path, report))
        return status

    if not args.may_fork or len(args.files) == 1:
        return check(args.files)
    from .workers import check_batch  # here, not at start-up: only a batch may fork

    return check_batch(check, args.files)


def _check_limit(flag: str, value: int) -> None:
    """Raise ``InvalidArgument`` when ``value`` is above ``SIZE_LIMIT``."""
    if value > SIZE_LIMIT:
        raise InvalidArgument(f"{flag} {value} exceeds the limit of {SIZE_LIMIT}")


# ---------------------------------------------------------------------------
# ratios

def _cmd_ratios(args: argparse.Namespace) -> int:
    _check_limit("--n", args.n)
    if args.delta is not None:
        delta = args.delta
    else:
        # max() keeps a negative index out of sqrt's domain; NaN passes through
        delta = math.sqrt(max(args.index, 0.0))
    ctx = QuantumContext(delta)
    rows = allowed_ratios(ctx, args.n)
    if args.format == "json":
        table = [dict(zip(row._fields, (row.k, *map(_num, row[1:])))) for row in rows]
        print(_encode({"n": args.n, "delta": _num(ctx.delta), "rows": table}))
    else:
        print(f"admissible ratios for n = {args.n}, delta = {_fmt(ctx.delta)}")
        print(f"{'k':>3}  {'lambda_trace':>18}  {'r':>18}  {'p':>18}  {'q':>18}  {'p-q':>18}")
        for row in rows:
            values = (row.lambda_trace, row.r, row.p, row.q, row.p - row.q)
            print(f"{row.k:>3}" + "".join(f"  {_fmt(x):>18}" for x in values))
    return 0


# ---------------------------------------------------------------------------
# matrix

def _cmd_matrix(args: argparse.Namespace) -> int:
    from .branch import build_branch_matrix  # here, not at start-up: no other command needs it

    _check_limit("--n", args.n)
    ctx = QuantumContext(args.delta)
    try:
        matrix = build_branch_matrix(ctx, args.n, args.p, args.q)
    except NoUnitaryPhase:
        print("no unitary phase: p - q > 1")
        return 1
    trace = 2.0 * matrix.lam.real
    if args.format == "json":
        payload = {
            "n": args.n,
            "delta": _num(ctx.delta),
            "p": _num(args.p),
            "q": _num(args.q),
            "entries": [
                [None if z is None else _complex_dict(z) for z in row]
                for row in matrix.entries
            ],
            "sigma": _complex_dict(matrix.sigma),
            "tau": _complex_dict(matrix.tau),
            "lambda": _complex_dict(matrix.lam),
            "lambda_trace": _num(trace),
        }
        print(_encode(payload))
    else:
        print(
            f"branch matrix for n = {args.n}, delta = {_fmt(ctx.delta)},"
            f" p = {_fmt(args.p)}, q = {_fmt(args.q)}"
        )
        cells = [
            ["?" if z is None else _fmt(z.real) if abs(z.imag) <= NUMERIC_TOL else _fmt_complex(z) for z in row]
            for row in matrix.entries
        ]
        width = max(len(c) for row in cells for c in row)
        for row in cells:
            print("  [ " + "   ".join(c.ljust(width) for c in row) + " ]")
        print(f"sigma  = {_fmt_complex(matrix.sigma)}")
        print(f"tau    = {_fmt_complex(matrix.tau)}")
        print(f"lambda = {_fmt_complex(matrix.lam)}")
        print(f"lambda + 1/lambda = {_fmt(trace)}")
    return 0


# ---------------------------------------------------------------------------
# qnum

def _cmd_qnum(args: argparse.Namespace) -> int:
    _check_limit("--max", args.max_k)
    ctx = QuantumContext(args.delta)
    values = ctx.qints(args.max_k)
    if args.format == "json":
        print(_encode({"delta": _num(ctx.delta), "values": list(map(_num, values))}))
    else:
        print(" ".join(_fmt(v) for v in values))
    return 0


def main(argv: list[str] | None = None, *, may_fork: bool = False) -> int:
    """Run one command; its exit status.  It forks only with ``may_fork``, which ``run`` sets."""
    args = build_parser().parse_args(argv)
    args.may_fork = may_fork  # only check reads it
    try:
        return args.handler(args)
    except TripointError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _warn(message: str) -> None:
    """Print ``message`` on stderr, unless stderr cannot be written either."""
    try:
        if sys.stderr is not None:
            print(message, file=sys.stderr)
    except OSError:
        pass


def _unwritten(exc: OSError) -> int:
    """Exit status 2 for output that could not be written: silent when the reader has gone."""
    if not isinstance(exc, BrokenPipeError):
        _warn(f"cannot write output: {exc}")
    return 2


def run() -> NoReturn:
    """Run ``main`` as the whole process, then end it at once.

    The ``tripoint`` console script and ``python -m tripoint.cli`` both come
    here.  Nothing escapes as exit 1, which reads as an exclusion: a stdout
    pipe whose reader has gone exits 2 silently, any other failure to write
    the output exits 2 with one stderr line, and a crash exits 2 with its
    traceback; argparse keeps its own status.  A file name that is not valid
    UTF-8 prints as the bytes given, as ``ls`` prints it.  Once stdout and
    stderr are flushed, ``os._exit`` skips the teardown of every module and
    object, which would cost a short process about a tenth of its time; no
    ``atexit`` hook runs.

    ``run`` also lets a large ``check`` batch fork a worker for each further
    CPU (see ``tripoint.workers``); the output, in file order, and the exit
    status, a worker's crash included, are those of one process.  ``main``
    called without ``may_fork`` never forks.
    """
    if sys.stdout is not None:  # None when the process started with no stdout
        sys.stdout.reconfigure(errors="surrogateescape")
    try:
        status = main(may_fork=True)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        status = exc.code
    except OSError as exc:  # writing the output failed
        status = _unwritten(exc)
    except Exception:
        import traceback  # here, not at start-up: it loads tokenize

        _warn(traceback.format_exc().rstrip("\n"))
        status = 2
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        status = _unwritten(exc)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(status)


if __name__ == "__main__":
    run()
