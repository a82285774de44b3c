"""Command line front end.

Exit codes: 0 all applicable tests pass, 1 some obstruction fails, 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .branch import build_branch_matrix, extract_lambda
from .errors import NoUnitaryPhase, TripointError
from .graph import parse_pair
from .obstruct import DEFAULT_TRACE_TOL, ObstructionReport, allowed_ratios, run_battery
from .qnum import NUMERIC_TOL, nu_from_delta

#: Largest ``qnum --max``, ``ratios --n`` and ``matrix --n``; far above any
#: arm depth, and small enough to compute and print at once even at delta = 2,
#: where no [k] overflows.
SIZE_LIMIT = 10_000


def _json(payload: dict) -> str:
    """JSON text of ``payload`` with every float rounded to 12 significant digits."""

    def rounded(value):
        if isinstance(value, float):
            return float(f"{value:.12g}")
        if isinstance(value, dict):
            return {key: rounded(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [rounded(item) for item in value]
        return value

    return json.dumps(rounded(payload), allow_nan=False)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


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

    p_ratios = sub.add_parser(
        "ratios", parents=[common], help="tabulate admissible dimension ratios"
    )
    p_ratios.add_argument(
        "--n", type=int, required=True, help=f"arm depth (even, >= 2, at most {SIZE_LIMIT})"
    )
    which = p_ratios.add_mutually_exclusive_group(required=True)
    which.add_argument("--delta", type=float, help="graph norm (>= 2)")
    which.add_argument("--index", type=float, help="index delta^2 (>= 4)")

    p_matrix = sub.add_parser(
        "matrix", parents=[common], help="print the branch matrix, phases and lambda"
    )
    p_matrix.add_argument("--n", type=int, required=True, help=f"arm depth (at most {SIZE_LIMIT})")
    p_matrix.add_argument("--delta", type=float, required=True)
    p_matrix.add_argument("--p", type=float, required=True)
    p_matrix.add_argument("--q", type=float, required=True)

    p_qnum = sub.add_parser("qnum", parents=[common], help="print quantum integers")
    p_qnum.add_argument("--delta", type=float, required=True)
    p_qnum.add_argument(
        "--max", dest="max_k", type=int, required=True, help=f"largest k (at most {SIZE_LIMIT})"
    )

    return parser


# ---------------------------------------------------------------------------
# check

def _check_one(path: str, tol: float) -> ObstructionReport:
    principal, dual = parse_pair(Path(path).read_text(encoding="utf-8"))
    return run_battery(principal, dual, tol=tol)


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
    had_error = False
    had_failure = False
    for path in args.files:
        try:
            report = _check_one(path, args.tol)
        except (TripointError, OSError, UnicodeDecodeError) as exc:
            had_error = True
            print(f"{path}: {exc}", file=sys.stderr)
            continue
        had_failure = had_failure or report.has_failure
        if args.format == "json":
            print(_json({"file": path, **report.as_dict()}))
        else:
            print(_render_report_text(path, report))
    if had_error:
        return 2
    return 1 if had_failure else 0


def _exceeds_limit(flag: str, value: int) -> bool:
    """Report on stderr, and return True, when ``value`` is above ``SIZE_LIMIT``."""
    if value <= SIZE_LIMIT:
        return False
    print(f"{flag} {value} exceeds the limit of {SIZE_LIMIT}", file=sys.stderr)
    return True


# ---------------------------------------------------------------------------
# ratios

def _cmd_ratios(args: argparse.Namespace) -> int:
    if _exceeds_limit("--n", args.n):
        return 2
    if args.delta is not None:
        delta = args.delta
    else:
        if args.index < 4:
            print(f"index = {args.index} must be >= 4", file=sys.stderr)
            return 2
        delta = math.sqrt(args.index)
    try:
        ctx = nu_from_delta(delta)
        rows = allowed_ratios(ctx, args.n)
    except TripointError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.format == "json":
        print(_json({"n": args.n, "delta": ctx.delta, "rows": [r._asdict() for r in rows]}))
    else:
        print(f"admissible ratios for n = {args.n}, delta = {_fmt(ctx.delta)}")
        print(f"{'k':>3}  {'lambda_trace':>18}  {'r':>18}  {'p':>18}  {'q':>18}  {'p-q':>18}")
        for row in rows:
            print(
                f"{row.k:>3}  {row.lambda_trace:>18.12g}  {row.r:>18.12g}"
                f"  {row.p:>18.12g}  {row.q:>18.12g}  {row.p - row.q:>18.12g}"
            )
    return 0


# ---------------------------------------------------------------------------
# matrix

def _cmd_matrix(args: argparse.Namespace) -> int:
    if _exceeds_limit("--n", args.n):
        return 2
    try:
        ctx = nu_from_delta(args.delta)
        matrix = build_branch_matrix(ctx, args.n, args.p, args.q)
        lam = extract_lambda(matrix)
    except NoUnitaryPhase:
        print("no unitary phase: p - q > 1")
        return 1
    except TripointError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    trace = 2.0 * lam.real
    if args.format == "json":
        payload = {
            "n": args.n,
            "delta": ctx.delta,
            "p": args.p,
            "q": args.q,
            "entries": [
                [None if z is None else _complex_dict(z) for z in row]
                for row in matrix.entries
            ],
            "sigma": _complex_dict(matrix.sigma),
            "tau": _complex_dict(matrix.tau),
            "lambda": _complex_dict(lam),
            "lambda_trace": trace,
        }
        print(_json(payload))
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
        print(f"lambda = {_fmt_complex(lam)}")
        print(f"lambda + 1/lambda = {_fmt(trace)}")
    return 0


# ---------------------------------------------------------------------------
# qnum

def _cmd_qnum(args: argparse.Namespace) -> int:
    if _exceeds_limit("--max", args.max_k):
        return 2
    try:
        ctx = nu_from_delta(args.delta)
        values = ctx.qints(args.max_k)
    except TripointError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        print(_json({"delta": ctx.delta, "values": values}))
    else:
        print(" ".join(_fmt(v) for v in values))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and not 0 < args.tol < math.inf:
        parser.error("--tol must be positive and finite")
    handlers = {
        "check": _cmd_check,
        "ratios": _cmd_ratios,
        "matrix": _cmd_matrix,
        "qnum": _cmd_qnum,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
