"""The 3x3 branch matrix at the initial triple point and its rotational eigenvalue.

With a 1-valent vertex on the dual side, normalization and unitarity pin down
seven of the nine entries of the branch matrix at the branch vertex, up to two
unknown phases sigma and tau.  In the canonical gauge (positive first row and
column) the matrix acts on the coefficient vector (0, sqrt(q), -sqrt(p)) of
the one-dimensional complement of the trivial part of the n-box space, and
the middle coordinate of the image exposes the rotational eigenvalue lambda.
Im(tau) is taken >= 0: the other root conjugates lambda and leaves
lambda + 1/lambda, the only value the battery reads, unchanged.

``build_branch_matrix`` checks p + q = [n+1] before it solves for the
phases, so an inconsistent request is an input error and never reads as
"no unitary phase".  It is the engine of ``tripoint matrix``, whose
handler ``_cmd_matrix`` lives here too: ``cli`` loads this module only for
that command, and no other command needs either.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .common import _check_size, _fmt, _json
from .errors import InvalidArgument, NoUnitaryPhase, UnsupportedIndex
from .qnum import NUMERIC_TOL, QuantumContext

if TYPE_CHECKING:
    import argparse

Entries = tuple[tuple[complex | None, ...], ...]


class BranchMatrix(NamedTuple):
    """Known entries of the branch matrix in the positive gauge, and its lambda.

    ``entries`` is row-major with ``None`` for the two entries that play no
    role; the first row and column are real and strictly positive.  sigma and
    tau are unit phases with 1 + sigma*p + tau*q = 0, and ``lam`` is the
    rotational eigenvalue (sigma - tau)^2 * p*q / ([n][n+2]), of modulus 1
    since p + q = [n+1].
    """

    sigma: complex
    tau: complex
    entries: Entries
    lam: complex


def _solve_phases(p: float, q: float) -> tuple[complex, complex]:
    """Solve 1 + sigma*p + tau*q = 0 for unit phases sigma and tau, given 0 < q <= p.

    Unitarity forces Re(tau) = ((p - q)(p + q) - 1)/(2q); the phase exists
    exactly when that value lies in [-1, 1].  The factored form keeps the
    digits of p - q that p^2 - q^2 would cancel away for large, close p and q.
    Values within NUMERIC_TOL of the boundary snap onto it from either side:
    sqrt(1 - Re^2) has unbounded slope at +-1, so rounding-level undershoot
    would otherwise smear the meaningful boundary case p - q = 1 into a
    spurious imaginary part of order 1e-7.  sigma = -(1 + tau*q)/p then has
    modulus 1 by that choice of Re(tau).
    """
    re_tau = ((p - q) * (p + q) - 1.0) / (2.0 * q)
    if not math.isfinite(re_tau):
        raise UnsupportedIndex(f"p^2 - q^2 overflows double precision at p = {p!r}, q = {q!r}")
    if abs(re_tau) > 1.0 + NUMERIC_TOL:
        raise NoUnitaryPhase(
            f"|Re tau| = {abs(re_tau)!r} exceeds 1: no unitary phase exists (p - q > 1)"
        )
    if abs(re_tau) > 1.0 - NUMERIC_TOL:
        re_tau = math.copysign(1.0, re_tau)
    tau = complex(re_tau, math.sqrt(1.0 - re_tau * re_tau))
    sigma = -(1.0 + tau * q) / p
    return sigma, tau


def build_branch_matrix(ctx: QuantumContext, n: int, p: float, q: float) -> BranchMatrix:
    """The seven known entries of the branch matrix, its phases and its lambda.

    The request is checked first, in input order: n >= 2, then
    0 < q <= p < inf, then p + q = [n+1] (``QuantumContext.
    check_dimension_sum``).  Only then are the phases solved, so
    ``NoUnitaryPhase`` means p - q > 1 on a consistent request.
    """
    if n < 2:
        raise InvalidArgument(f"n = {n} must be >= 2")
    if not 0 < q <= p < math.inf:
        raise InvalidArgument("dimensions must be finite and satisfy p >= q > 0")
    ctx.check_dimension_sum(n, p, q)
    sigma, tau = _solve_phases(p, q)
    qn_minus, qn, _, qn_plus2 = ctx.qints(n + 2)[n - 1 :]
    dn = ctx.delta * qn
    # the third-row entry would come out 0 or NaN; with p + q = [n+1] every
    # first-row product [n-1]p is below delta [n]^2, so it stays finite too
    if math.isinf(dn * qn):
        raise UnsupportedIndex(f"branch matrix entries for n = {n} overflow double precision")
    entries: Entries = (
        (
            complex(1.0 / qn),
            complex(math.sqrt(qn_minus * p)),
            complex(math.sqrt(qn_minus * q)),
        ),
        (
            complex(math.sqrt(qn_minus / dn)),
            sigma * math.sqrt(p / dn),
            tau * math.sqrt(q / dn),
        ),
        (complex(math.sqrt(qn_minus * qn_plus2 / (dn * qn))), None, None),
    )
    lam = (sigma - tau) ** 2 * (p * q) / (qn * qn_plus2)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise UnsupportedIndex(f"lambda for n = {n} overflows double precision")
    return BranchMatrix(sigma, tau, entries, lam)


# ---------------------------------------------------------------------------
# the ``matrix`` command

def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _cmd_matrix(args: argparse.Namespace) -> int:
    _check_size("--n", args.n, 2)
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
            "delta": ctx.delta,
            "p": args.p,
            "q": args.q,
            "entries": [
                [None if z is None else _complex_dict(z) for z in row]
                for row in matrix.entries
            ],
            "sigma": _complex_dict(matrix.sigma),
            "tau": _complex_dict(matrix.tau),
            "lambda": _complex_dict(matrix.lam),
            "lambda_trace": trace,
        }
        print(_json(payload))
    else:
        print(
            f"branch matrix for n = {args.n}, delta = {_fmt(ctx.delta)},"
            f" p = {_fmt(args.p)}, q = {_fmt(args.q)}"
        )
        cells = [
            ["?" if z is None else _fmt(z.real) if z.imag == 0 else _fmt_complex(z) for z in row]
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
