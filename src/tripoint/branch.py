"""The 3x3 branch matrix at the initial triple point and its rotational eigenvalue.

With a 1-valent vertex on the dual side, normalization and unitarity pin down
seven of the nine entries of the branch matrix at the branch vertex, up to two
unknown phases sigma and tau.  In the canonical gauge (positive first row and
column) the matrix acts on the coefficient vector (0, sqrt(q), -sqrt(p)) of
the one-dimensional complement of the trivial part of the n-box space, and
the middle coordinate of the image exposes the rotational eigenvalue lambda.
Im(tau) is taken >= 0: the other root conjugates lambda and leaves
lambda + 1/lambda, the only value the battery reads, unchanged.
"""

from __future__ import annotations

import math

from .errors import InvalidArgument, NoUnitaryPhase, UnsupportedIndex
from .qnum import NUMERIC_TOL, Frozen, QuantumContext

Entries = tuple[tuple[complex | None, ...], ...]


class BranchMatrix(Frozen):
    """Known entries of the branch matrix in the positive gauge.

    ``entries`` is row-major with ``None`` for the two entries that play no
    role; the first row and column are real and strictly positive.
    """

    _fields = ("n", "ctx", "p", "q", "sigma", "tau", "entries")
    n: int
    ctx: QuantumContext
    p: float
    q: float
    sigma: complex
    tau: complex
    entries: Entries

    def __init__(
        self,
        n: int,
        ctx: QuantumContext,
        p: float,
        q: float,
        sigma: complex,
        tau: complex,
        entries: Entries,
    ) -> None:
        tol = NUMERIC_TOL
        if abs(abs(sigma) - 1.0) > tol or abs(abs(tau) - 1.0) > tol:
            raise InvalidArgument("sigma and tau must be unit phases")
        if abs(1.0 + sigma * p + tau * q) > tol * (1.0 + p + q):
            raise InvalidArgument("phases do not satisfy 1 + sigma*p + tau*q = 0")
        for i in range(3):
            for entry in (entries[0][i], entries[i][0]):
                if entry is None or abs(entry.imag) > tol or entry.real <= 0:
                    raise InvalidArgument("first row and column must be positive reals")
        self._freeze(n, ctx, p, q, sigma, tau, entries)


def solve_phases(p: float, q: float) -> tuple[complex, complex]:
    """Solve 1 + sigma*p + tau*q = 0 for unit phases sigma and tau.

    Unitarity forces Re(tau) = ((p - q)(p + q) - 1)/(2q); the phase exists
    exactly when that value lies in [-1, 1].  The factored form keeps the
    digits of p - q that p^2 - q^2 would cancel away for large, close p and q.
    Values within NUMERIC_TOL of the boundary snap onto it from either side:
    sqrt(1 - Re^2) has unbounded slope at +-1, so rounding-level undershoot
    would otherwise smear the meaningful boundary case p - q = 1 into a
    spurious imaginary part of order 1e-7.
    """
    if not 0 < q <= p < math.inf:
        raise InvalidArgument("dimensions must be finite and satisfy p >= q > 0")
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
    """Populate the seven known entries of the branch matrix."""
    if n < 2:
        raise InvalidArgument(f"n = {n} must be >= 2")
    sigma, tau = solve_phases(p, q)
    qn_minus, qn, _, qn_plus2 = ctx.qints(n + 2)[n - 1 :]
    dn = ctx.delta * qn
    # the third-row entry would come out 0 or NaN, or a first-row one
    # infinite: the phase solve accepts any finite p >= q
    if math.isinf(dn * qn) or math.isinf(qn_minus * p):
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
    return BranchMatrix(n=n, ctx=ctx, p=p, q=q, sigma=sigma, tau=tau, entries=entries)


def apply_to_perp_vector(u: BranchMatrix) -> tuple[complex, complex, None]:
    """Image of (0, sqrt(q), -sqrt(p)) under the known entries of the matrix.

    The first coordinate vanishes identically; the third depends on the
    unknown entries and is reported as ``None``.
    """
    sq = math.sqrt(u.q)
    sp = math.sqrt(u.p)
    c1 = u.entries[0][1] * sq - u.entries[0][2] * sp
    c2 = u.entries[1][1] * sq - u.entries[1][2] * sp
    return c1, c2, None


def extract_lambda(u: BranchMatrix) -> complex:
    """Rotational eigenvalue lambda = (sigma - tau)^2 * p*q / ([n][n+2]).

    Requires p + q = [n+1] (see ``QuantumContext.check_dimension_sum``);
    that constraint is what makes |lambda| = 1.
    """
    ctx = u.ctx
    ctx.check_dimension_sum(u.n, u.p, u.q)
    qn, _, qn2 = ctx.qints(u.n + 2)[u.n :]
    lam = (u.sigma - u.tau) ** 2 * (u.p * u.q) / (qn * qn2)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise UnsupportedIndex(f"lambda for n = {u.n} overflows double precision")
    return lam
