"""The 3x3 branch matrix at the initial triple point and its rotational eigenvalue.

With a 1-valent vertex on the dual side, normalization and unitarity pin down
seven of the nine entries of the branch matrix at the branch vertex, up to two
unknown phases sigma and tau.  In the canonical gauge (positive first row and
column) the matrix acts on the coefficient vector (0, sqrt(q), -sqrt(p)) of
the one-dimensional complement of the trivial part of the n-box space, and
the middle coordinate of the image exposes the rotational eigenvalue lambda.
"""

from __future__ import annotations

import math

from .errors import DimensionSumMismatch, InvalidArgument, NoUnitaryPhase, UnsupportedIndex
from .qnum import NUMERIC_TOL, Frozen, QuantumContext

Entries = tuple[tuple[complex | None, ...], ...]


class BranchMatrix(Frozen):
    """Known entries of the branch matrix in the positive gauge.

    ``entries`` is row-major with ``None`` for the two entries that play no
    role; the first row and column are real and strictly positive.
    ``im_sign`` records the chosen sign of Im(tau); the opposite choice
    conjugates everything the matrix produces.
    """

    _fields = ("n", "ctx", "p", "q", "sigma", "tau", "entries", "im_sign")
    n: int
    ctx: QuantumContext
    p: float
    q: float
    sigma: complex
    tau: complex
    entries: Entries
    im_sign: int

    def __init__(
        self,
        n: int,
        ctx: QuantumContext,
        p: float,
        q: float,
        sigma: complex,
        tau: complex,
        entries: Entries,
        im_sign: int,
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
        self._freeze(n, ctx, p, q, sigma, tau, entries, im_sign)


def solve_phases(p: float, q: float, im_sign: int = 1) -> tuple[complex, complex]:
    """Solve 1 + sigma*p + tau*q = 0 for unit phases sigma and tau.

    Unitarity forces Re(tau) = (p^2 - q^2 - 1)/(2q); the phase exists exactly
    when that value lies in [-1, 1].  Values within NUMERIC_TOL of the boundary
    snap onto it from either side: sqrt(1 - Re^2) has unbounded slope at
    +-1, so rounding-level undershoot would otherwise smear the meaningful
    boundary case p - q = 1 into a spurious imaginary part of order 1e-7.
    """
    if im_sign not in (1, -1):
        raise InvalidArgument("im_sign must be +1 or -1")
    if not 0 < q <= p < math.inf:
        raise InvalidArgument("dimensions must be finite and satisfy p >= q > 0")
    re_tau = (p * p - q * q - 1.0) / (2.0 * q)
    if not math.isfinite(re_tau):
        raise UnsupportedIndex(f"p^2 - q^2 overflows double precision at p = {p!r}, q = {q!r}")
    if abs(re_tau) > 1.0 + NUMERIC_TOL:
        raise NoUnitaryPhase(
            f"|Re tau| = {abs(re_tau)!r} exceeds 1: no unitary phase exists (p - q > 1)"
        )
    if abs(re_tau) > 1.0 - NUMERIC_TOL:
        re_tau = math.copysign(1.0, re_tau)
    tau = complex(re_tau, im_sign * math.sqrt(1.0 - re_tau * re_tau))
    sigma = -(1.0 + tau * q) / p
    return sigma, tau


def build_branch_matrix(
    ctx: QuantumContext, n: int, p: float, q: float, im_sign: int = 1
) -> BranchMatrix:
    """Populate the seven known entries of the branch matrix."""
    if n < 2:
        raise InvalidArgument(f"n = {n} must be >= 2")
    sigma, tau = solve_phases(p, q, im_sign)
    qn_minus = ctx.qint(n - 1)
    qn = ctx.qint(n)
    qn_plus2 = ctx.qint(n + 2)
    dn = ctx.delta * qn
    if math.isinf(dn * qn):  # the third-row entry would come out 0 or NaN
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
    return BranchMatrix(
        n=n, ctx=ctx, p=p, q=q, sigma=sigma, tau=tau, entries=entries, im_sign=im_sign
    )


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
    lam = (u.sigma - u.tau) ** 2 * (u.p * u.q) / (ctx.qint(u.n) * ctx.qint(u.n + 2))
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise UnsupportedIndex(f"lambda for n = {u.n} overflows double precision")
    # unitary phases give |lambda| = ((p+q)^2 - 1)/([n+1]^2 - 1), so a relative
    # p + q error e moves |lambda| by at most 2.25 e (n >= 2)
    if abs(abs(lam) - 1.0) > 10.0 * NUMERIC_TOL:
        raise DimensionSumMismatch(f"computed |lambda| = {abs(lam)!r} is not 1")
    return lam
