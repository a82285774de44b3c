"""The obstruction battery and admissible-ratio tables.

Verdicts are three-valued: a test whose hypotheses are not met reports
``Inapplicable`` rather than passing, so enumeration workflows can tell
"not excluded" apart from "hypothesis failed".  A candidate is excluded as
soon as any applicable test fails, but the battery always runs everything
for full diagnostics.  Every verdict compares against a tolerance, by
default ``DEFAULT_TRACE_TOL``, which this module re-exports from its home
in ``qnum``, beside ``NUMERIC_TOL``.  This module alone decides which
tolerances are valid: positive and finite.  Each function that takes one
refuses any other with ``InvalidArgument``, and the command line asks the
same check.  The graph layer is imported only when ``run_battery``
extracts a pair, so the ratio tables and the command line's start-up do
without it.
"""

from __future__ import annotations

import enum
import math
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidArgument, UnsupportedIndex
from .qnum import DEFAULT_TRACE_TOL, QuantumContext

if TYPE_CHECKING:
    from .graph import GradedBigraph, TriplePointData


def _check_tol(tol: float) -> None:
    """Raise ``InvalidArgument`` unless the verdict tolerance is positive and finite."""
    if not 0 < tol < math.inf:
        raise InvalidArgument(f"tol = {tol!r} must be positive and finite")


class Verdict(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    INAPPLICABLE = "Inapplicable"


class RootCandidate(NamedTuple):
    k: int
    distance: float


class RatioRow(NamedTuple):
    k: int
    lambda_trace: float
    r: float
    p: float
    q: float


class ObstructionReport(NamedTuple):
    n: int
    delta: float
    p: float
    q: float
    r: float
    verdicts: dict[str, Verdict]
    lambda_trace: float
    root_candidates: tuple[RootCandidate, ...]
    tol: float

    @property
    def has_failure(self) -> bool:
        return any(v is Verdict.FAIL for v in self.verdicts.values())


def ocneanu_parity(branch_depth: int) -> Verdict:
    """For index above 4 the initial triple point must sit at odd depth.

    At index 4 exactly the parity says nothing: the affine diagram E6~ is a
    principal graph there and branches at depth 2.  ``run_battery`` reports
    this test ``Inapplicable`` for a pair whose delta is 2.
    """
    if branch_depth < 1:
        raise InvalidArgument(f"branch_depth = {branch_depth} must be >= 1")
    return Verdict.PASS if branch_depth % 2 == 1 else Verdict.FAIL


def triple_single(tp: TriplePointData, tol: float = DEFAULT_TRACE_TOL) -> Verdict:
    """With a 1-valent dual branch vertex, p - q may not exceed 1."""
    _check_tol(tol)
    if not tp.gamma3_univalent:
        return Verdict.INAPPLICABLE
    return Verdict.PASS if tp.p - tp.q <= 1.0 + tol else Verdict.FAIL


def _root_traces(n: int) -> list[float]:
    """2 cos(2 pi k / n), the trace of an n-th root of unity, for k = 0..n/2.

    Conjugate roots share a trace, so larger k add nothing.
    """
    return [2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n // 2 + 1)]


def rotational_test(
    tp: TriplePointData, tol: float = DEFAULT_TRACE_TOL
) -> tuple[Verdict, float, tuple[RootCandidate, ...]]:
    """Test that lambda + 1/lambda lands on the trace of an n-th root of unity.

    lambda + 1/lambda = (p - q)^2 [n][n+2] / (pq) - 2 must equal some
    2 cos(2 pi k / n) with 0 <= k <= n/2 (``_root_traces``).  Applicable
    when the dual branch vertex is 1-valent and the branch depth is odd; the
    trace and candidate list are reported either way.
    """
    _check_tol(tol)
    qn, _, qn2 = tp.ctx.qints(tp.n + 2)[tp.n :]
    trace = (tp.p - tp.q) ** 2 * (qn * qn2) / (tp.p * tp.q) - 2.0
    candidates = tuple(sorted(
        (RootCandidate(k, abs(trace - root)) for k, root in enumerate(_root_traces(tp.n))),
        key=itemgetter(1, 0),
    ))
    if not (tp.gamma3_univalent and tp.branch_depth_odd):
        return Verdict.INAPPLICABLE, trace, candidates
    # every 2 cos(2 pi k / n) lies in [-2, 2], so a trace this close to one
    # is already within tol of that range
    verdict = Verdict.PASS if candidates[0].distance <= tol else Verdict.FAIL
    return verdict, trace, candidates


def allowed_ratios(ctx: QuantumContext, n: int) -> list[RatioRow]:
    """Invert the rotational identity: the admissible (r, p, q) for each k.

    For every k in 0..n/2 the trace 2 cos(2 pi k / n) determines r >= 1 via
    r + 1/r = (trace + 2)/([n][n+2]) + 2, and with p + q = [n+1] the pair
    (p, q) follows.  n must be even since the branch depth n-1 is odd.
    """
    if n < 2 or n % 2 != 0:
        raise InvalidArgument(f"n = {n} must be even and >= 2")
    qn, sum_pq, qn2 = ctx.qints(n + 2)[n:]
    big = qn * qn2
    if not math.isfinite(big):
        raise UnsupportedIndex(
            f"[n][n+2] overflows double precision at n = {n}, delta = {ctx.delta}"
        )
    rows = []
    for k, trace in enumerate(_root_traces(n)):
        # work with r + 1/r - 2 directly; going through r + 1/r and back
        # cancels away most digits of r - 1 once [n][n+2] is large
        excess = (trace + 2.0) / big
        half = (excess + math.sqrt(excess * (excess + 4.0))) / 2.0  # r - 1
        gap = sum_pq * half / (2.0 + half)  # p - q
        rows.append(
            RatioRow(
                k=k,
                lambda_trace=trace,
                r=1.0 + half,
                p=(sum_pq + gap) / 2.0,
                q=(sum_pq - gap) / 2.0,
            )
        )
    return rows


def run_battery(
    principal: GradedBigraph, dual: GradedBigraph, tol: float = DEFAULT_TRACE_TOL
) -> ObstructionReport:
    """Extract the triple point of a pair and run every obstruction test.

    Every test is evaluated at the pair's own delta, the principal graph's
    norm (see :func:`graph.extract_triple_point`), which is exactly 2 for a
    tree of norm 2; the parity test then does not apply.  ``tol`` sets the
    verdicts only.  The trace is computed once, from the trace formula.  The
    numbers come from the principal graph alone, its norm and its two
    dimensions at depth n; the dual graph gives its norm, checked against
    delta, and its shape: gamma2 and gamma3 are told apart by valence, with
    no dual dimension solved (see ``graph.TriplePointData``).  The
    quadratic-tangles test is the historical form of the rotational test,
    which also needs a 3-valent gamma2: its verdict is the rotational one
    where gamma2 is 3-valent and ``Inapplicable`` elsewhere, since the
    rotational test already needs a 1-valent gamma3.  No branch matrix is
    built: once extraction has checked p + q = [n+1], its lambda has modulus
    1 and 2 Re lambda equals the trace formula for every (p, q) (see
    ``tests/test_branch.py``).  A ``tol`` that is not positive and finite
    raises ``InvalidArgument`` before anything is solved.
    """
    from .graph import extract_triple_point  # here, not at start-up: only a pair needs it

    _check_tol(tol)
    tp = extract_triple_point(principal, dual)
    parity = ocneanu_parity(tp.n - 1) if tp.ctx.delta > 2.0 else Verdict.INAPPLICABLE
    verdicts = {"ocneanu_parity": parity}
    verdicts["triple_single"] = triple_single(tp, tol)
    rotational, trace, candidates = rotational_test(tp, tol)
    verdicts["quadratic_tangles"] = rotational if tp.gamma2_trivalent else Verdict.INAPPLICABLE
    verdicts["rotational"] = rotational

    return ObstructionReport(
        n=tp.n,
        delta=tp.ctx.delta,
        p=tp.p,
        q=tp.q,
        r=tp.p / tp.q,
        verdicts=verdicts,
        lambda_trace=trace,
        root_candidates=candidates,
        tol=tol,
    )
