"""The obstruction battery and admissible-ratio tables.

Verdicts are three-valued: a test whose hypotheses are not met reports
``Inapplicable`` rather than passing, so enumeration workflows can tell
"not excluded" apart from "hypothesis failed".  A candidate is excluded as
soon as any applicable test fails, but the battery always runs everything
for full diagnostics.
"""

from __future__ import annotations

import enum
import math
from operator import itemgetter
from typing import NamedTuple

from .errors import InvalidArgument, UnsupportedIndex
from .graph import GradedBigraph, TriplePointData, extract_triple_point
from .qnum import QuantumContext

#: Default verdict tolerance: how far p - q may exceed 1, and how far the trace
#: may miss a root of unity, before a test fails.  It sets only verdicts;
#: internal consistency checks use ``qnum.NUMERIC_TOL``.
DEFAULT_TRACE_TOL = 1e-6


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
    if not tp.gamma3_univalent:
        return Verdict.INAPPLICABLE
    return Verdict.PASS if tp.p - tp.q <= 1.0 + tol else Verdict.FAIL


def _trace_and_candidates(tp: TriplePointData) -> tuple[float, tuple[RootCandidate, ...]]:
    qn, _, qn2 = tp.ctx.qints(tp.n + 2)[tp.n :]
    big = qn * qn2
    trace = (tp.p - tp.q) ** 2 * big / (tp.p * tp.q) - 2.0
    candidates = sorted(
        (
            RootCandidate(k, abs(trace - 2.0 * math.cos(2.0 * math.pi * k / tp.n)))
            for k in range(tp.n // 2 + 1)
        ),
        key=itemgetter(1, 0),
    )
    return trace, tuple(candidates)


def rotational_test(
    tp: TriplePointData, tol: float = DEFAULT_TRACE_TOL
) -> tuple[Verdict, float, tuple[RootCandidate, ...]]:
    """Test that lambda + 1/lambda lands on the trace of an n-th root of unity.

    lambda + 1/lambda = (p - q)^2 [n][n+2] / (pq) - 2 must equal some
    2 cos(2 pi k / n).  Conjugate roots give the same trace, so k only runs
    to n // 2.  Applicable when the dual branch vertex is 1-valent and the
    branch depth is odd; the trace and candidate list are reported either way.
    """
    trace, candidates = _trace_and_candidates(tp)
    if not (tp.gamma3_univalent and tp.branch_depth_odd):
        return Verdict.INAPPLICABLE, trace, candidates
    # every 2 cos(2 pi k / n) lies in [-2, 2], so a trace this close to one
    # is already within tol of that range
    verdict = Verdict.PASS if candidates[0].distance <= tol else Verdict.FAIL
    return verdict, trace, candidates


def qt_test(tp: TriplePointData, tol: float = DEFAULT_TRACE_TOL) -> Verdict:
    """The historical form of the rotational test, needing a 3-valent gamma2.

    The rotational verdict wherever gamma2 is 3-valent, reported separately so
    users can see which of the older obstructions already applied.
    """
    return rotational_test(tp, tol)[0] if tp.gamma2_trivalent else Verdict.INAPPLICABLE


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
    for k in range(n // 2 + 1):
        trace = 2.0 * math.cos(2.0 * math.pi * k / n)
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
    verdicts only.  The trace is computed once, from the trace formula: the
    quadratic-tangles verdict is the rotational one wherever gamma2 is
    3-valent, as in :func:`qt_test`, since the rotational test already needs
    a 1-valent gamma3.  No branch matrix is built: once extraction has checked
    p + q = [n+1], its lambda has modulus 1 and 2 Re lambda equals the trace
    formula for every (p, q) (see ``tests/test_branch.py``).
    """
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
