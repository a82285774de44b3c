"""Branch matrix construction: the request checks, the phases, the entries and lambda."""

import cmath
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import apply_to_perp_vector
from tripoint.branch import build_branch_matrix
from tripoint.errors import (
    DimensionSumMismatch,
    InvalidArgument,
    NoUnitaryPhase,
    TripointError,
    UnsupportedIndex,
)
from tripoint.qnum import NUMERIC_TOL, QuantumContext


def pq_from_gap(ctx, n, gap):
    """p >= q > 0 with p + q = [n+1] and p - q = gap, to rounding.

    Once [n+1] passes 2^53 the rounding can widen the gap: gap 1 gives
    p - q = 2 at delta 2.947378183146038 and n = 39.
    """
    total = ctx.qint(n + 1)
    return (total + gap) / 2.0, (total - gap) / 2.0


def phases(ctx, n, p, q):
    """sigma and tau of the branch matrix of a consistent request."""
    u = build_branch_matrix(ctx, n, p, q)
    return u.sigma, u.tau


# ---------------------------------------------------------------------------
# phases

def test_phases_are_unit_and_orthogonal():
    ctx = QuantumContext(2.1)
    for gap in (0.0, 0.3, 0.7, 1.0):
        p, q = pq_from_gap(ctx, 4, gap)
        sigma, tau = phases(ctx, 4, p, q)
        assert abs(abs(sigma) - 1.0) <= 1e-12
        assert abs(abs(tau) - 1.0) <= 1e-12
        assert abs(1.0 + sigma * p + tau * q) <= 1e-12 * (1.0 + p + q)


def test_phase_real_parts_match_closed_forms():
    ctx = QuantumContext(2.2)
    p, q = pq_from_gap(ctx, 6, 0.6)
    sigma, tau = phases(ctx, 6, p, q)
    assert tau.real == pytest.approx((p * p - q * q - 1.0) / (2.0 * q), abs=1e-12)
    assert sigma.real == pytest.approx((q * q - p * p - 1.0) / (2.0 * p), abs=1e-12)


def test_equal_dimensions_give_equal_real_parts():
    ctx = QuantumContext(2.3)
    p, q = pq_from_gap(ctx, 4, 0.0)
    sigma, tau = phases(ctx, 4, p, q)
    assert tau.real == pytest.approx(-1.0 / (2.0 * q), abs=1e-12)
    assert sigma.real == pytest.approx(tau.real, abs=1e-12)


def test_boundary_gap_one_is_solvable():
    ctx = QuantumContext(2.05)
    p, q = pq_from_gap(ctx, 4, 1.0)
    sigma, tau = phases(ctx, 4, p, q)
    assert tau == pytest.approx(1.0 + 0.0j, abs=1e-9)
    assert sigma == pytest.approx(-1.0 + 0.0j, abs=1e-9)


def test_no_unitary_phase_for_wide_gap():
    # p + q = 3.5 = [3] at delta^2 = 4.5, and Re tau = (6.25 - 1 - 1)/2 = 2.125 > 1
    with pytest.raises(NoUnitaryPhase):
        build_branch_matrix(QuantumContext(math.sqrt(4.5)), 2, 2.5, 1.0)


def test_solve_phases_argument_checks():
    """The request is checked in input order, n, then p and q, then p + q = [n+1], before any solve."""
    ctx = QuantumContext(2.1)
    p, q = pq_from_gap(ctx, 4, 0.5)
    dims = "dimensions must be finite and satisfy p >= q > 0"
    for n, p_in, q_in, error, message in [
        (1, q, p, InvalidArgument, "n = 1 must be >= 2"),
        (4, q, p, InvalidArgument, dims),  # p < q
        (4, p, 0.0, InvalidArgument, dims),
        (4, math.inf, q, InvalidArgument, dims),
        (4, 10.0, 2.0, DimensionSumMismatch, "p + q = 12.0 does not match [n+1] = 7.2181"),
    ]:
        with pytest.raises(error) as excinfo:
            build_branch_matrix(ctx, n, p_in, q_in)
        assert str(excinfo.value) == message


@settings(max_examples=300, deadline=None)
@given(
    delta=st.floats(2.0, 2.5),
    n=st.sampled_from([2, 4, 6, 8, 10]),
    gap=st.floats(0.0, 2.0),
)
def test_solvability_is_exactly_gap_at_most_one(delta, n, gap):
    # the algebraic shadow of the triple-single bound, away from the boundary
    if abs(gap - 1.0) <= 1e-6:
        return
    ctx = QuantumContext(delta)
    p, q = pq_from_gap(ctx, n, gap)
    try:
        phases(ctx, n, p, q)
        solvable = True
    except NoUnitaryPhase:
        solvable = False
    assert solvable == (gap <= 1.0)


def test_sigma_minus_tau_norm_identity():
    # |sigma - tau|^2 = [n][n+2]/(pq) whenever p + q = [n+1]
    for delta in (2.05, math.sqrt(5.0), 2.3):
        ctx = QuantumContext(delta)
        for n in (2, 4, 8):
            for gap in (0.0, 0.25, 0.5, 0.9, 1.0):
                p, q = pq_from_gap(ctx, n, gap)
                sigma, tau = phases(ctx, n, p, q)
                expected = ctx.qint(n) * ctx.qint(n + 2) / (p * q)
                assert abs(sigma - tau) ** 2 == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# build_branch_matrix

def test_entry_one_one_is_reciprocal_quantum_integer():
    ctx = QuantumContext(2.1)
    p, q = pq_from_gap(ctx, 4, 0.5)
    u = build_branch_matrix(ctx, 4, p, q)
    assert u.entries[0][0] == pytest.approx(1.0 / ctx.qint(4), abs=1e-12)


def test_entry_one_one_at_delta_two():
    ctx = QuantumContext(2.0)
    p, q = pq_from_gap(ctx, 4, 0.5)  # p + q = [5] = 5
    u = build_branch_matrix(ctx, 4, p, q)
    assert u.entries[0][0] == pytest.approx(0.25, abs=1e-12)


def test_unknown_entries_are_none():
    ctx = QuantumContext(2.1)
    p, q = pq_from_gap(ctx, 4, 0.5)
    u = build_branch_matrix(ctx, 4, p, q)
    assert u.entries[2][1] is None
    assert u.entries[2][2] is None


def test_first_row_and_column_positive():
    ctx = QuantumContext(2.2)
    p, q = pq_from_gap(ctx, 6, 0.8)
    u = build_branch_matrix(ctx, 6, p, q)
    for i in range(3):
        assert u.entries[0][i].real > 0 and u.entries[0][i].imag == 0
        assert u.entries[i][0].real > 0 and u.entries[i][0].imag == 0


def test_matrix_matches_display_formulas():
    ctx = QuantumContext(2.25)
    n = 6
    p, q = pq_from_gap(ctx, n, 0.4)
    u = build_branch_matrix(ctx, n, p, q)
    qn1, qn, qn2 = ctx.qint(n - 1), ctx.qint(n), ctx.qint(n + 2)
    dn = ctx.delta * qn
    assert u.entries[0][1] == pytest.approx(math.sqrt(qn1 * p), rel=1e-12)
    assert u.entries[0][2] == pytest.approx(math.sqrt(qn1 * q), rel=1e-12)
    assert u.entries[1][0] == pytest.approx(math.sqrt(qn1 / dn), rel=1e-12)
    assert u.entries[2][0] == pytest.approx(math.sqrt(qn1 * qn2 / (dn * qn)), rel=1e-12)
    assert u.entries[1][1] == pytest.approx(u.sigma * math.sqrt(p / dn), rel=1e-12)
    assert u.entries[1][2] == pytest.approx(u.tau * math.sqrt(q / dn), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(delta=st.floats(2.0, 3.0), n=st.integers(2, 40), gap=st.floats(0.0, 1.0))
@example(delta=2.05, n=4, gap=1.0)
def test_built_matrices_have_unit_phases_and_a_positive_gauge(delta, n, gap):
    """What the one builder guarantees on every consistent request with p - q <= 1.

    sigma and tau are unit phases with 1 + sigma p + tau q = 0, and the
    first row and column are positive reals.  Re tau snaps onto +-1 within
    NUMERIC_TOL of it, which moves |sigma| off 1 by up to about that much.
    """
    ctx = QuantumContext(delta)
    p, q = pq_from_gap(ctx, n, gap)
    assume(p - q <= 1.0)  # see pq_from_gap
    u = build_branch_matrix(ctx, n, p, q)
    assert abs(abs(u.sigma) - 1.0) <= NUMERIC_TOL
    assert abs(abs(u.tau) - 1.0) <= 1e-15
    assert abs(1.0 + u.sigma * p + u.tau * q) <= 1e-12 * (1.0 + p + q)
    for i in range(3):
        for entry in (u.entries[0][i], u.entries[i][0]):
            assert entry.imag == 0.0 and entry.real > 0.0


def test_build_propagates_no_unitary_phase():
    """p - q > 1 exits through the phase solve only on a consistent request."""
    ctx = QuantumContext(2.5)
    with pytest.raises(NoUnitaryPhase):
        build_branch_matrix(ctx, 4, *pq_from_gap(ctx, 4, 1.5))
    with pytest.raises(DimensionSumMismatch):
        build_branch_matrix(ctx, 4, 2.5, 1.0)


def test_build_rejects_small_n():
    ctx = QuantumContext(2.5)
    with pytest.raises(InvalidArgument):
        build_branch_matrix(ctx, 1, 2.0, 1.5)


def test_phases_refuse_an_overflowing_square():
    """p = 3[801]/4 and q = [801]/4 at delta 2.5: (p - q)(p + q) is [801]^2 / 2, past the double range."""
    ctx = QuantumContext(2.5)
    total = ctx.qint(801)
    with pytest.raises(UnsupportedIndex, match="p\\^2 - q\\^2 overflows double precision"):
        build_branch_matrix(ctx, 800, 0.75 * total, 0.25 * total)


def test_build_refuses_an_overflowing_entry():
    """At n = 512 and delta 2.5, with p = q = [513]/2, delta [n]^2 overflows in the third-row entry."""
    ctx = QuantumContext(2.5)
    half = ctx.qint(513) / 2.0
    with pytest.raises(UnsupportedIndex, match="entries for n = 512 overflow"):
        build_branch_matrix(ctx, 512, half, half)


def test_build_refuses_an_overflowing_first_row():
    """p = q = 1e300 would overflow [n-1] p at n = 22 and delta 3; p + q = [n+1] refuses them first.

    Once p + q = [n+1] holds, [n-1] p < [n-1][n+1] < delta [n]^2, so no
    first-row entry overflows before the third-row one.
    """
    with pytest.raises(DimensionSumMismatch):
        build_branch_matrix(QuantumContext(3.0), 22, 1e300, 1e300)


def test_lambda_refuses_an_overflowing_denominator():
    """At n = 369 and delta 3, [n][n+2] overflows while p^2 does not: lambda is inf / inf."""
    ctx = QuantumContext(3.0)
    half = ctx.qint(370) / 2.0
    with pytest.raises(UnsupportedIndex, match="lambda for n = 369 overflows"):
        build_branch_matrix(ctx, 369, half, half)


@settings(max_examples=300, deadline=None)
@given(
    delta=st.floats(2.0, 3.0),
    n=st.integers(2, 1200),
    p_exp=st.floats(0.0, 300.0),
    ratio=st.floats(0.0, 1.0),
    admissible=st.booleans(),
)
@example(delta=2.5, n=512, p_exp=0.0, ratio=0.0, admissible=True)
@example(delta=3.0, n=369, p_exp=0.0, ratio=0.0, admissible=True)
def test_matrix_and_lambda_are_finite_or_refused(delta, n, p_exp, ratio, admissible):
    """Whatever the inputs, every phase, entry and lambda is finite, or a TripointError says why.

    Admissible draws satisfy p + q = [n+1] with p - q = ratio <= 1, so they
    reach lambda unless something overflows first; the others are refused.
    """
    ctx = QuantumContext(delta)
    try:
        if admissible:
            p, q = pq_from_gap(ctx, n, ratio)
        else:
            p = 10.0 ** p_exp
            q = max(p * ratio, 1e-300)
        matrix = build_branch_matrix(ctx, n, p, q)
    except TripointError:
        return
    known = [z for row in matrix.entries for z in row if z is not None]
    assert all(cmath.isfinite(z) for z in (matrix.sigma, matrix.tau, *known, matrix.lam))


# ---------------------------------------------------------------------------
# apply_to_perp_vector

def test_first_coordinate_vanishes():
    for delta in (2.05, 2.3, 2.5):
        ctx = QuantumContext(delta)
        for n in (2, 4, 6):
            for gap in (0.0, 0.5, 1.0):
                p, q = pq_from_gap(ctx, n, gap)
                u = build_branch_matrix(ctx, n, p, q)
                c1, _, c3 = apply_to_perp_vector(u, p, q)
                assert abs(c1) <= 1e-12 * math.sqrt(ctx.qint(n - 1) * p * q)
                assert c3 is None


def test_middle_coordinate_equal_dims():
    ctx = QuantumContext(2.2)
    n = 4
    p, q = pq_from_gap(ctx, n, 0.0)
    u = build_branch_matrix(ctx, n, p, q)
    _, c2, _ = apply_to_perp_vector(u, p, q)
    expected = (u.sigma - u.tau) * q / math.sqrt(ctx.delta * ctx.qint(n))
    assert c2 == pytest.approx(expected, rel=1e-12)
    assert abs((u.sigma - u.tau).real) <= 1e-12


def test_middle_coordinate_modulus():
    # |c2| = sqrt([n+2]/[2]) whenever p + q = [n+1]
    ctx = QuantumContext(2.15)
    for n in (2, 4, 6, 8):
        for gap in (0.0, 0.5, 1.0):
            p, q = pq_from_gap(ctx, n, gap)
            u = build_branch_matrix(ctx, n, p, q)
            _, c2, _ = apply_to_perp_vector(u, p, q)
            assert abs(c2) == pytest.approx(
                math.sqrt(ctx.qint(n + 2) / ctx.delta), rel=1e-9
            )


# ---------------------------------------------------------------------------
# lambda

def test_equal_dims_give_lambda_minus_one():
    for delta in (2.05, math.sqrt(5.0), 2.3):
        ctx = QuantumContext(delta)
        for n in (4, 6, 10):
            p, q = pq_from_gap(ctx, n, 0.0)
            lam = build_branch_matrix(ctx, n, p, q).lam
            assert abs(lam - (-1.0)) <= 1e-9


def test_gap_one_gives_lambda_one():
    for delta in (2.05, math.sqrt(5.0), 2.3):
        ctx = QuantumContext(delta)
        for n in (4, 6, 10):
            p, q = pq_from_gap(ctx, n, 1.0)
            lam = build_branch_matrix(ctx, n, p, q).lam
            assert abs(lam - 1.0) <= 1e-9


def test_lambda_is_unimodular_and_trace_matches():
    ctx = QuantumContext(2.2)
    for n in (4, 6):
        for gap in (0.1, 0.4, 0.8):
            p, q = pq_from_gap(ctx, n, gap)
            lam = build_branch_matrix(ctx, n, p, q).lam
            assert abs(abs(lam) - 1.0) <= 1e-10
            expected_trace = gap * gap * ctx.qint(n) * ctx.qint(n + 2) / (p * q) - 2.0
            assert 2.0 * lam.real == pytest.approx(expected_trace, abs=1e-8)


def test_lambda_requires_dimension_sum():
    ctx = QuantumContext(2.2)
    with pytest.raises(DimensionSumMismatch):
        build_branch_matrix(ctx, 4, 3.0, 2.5)  # p + q != [5]


@settings(max_examples=500, deadline=None)
@given(delta=st.floats(2.0, 3.0), n=st.integers(2, 40), gap=st.floats(0.0, 1.0))
@example(delta=3.0, n=30, gap=0.5)
def test_branch_lambda_trace_is_the_trace_formula(delta, n, gap):
    """The identity that lets the battery read lambda + 1/lambda from the trace formula alone.

    For unit sigma and tau with 1 + sigma p + tau q = 0,
    |sigma - tau|^2 = ((p + q)^2 - 1)/(pq).  With p + q = [n+1] and
    [n+1]^2 - 1 = [n][n+2], lambda = (sigma - tau)^2 pq/([n][n+2]) has
    modulus 1, and 2 Re lambda = (p - q)^2 [n][n+2]/(pq) - 2.  The phase
    solve forms (p - q)(p + q), which keeps the digits of p - q even where
    [n+1] reaches 6e16 (n = 40 at delta 3); over 20,000 such draws the
    largest relative difference was 2.1e-15.
    """
    ctx = QuantumContext(delta)
    p, q = pq_from_gap(ctx, n, gap)
    assume(p - q <= 1.0)  # see pq_from_gap
    lam = build_branch_matrix(ctx, n, p, q).lam
    trace = (p - q) ** 2 * (ctx.qint(n) * ctx.qint(n + 2)) / (p * q) - 2.0
    assert abs(2.0 * lam.real - trace) <= 1e-12 * max(1.0, abs(trace))
