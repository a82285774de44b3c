"""Branch matrix construction, phase solving, and lambda extraction."""

import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import apply_to_perp_vector
from tripoint.branch import BranchMatrix, build_branch_matrix, extract_lambda, solve_phases
from tripoint.errors import (
    DimensionSumMismatch,
    InvalidArgument,
    NoUnitaryPhase,
    TripointError,
    UnsupportedIndex,
)
from tripoint.qnum import nu_from_delta


def pq_from_gap(ctx, n, gap):
    """p >= q > 0 with p + q = [n+1] and p - q = gap."""
    total = ctx.qint(n + 1)
    return (total + gap) / 2.0, (total - gap) / 2.0


# ---------------------------------------------------------------------------
# solve_phases

def test_phases_are_unit_and_orthogonal():
    ctx = nu_from_delta(2.1)
    for gap in (0.0, 0.3, 0.7, 1.0):
        p, q = pq_from_gap(ctx, 4, gap)
        sigma, tau = solve_phases(p, q)
        assert abs(abs(sigma) - 1.0) <= 1e-12
        assert abs(abs(tau) - 1.0) <= 1e-12
        assert abs(1.0 + sigma * p + tau * q) <= 1e-12 * (1.0 + p + q)


def test_phase_real_parts_match_closed_forms():
    ctx = nu_from_delta(2.2)
    p, q = pq_from_gap(ctx, 6, 0.6)
    sigma, tau = solve_phases(p, q)
    assert tau.real == pytest.approx((p * p - q * q - 1.0) / (2.0 * q), abs=1e-12)
    assert sigma.real == pytest.approx((q * q - p * p - 1.0) / (2.0 * p), abs=1e-12)


def test_equal_dimensions_give_equal_real_parts():
    ctx = nu_from_delta(2.3)
    p, q = pq_from_gap(ctx, 4, 0.0)
    sigma, tau = solve_phases(p, q)
    assert tau.real == pytest.approx(-1.0 / (2.0 * q), abs=1e-12)
    assert sigma.real == pytest.approx(tau.real, abs=1e-12)


def test_boundary_gap_one_is_solvable():
    ctx = nu_from_delta(2.05)
    p, q = pq_from_gap(ctx, 4, 1.0)
    sigma, tau = solve_phases(p, q)
    assert tau == pytest.approx(1.0 + 0.0j, abs=1e-9)
    assert sigma == pytest.approx(-1.0 + 0.0j, abs=1e-9)


def test_no_unitary_phase_for_wide_gap():
    # Re tau = (6.25 - 1 - 1)/2 = 2.125 > 1
    with pytest.raises(NoUnitaryPhase):
        solve_phases(2.5, 1.0)


def test_solve_phases_argument_checks():
    with pytest.raises(InvalidArgument):
        solve_phases(1.0, 2.0)  # p < q


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
    ctx = nu_from_delta(delta)
    p, q = pq_from_gap(ctx, n, gap)
    try:
        solve_phases(p, q)
        solvable = True
    except NoUnitaryPhase:
        solvable = False
    assert solvable == (gap <= 1.0)


def test_sigma_minus_tau_norm_identity():
    # |sigma - tau|^2 = [n][n+2]/(pq) whenever p + q = [n+1]
    for delta in (2.05, math.sqrt(5.0), 2.3):
        ctx = nu_from_delta(delta)
        for n in (2, 4, 8):
            for gap in (0.0, 0.25, 0.5, 0.9, 1.0):
                p, q = pq_from_gap(ctx, n, gap)
                sigma, tau = solve_phases(p, q)
                expected = ctx.qint(n) * ctx.qint(n + 2) / (p * q)
                assert abs(sigma - tau) ** 2 == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# build_branch_matrix

def test_entry_one_one_is_reciprocal_quantum_integer():
    ctx = nu_from_delta(2.1)
    p, q = pq_from_gap(ctx, 4, 0.5)
    u = build_branch_matrix(ctx, 4, p, q)
    assert u.entries[0][0] == pytest.approx(1.0 / ctx.qint(4), abs=1e-12)


def test_entry_one_one_at_delta_two():
    ctx = nu_from_delta(2.0)
    p, q = pq_from_gap(ctx, 4, 0.5)  # p + q = [5] = 5
    u = build_branch_matrix(ctx, 4, p, q)
    assert u.entries[0][0] == pytest.approx(0.25, abs=1e-12)


def test_unknown_entries_are_none():
    ctx = nu_from_delta(2.1)
    p, q = pq_from_gap(ctx, 4, 0.5)
    u = build_branch_matrix(ctx, 4, p, q)
    assert u.entries[2][1] is None
    assert u.entries[2][2] is None


def test_first_row_and_column_positive():
    ctx = nu_from_delta(2.2)
    p, q = pq_from_gap(ctx, 6, 0.8)
    u = build_branch_matrix(ctx, 6, p, q)
    for i in range(3):
        assert u.entries[0][i].real > 0 and u.entries[0][i].imag == 0
        assert u.entries[i][0].real > 0 and u.entries[i][0].imag == 0


def test_matrix_matches_display_formulas():
    ctx = nu_from_delta(2.25)
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


def negate_entry(entries, row, col):
    rows = [list(r) for r in entries]
    rows[row][col] = -rows[row][col]
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize(
    "field, change, message",
    [
        ("sigma", lambda z: 2 * z, "sigma and tau must be unit phases"),
        ("tau", lambda z: z / 2, "sigma and tau must be unit phases"),
        ("tau", lambda z: z.conjugate(), "phases do not satisfy 1 + sigma*p + tau*q = 0"),
        ("p", lambda p: p + 0.5, "phases do not satisfy 1 + sigma*p + tau*q = 0"),
        ("entries", lambda e: negate_entry(e, 0, 2), "first row and column must be positive reals"),
        ("entries", lambda e: negate_entry(e, 2, 0), "first row and column must be positive reals"),
        (
            "entries",
            lambda e: ((e[0][0], None, e[0][2]), *e[1:]),
            "first row and column must be positive reals",
        ),
    ],
)
def test_branch_matrix_checks_its_fields(field, change, message):
    ctx = nu_from_delta(2.2)
    p, q = pq_from_gap(ctx, 6, 0.8)
    u = build_branch_matrix(ctx, 6, p, q)
    fields = {
        name: getattr(u, name)
        for name in ("n", "ctx", "p", "q", "sigma", "tau", "entries")
    }
    assert BranchMatrix(**fields) == u
    fields[field] = change(fields[field])
    with pytest.raises(InvalidArgument) as excinfo:
        BranchMatrix(**fields)
    assert str(excinfo.value) == message


def test_build_propagates_no_unitary_phase():
    ctx = nu_from_delta(2.5)
    with pytest.raises(NoUnitaryPhase):
        build_branch_matrix(ctx, 4, 2.5, 1.0)


def test_build_rejects_small_n():
    ctx = nu_from_delta(2.5)
    with pytest.raises(InvalidArgument):
        build_branch_matrix(ctx, 1, 2.0, 1.5)


def test_phases_refuse_an_overflowing_square():
    """(p - q)(p + q) is about 1e400 here, past the double range."""
    with pytest.raises(UnsupportedIndex, match="overflows double precision"):
        solve_phases(1e200, 1.0)


def test_build_refuses_an_overflowing_entry():
    """At n = 800 and delta 2.5 the third-row entry is inf / inf."""
    with pytest.raises(UnsupportedIndex, match="entries for n = 800 overflow"):
        build_branch_matrix(nu_from_delta(2.5), 800, 1.0, 1.0)


def test_build_refuses_an_overflowing_first_row():
    """p = q = 1e300 pass the phase solve, but [n-1] p overflows at n = 22 and delta 3."""
    with pytest.raises(UnsupportedIndex, match="entries for n = 22 overflow"):
        build_branch_matrix(nu_from_delta(3.0), 22, 1e300, 1e300)


def test_lambda_refuses_an_overflowing_denominator():
    """At n = 369 and delta 3, [n][n+2] overflows while p^2 does not: lambda is inf / inf."""
    ctx = nu_from_delta(3.0)
    half = ctx.qint(370) / 2.0
    matrix = build_branch_matrix(ctx, 369, half, half)
    with pytest.raises(UnsupportedIndex, match="lambda for n = 369 overflows"):
        extract_lambda(matrix)


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
    reach lambda unless something overflows first.
    """
    ctx = nu_from_delta(delta)
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
    assert all(cmath.isfinite(z) for z in (matrix.sigma, matrix.tau, *known))
    try:
        lam = extract_lambda(matrix)
    except TripointError:
        return
    assert cmath.isfinite(lam)


# ---------------------------------------------------------------------------
# apply_to_perp_vector

def test_first_coordinate_vanishes():
    for delta in (2.05, 2.3, 2.5):
        ctx = nu_from_delta(delta)
        for n in (2, 4, 6):
            for gap in (0.0, 0.5, 1.0):
                p, q = pq_from_gap(ctx, n, gap)
                u = build_branch_matrix(ctx, n, p, q)
                c1, _, c3 = apply_to_perp_vector(u)
                assert abs(c1) <= 1e-12 * math.sqrt(ctx.qint(n - 1) * p * q)
                assert c3 is None


def test_middle_coordinate_equal_dims():
    ctx = nu_from_delta(2.2)
    n = 4
    p, q = pq_from_gap(ctx, n, 0.0)
    u = build_branch_matrix(ctx, n, p, q)
    _, c2, _ = apply_to_perp_vector(u)
    expected = (u.sigma - u.tau) * q / math.sqrt(ctx.delta * ctx.qint(n))
    assert c2 == pytest.approx(expected, rel=1e-12)
    assert abs((u.sigma - u.tau).real) <= 1e-12


def test_middle_coordinate_modulus():
    # |c2| = sqrt([n+2]/[2]) whenever p + q = [n+1]
    ctx = nu_from_delta(2.15)
    for n in (2, 4, 6, 8):
        for gap in (0.0, 0.5, 1.0):
            p, q = pq_from_gap(ctx, n, gap)
            u = build_branch_matrix(ctx, n, p, q)
            _, c2, _ = apply_to_perp_vector(u)
            assert abs(c2) == pytest.approx(
                math.sqrt(ctx.qint(n + 2) / ctx.delta), rel=1e-9
            )


# ---------------------------------------------------------------------------
# extract_lambda

def test_equal_dims_give_lambda_minus_one():
    for delta in (2.05, math.sqrt(5.0), 2.3):
        ctx = nu_from_delta(delta)
        for n in (4, 6, 10):
            p, q = pq_from_gap(ctx, n, 0.0)
            lam = extract_lambda(build_branch_matrix(ctx, n, p, q))
            assert abs(lam - (-1.0)) <= 1e-9


def test_gap_one_gives_lambda_one():
    for delta in (2.05, math.sqrt(5.0), 2.3):
        ctx = nu_from_delta(delta)
        for n in (4, 6, 10):
            p, q = pq_from_gap(ctx, n, 1.0)
            lam = extract_lambda(build_branch_matrix(ctx, n, p, q))
            assert abs(lam - 1.0) <= 1e-9


def test_lambda_is_unimodular_and_trace_matches():
    ctx = nu_from_delta(2.2)
    for n in (4, 6):
        for gap in (0.1, 0.4, 0.8):
            p, q = pq_from_gap(ctx, n, gap)
            lam = extract_lambda(build_branch_matrix(ctx, n, p, q))
            assert abs(abs(lam) - 1.0) <= 1e-10
            expected_trace = gap * gap * ctx.qint(n) * ctx.qint(n + 2) / (p * q) - 2.0
            assert 2.0 * lam.real == pytest.approx(expected_trace, abs=1e-8)


def test_lambda_requires_dimension_sum():
    ctx = nu_from_delta(2.2)
    u = build_branch_matrix(ctx, 4, 3.0, 2.5)  # p + q != [5]
    with pytest.raises(DimensionSumMismatch):
        extract_lambda(u)


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
    ctx = nu_from_delta(delta)
    p, q = pq_from_gap(ctx, n, gap)
    lam = extract_lambda(build_branch_matrix(ctx, n, p, q))
    trace = (p - q) ** 2 * (ctx.qint(n) * ctx.qint(n + 2)) / (p * q) - 2.0
    assert abs(2.0 * lam.real - trace) <= 1e-12 * max(1.0, abs(trace))
