"""Quantum integer arithmetic."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripoint.errors import InvalidArgument, UnsupportedIndex
from tripoint.qnum import NUMERIC_TOL, QuantumContext, nu_from_delta


def direct_qint(delta: float, k: int) -> float:
    """Independent oracle: the closed form (nu^k - nu^-k)/(nu - 1/nu)."""
    nu = (delta + math.sqrt(delta * delta - 4.0)) / 2.0
    return (nu**k - nu**-k) / (nu - 1.0 / nu)


def test_nu_at_boundary():
    assert nu_from_delta(2.0).nu == pytest.approx(1.0, abs=1e-12)


def test_nu_at_two_and_a_half():
    assert nu_from_delta(2.5).nu == pytest.approx(2.0, abs=1e-12)


def test_nu_at_sqrt_five_is_golden_ratio():
    # positive root of nu^2 - delta*nu + 1 = 0
    delta = math.sqrt(5.0)
    expected = (delta + math.sqrt(delta * delta - 4.0)) / 2.0
    ctx = nu_from_delta(delta)
    assert ctx.nu == pytest.approx(expected, rel=1e-12)
    assert ctx.nu == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-12)


def test_context_invariant():
    for delta in (2.0, 2.1, 2.25, math.sqrt(5.0), 2.5):
        ctx = nu_from_delta(delta)
        assert abs(ctx.nu + 1.0 / ctx.nu - ctx.delta) <= NUMERIC_TOL
        assert ctx.nu >= 1.0


def test_delta_below_two_rejected():
    with pytest.raises(UnsupportedIndex):
        nu_from_delta(1.5)
    with pytest.raises(UnsupportedIndex):
        QuantumContext(1.9)


def test_context_validates_delta_directly():
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidArgument, match="delta must be finite"):
            QuantumContext(bad)
    with pytest.raises(UnsupportedIndex, match="index < 4"):
        QuantumContext(1.9)
    for delta in (2.0, 2.0 + 1e-12, 2.1, math.sqrt(5.0), 2.5, 1e200):
        ctx = QuantumContext(delta)
        assert ctx.nu >= 1.0
        assert ctx.nu + 1.0 / ctx.nu == pytest.approx(delta, rel=1e-15)


def test_delta_must_be_finite():
    with pytest.raises(InvalidArgument):
        nu_from_delta(math.nan)
    with pytest.raises(InvalidArgument):
        nu_from_delta(math.inf)


def test_slightly_low_delta_clamps_to_two():
    ctx = nu_from_delta(2.0 - 1e-12)
    assert ctx.delta == 2.0
    assert ctx.nu == 1.0


def test_qint_base_cases():
    for delta in (2.0, 2.3, 2.5):
        ctx = nu_from_delta(delta)
        assert ctx.qint(0) == 0.0
        assert ctx.qint(1) == 1.0
        assert ctx.qint(2) == pytest.approx(delta, abs=1e-15)


def test_qint_example_values():
    assert nu_from_delta(2.5).qint(3) == pytest.approx(5.25, abs=1e-12)
    assert nu_from_delta(2.0).qint(7) == 7.0


def test_qint_negative_rejected():
    ctx = nu_from_delta(2.2)
    with pytest.raises(InvalidArgument):
        ctx.qint(-1)


def test_qints_prefix():
    ctx = nu_from_delta(2.5)
    assert ctx.qints(0) == [0.0]
    assert ctx.qints(3) == [0.0, 1.0, 2.5, 5.25]
    assert ctx.qints(12) == [ctx.qint(k) for k in range(13)]
    with pytest.raises(InvalidArgument):
        ctx.qints(-1)


def test_overflow_raises_unsupported_index():
    ctx = nu_from_delta(2.5)
    with pytest.raises(UnsupportedIndex, match="overflows"):
        ctx.qint(1100)
    with pytest.raises(UnsupportedIndex, match="overflows"):
        ctx.qints(1100)


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(2.0, 2.5), k=st.integers(1, 30))
def test_recurrence_identity(delta, k):
    ctx = nu_from_delta(delta)
    lhs = ctx.delta * ctx.qint(k)
    rhs = ctx.qint(k - 1) + ctx.qint(k + 1)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, ctx.qint(k + 1))


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(2.0, 2.5), n=st.integers(1, 20))
def test_square_identity(delta, n):
    ctx = nu_from_delta(delta)
    lhs = ctx.qint(n + 1) ** 2
    rhs = ctx.qint(n) * ctx.qint(n + 2) + 1.0
    assert abs(lhs - rhs) <= 1e-9 * ctx.qint(n + 2) ** 2


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(2.0, 2.5), k=st.integers(1, 30))
def test_positivity(delta, k):
    assert nu_from_delta(delta).qint(k) > 0.0


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(2.0 + 1e-6, 2.5), k=st.integers(0, 30))
def test_recurrence_matches_closed_form(delta, k):
    ctx = nu_from_delta(delta)
    expected = direct_qint(delta, k)
    assert ctx.qint(k) == pytest.approx(expected, rel=1e-9, abs=1e-12)
