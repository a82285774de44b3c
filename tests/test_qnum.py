"""Quantum integer arithmetic."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripoint.errors import InvalidArgument, UnsupportedIndex
from tripoint.qnum import NUMERIC_TOL, QuantumContext


def direct_qint(delta: float, k: int) -> float:
    """Independent oracle: the closed form (nu^k - nu^-k)/(nu - 1/nu)."""
    nu = (delta + math.sqrt(delta * delta - 4.0)) / 2.0
    return (nu**k - nu**-k) / (nu - 1.0 / nu)


def test_nu_at_boundary():
    """At delta = 2, nu = 1, where the closed form is 0/0: [k] = k exactly."""
    assert QuantumContext(2.0).qints(12) == [float(k) for k in range(13)]


def test_nu_at_two_and_a_half():
    """delta = 2.5 is nu = 2, where [k] = (2^k - 2^-k) / (2 - 1/2)."""
    ctx = QuantumContext(2.5)
    for k in range(20):
        assert ctx.qint(k) == pytest.approx((2.0**k - 2.0**-k) / 1.5, rel=1e-12)


def test_nu_at_sqrt_five_is_golden_ratio():
    # nu is the golden ratio phi, and phi - 1/phi = 1, so [k] = phi^k - phi^-k
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    ctx = QuantumContext(math.sqrt(5.0))
    for k in range(20):
        assert ctx.qint(k) == pytest.approx(phi**k - phi**-k, rel=1e-12)


def test_context_invariant():
    """[2] is delta, and [k]^2 - [k-1][k+1] = 1 (the quantum Cassini identity)."""
    for delta in (2.0, 2.1, 2.25, math.sqrt(5.0), 2.5):
        q = QuantumContext(delta).qints(20)
        assert q[2] == delta
        for k in range(1, 20):
            assert abs(q[k] ** 2 - q[k - 1] * q[k + 1] - 1.0) <= 1e-12 * q[k + 1] ** 2


def test_a_context_never_equals_a_bare_float():
    ctx = QuantumContext(2.5)
    assert ctx.__eq__(2.5) is NotImplemented
    assert ctx != 2.5
    assert ctx == QuantumContext(2.5)
    with pytest.raises(AttributeError):  # no instance dict: delta is all a context holds
        ctx.cache = []


def test_context_validates_delta_directly():
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidArgument, match="delta must be finite"):
            QuantumContext(bad)
    with pytest.raises(UnsupportedIndex, match="index < 4"):
        QuantumContext(1.9)
    for delta in (2.0, 2.0 + 1e-12, 2.1, math.sqrt(5.0), 2.5, 1e200):
        ctx = QuantumContext(delta)
        assert ctx.delta == delta
        assert ctx.qints(2) == [0.0, 1.0, delta]


def test_slightly_low_delta_is_refused():
    """The one constructor refuses every delta below 2, however close; 2.0 itself is index 4."""
    for delta in (2.0 - 1e-12, math.nextafter(2.0, 0.0), 2.0 - NUMERIC_TOL, 2.0 - 2.0 * NUMERIC_TOL):
        with pytest.raises(UnsupportedIndex) as exc:
            QuantumContext(delta)
        assert str(exc.value) == f"delta = {delta!r} < 2 means index < 4, outside the supported regime"
    ctx = QuantumContext(2.0)
    assert ctx.delta == 2.0
    assert ctx.qint(7) == 7.0


def test_qint_base_cases():
    for delta in (2.0, 2.3, 2.5):
        ctx = QuantumContext(delta)
        assert ctx.qint(0) == 0.0
        assert ctx.qint(1) == 1.0
        assert ctx.qint(2) == pytest.approx(delta, abs=1e-15)


def test_qint_example_values():
    assert QuantumContext(2.5).qint(3) == pytest.approx(5.25, abs=1e-12)
    assert QuantumContext(2.0).qint(7) == 7.0


def test_qint_negative_rejected():
    ctx = QuantumContext(2.2)
    with pytest.raises(InvalidArgument):
        ctx.qint(-1)


def test_qints_prefix():
    ctx = QuantumContext(2.5)
    assert ctx.qints(0) == [0.0]
    assert ctx.qints(3) == [0.0, 1.0, 2.5, 5.25]
    assert ctx.qints(12) == [ctx.qint(k) for k in range(13)]
    with pytest.raises(InvalidArgument):
        ctx.qints(-1)


def test_overflow_raises_unsupported_index():
    ctx = QuantumContext(2.5)
    with pytest.raises(UnsupportedIndex, match="overflows"):
        ctx.qint(1100)
    with pytest.raises(UnsupportedIndex, match="overflows"):
        ctx.qints(1100)


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(2.0, 2.5), k=st.integers(1, 30))
def test_recurrence_identity(delta, k):
    ctx = QuantumContext(delta)
    lhs = ctx.delta * ctx.qint(k)
    rhs = ctx.qint(k - 1) + ctx.qint(k + 1)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, ctx.qint(k + 1))


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(2.0, 2.5), n=st.integers(1, 20))
def test_square_identity(delta, n):
    ctx = QuantumContext(delta)
    lhs = ctx.qint(n + 1) ** 2
    rhs = ctx.qint(n) * ctx.qint(n + 2) + 1.0
    assert abs(lhs - rhs) <= 1e-9 * ctx.qint(n + 2) ** 2


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(2.0, 2.5), k=st.integers(1, 30))
def test_positivity(delta, k):
    assert QuantumContext(delta).qint(k) > 0.0


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(2.0 + 1e-6, 2.5), k=st.integers(0, 30))
def test_recurrence_matches_closed_form(delta, k):
    ctx = QuantumContext(delta)
    expected = direct_qint(delta, k)
    assert ctx.qint(k) == pytest.approx(expected, rel=1e-9, abs=1e-12)
