"""Quantum integer arithmetic driven by the index parameter delta = [2].

A context holds delta and nothing else: it validates delta on construction,
refusing any delta below 2 (index < 4) by one rule, with no tolerance, and
each call runs the recurrence for the [k] it asks for, into a new list, so
a context never changes once built.  ``QuantumContext(delta)`` is its
one constructor; a graph pair's context is built from its principal graph's
norm by ``graph.extract_triple_point``.

Every value of the package is a ``typing.NamedTuple`` or a subclass of one.
A field cannot be assigned or deleted, and equality, hashing and ``repr``
go by the fields, as for a tuple, so a value equals a plain tuple of the
same fields.  ``QuantumContext`` and ``graph.GradedBigraph`` check their
fields in ``__new__``, and their ``_make``, and so ``_replace``, go through
it.  ``QuantumContext`` has no instance dict (``__slots__ = ()``), so no
attribute can be set on it; a ``GradedBigraph`` keeps its derived caches
(the vertex index and the solve) in its instance dict, outside the fields.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

from .errors import DimensionSumMismatch, InvalidArgument, UnsupportedIndex

#: Absolute (or, where stated, relative) tolerance of every internal
#: consistency check.  Obstruction verdicts use their own tolerance,
#: ``DEFAULT_TRACE_TOL``.
NUMERIC_TOL = 1e-9

#: Default verdict tolerance: how far p - q may exceed 1, and how far the trace
#: may miss a root of unity, before a test fails.  It sets only verdicts;
#: internal consistency checks use ``NUMERIC_TOL``.  It lives here, where
#: every request loads it, so the grammar of ``check --tol`` gives it as the
#: option's default and ``--help`` shows it without loading ``obstruct``.
DEFAULT_TRACE_TOL = 1e-6


class _Context(NamedTuple):
    delta: float


class QuantumContext(_Context):
    """Evaluation context for quantum integers.

    ``delta`` is the value [2], so the index is delta squared; it must be
    finite and at least 2: a delta below 2, however close, is index < 4 and
    refused.  It is exactly 2.0 only when given so; a tree's norm of 2 is
    decided exactly by ``graph._norm_is_two``.  All arithmetic is double
    precision; consistency checks use ``NUMERIC_TOL``.
    """

    __slots__ = ()  # no instance dict, so a context is its delta alone

    def __new__(cls, delta: float) -> QuantumContext:
        if not math.isfinite(delta):
            raise InvalidArgument("delta must be finite")
        if delta < 2:
            raise UnsupportedIndex(
                f"delta = {delta} < 2 means index < 4, outside the supported regime"
            )
        return super().__new__(cls, delta)

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> QuantumContext:
        return cls(*iterable)  # so ``_replace`` checks too

    def qint(self, k: int) -> float:
        """The quantum integer [k]."""
        if k < 0:
            raise InvalidArgument(f"k = {k} must be >= 0")
        return self.qints(k)[k]

    def qints(self, max_k: int) -> list[float]:
        """[0], [1], ..., [max_k] as a new list.

        Evaluated by the three-term recurrence [k+1] = delta*[k] - [k-1]
        with [0] = 0 and [1] = 1, which stays exact in the nu = 1 limit
        where the closed form degenerates to 0/0.
        """
        if max_k < 0:
            raise InvalidArgument(f"max_k = {max_k} must be >= 0")
        values = [0.0, 1.0]
        while len(values) <= max_k:
            values.append(self.delta * values[-1] - values[-2])
        # [k] grows with k for delta >= 2, so an overflow anywhere in the
        # recurrence leaves the last value infinite or NaN
        if not math.isfinite(values[max_k]):
            raise UnsupportedIndex(
                f"[{max_k}] overflows double precision at delta = {self.delta}"
            )
        return values[: max_k + 1]

    def check_dimension_sum(self, n: int, p: float, q: float) -> None:
        """Require p + q = [n+1] to ``NUMERIC_TOL``, relative to max(1, [n+1]).

        This is the eigenvalue equation at the branch vertex of depth n-1;
        the trace formula and the unit modulus of lambda both rest on it.
        """
        target = self.qint(n + 1)
        if abs(p + q - target) > NUMERIC_TOL * max(1.0, target):
            raise DimensionSumMismatch(
                f"p + q = {p + q!r} does not match [n+1] = {target!r}"
            )
