"""Quantum integer arithmetic driven by the index parameter delta = [2].

A context holds delta alone and validates it on construction; nu, the root
nu >= 1 of nu + 1/nu = delta, is derived from it.  A graph pair's context is
built from its principal graph's norm by ``graph.extract_triple_point``.
"""

from __future__ import annotations

import math

from .errors import DimensionSumMismatch, InvalidArgument, UnsupportedIndex

#: Absolute (or, where stated, relative) tolerance of every internal
#: consistency check.  Obstruction verdicts use their own tolerance, see
#: ``obstruct.DEFAULT_TRACE_TOL``.
NUMERIC_TOL = 1e-9


class Frozen:
    """Base of the package's immutable values, in place of a frozen dataclass.

    A subclass lists its fields in ``_fields`` and its ``__init__`` validates
    them and then sets them, in that order, with ``_freeze``.  From then on
    assigning or deleting an attribute raises ``AttributeError``, and
    equality, hashing and ``repr`` go by the fields.  ``functools.
    cached_property`` still works, since it writes the instance dict directly.
    ``dataclasses`` is not used: importing it loads ``inspect`` and ``ast``,
    which take longer than importing the whole CLI without them.
    """

    _fields: tuple[str, ...] = ()

    def _freeze(self, *values: object) -> None:
        vars(self).update(zip(self._fields, values, strict=True))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class QuantumContext(Frozen):
    """Evaluation context for quantum integers.

    ``delta`` is the value [2], so the index is delta squared; it must be
    finite and at least 2.  All arithmetic is double precision; consistency
    checks use ``NUMERIC_TOL``.
    """

    _fields = ("delta",)
    delta: float

    def __init__(self, delta: float) -> None:
        if not math.isfinite(delta):
            raise InvalidArgument("delta must be finite")
        if delta < 2:
            raise UnsupportedIndex(
                f"delta = {delta} < 2 means index < 4, outside the supported regime"
            )
        self._freeze(delta)

    @property
    def nu(self) -> float:
        """The root nu >= 1 of nu + 1/nu = delta."""
        half = self.delta / 2.0
        # the square root is split so that it neither overflows for huge delta
        # nor cancels near delta = 2
        return half + math.sqrt(half - 1.0) * math.sqrt(half + 1.0)

    def _require_finite(self, value: float, k: int) -> float:
        # [k] grows with k for delta >= 2, so an overflow anywhere in the
        # recurrence leaves the last value infinite or NaN
        if not math.isfinite(value):
            raise UnsupportedIndex(
                f"[{k}] overflows double precision at delta = {self.delta}"
            )
        return value

    def qint(self, k: int) -> float:
        """The quantum integer [k].

        Evaluated by the three-term recurrence [k+1] = delta*[k] - [k-1]
        with [0] = 0 and [1] = 1, which stays exact in the nu = 1 limit
        where the closed form degenerates to 0/0.
        """
        if k < 0:
            raise InvalidArgument(f"k = {k} must be >= 0")
        if k == 0:
            return 0.0
        prev, cur = 0.0, 1.0
        for _ in range(k - 1):
            prev, cur = cur, self.delta * cur - prev
        return self._require_finite(cur, k)

    def qints(self, max_k: int) -> list[float]:
        """[0], [1], ..., [max_k] as a list."""
        if max_k < 0:
            raise InvalidArgument(f"max_k = {max_k} must be >= 0")
        values = [0.0, 1.0]
        while len(values) <= max_k:
            values.append(self.delta * values[-1] - values[-2])
        self._require_finite(values[max_k], max_k)
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


def nu_from_delta(delta: float) -> QuantumContext:
    """Context for a given delta >= 2.

    Values within ``NUMERIC_TOL`` below 2 are clamped to 2, so spectral radii
    that round a hair under the theoretical bound still construct.
    """
    if 2.0 - NUMERIC_TOL <= delta < 2.0:
        delta = 2.0
    return QuantumContext(delta)
