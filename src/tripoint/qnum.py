"""Quantum integer arithmetic driven by the index parameter delta = [2]."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionSumMismatch, InvalidArgument, UnsupportedIndex

#: Absolute (or, where stated, relative) tolerance of every internal
#: consistency check.  Obstruction verdicts use their own tolerance, see
#: ``obstruct.DEFAULT_TRACE_TOL``.
NUMERIC_TOL = 1e-9


@dataclass(frozen=True)
class QuantumContext:
    """Evaluation context for quantum integers.

    ``delta`` is the value [2], so the index is delta squared, and ``nu``
    satisfies nu + 1/nu = delta with nu >= 1.  All arithmetic is double
    precision; consistency checks use ``NUMERIC_TOL``.
    """

    delta: float
    nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and math.isfinite(self.nu)):
            raise InvalidArgument("delta and nu must be finite")
        if self.delta < 2:
            raise UnsupportedIndex(
                f"delta = {self.delta} < 2 means index < 4, outside the supported regime"
            )
        if self.nu < 1:
            raise InvalidArgument(f"nu = {self.nu} must be >= 1")
        if abs(self.nu + 1.0 / self.nu - self.delta) > NUMERIC_TOL:
            raise InvalidArgument("nu + 1/nu does not match delta")

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
    """Context for a given delta >= 2, solving nu + 1/nu = delta with nu >= 1.

    Values within ``NUMERIC_TOL`` below 2 are clamped to 2, so spectral radii
    that round a hair under the theoretical bound still construct.
    """
    if not math.isfinite(delta):
        raise InvalidArgument("delta must be finite")
    if delta < 2 - NUMERIC_TOL:
        raise UnsupportedIndex(
            f"delta = {delta} < 2 means index < 4, outside the supported regime"
        )
    delta = max(delta, 2.0)
    nu = (delta + math.sqrt(delta * delta - 4.0)) / 2.0
    return QuantumContext(delta=delta, nu=nu)
