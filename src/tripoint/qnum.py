"""Quantum integer arithmetic driven by the index parameter delta = [2]."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgument, UnsupportedIndex

#: Default absolute tolerance for scalar comparisons.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class QuantumContext:
    """Evaluation context for quantum integers.

    ``delta`` is the value [2], so the index is delta squared, and ``nu``
    satisfies nu + 1/nu = delta with nu >= 1.  All arithmetic is double
    precision; comparisons use the absolute tolerance ``tol``.
    """

    delta: float
    nu: float
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise InvalidArgument("tol must be positive")
        if not (math.isfinite(self.delta) and math.isfinite(self.nu)):
            raise InvalidArgument("delta and nu must be finite")
        if self.delta < 2:
            raise UnsupportedIndex(
                f"delta = {self.delta} < 2 means index < 4, outside the supported regime"
            )
        if self.nu < 1:
            raise InvalidArgument(f"nu = {self.nu} must be >= 1")
        if abs(self.nu + 1.0 / self.nu - self.delta) > self.tol:
            raise InvalidArgument("nu + 1/nu does not match delta")

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
        return cur

    def qints(self, max_k: int) -> list[float]:
        """[0], [1], ..., [max_k] as a list."""
        if max_k < 0:
            raise InvalidArgument(f"max_k = {max_k} must be >= 0")
        values = [0.0, 1.0]
        while len(values) <= max_k:
            values.append(self.delta * values[-1] - values[-2])
        return values[: max_k + 1]


def nu_from_delta(delta: float, tol: float = DEFAULT_TOL) -> QuantumContext:
    """Context for a given delta >= 2, solving nu + 1/nu = delta with nu >= 1.

    Values within ``tol`` below 2 are clamped to 2, so spectral radii that
    round a hair under the theoretical bound still construct.
    """
    if not math.isfinite(delta):
        raise InvalidArgument("delta must be finite")
    if delta < 2 - tol:
        raise UnsupportedIndex(
            f"delta = {delta} < 2 means index < 4, outside the supported regime"
        )
    delta = max(delta, 2.0)
    nu = (delta + math.sqrt(delta * delta - 4.0)) / 2.0
    return QuantumContext(delta=delta, nu=nu, tol=tol)
