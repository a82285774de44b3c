"""Exception types shared across the package."""


class TripointError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidArgument(TripointError):
    """An argument lies outside an operation's domain."""


class UnsupportedIndex(TripointError):
    """Outside the supported regime: delta < 2, or [k] or dimensions beyond double precision."""


class ParseError(TripointError):
    """A graph file is syntactically malformed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidGraph(TripointError):
    """Graph data violates a structural invariant."""


class NormMismatch(TripointError):
    """Principal and dual graph norms disagree."""


class SupertransitivityMismatch(TripointError):
    """Principal and dual graphs branch at different depths."""


class NotATriplePoint(TripointError):
    """The initial branch is missing or is not a simple triple point."""


class NoUnitaryPhase(TripointError):
    """No unit-modulus phases satisfy 1 + sigma*p + tau*q = 0."""


class DimensionSumMismatch(TripointError):
    """p + q differs from [n+1], so the rotational eigenvalue is undefined."""

