"""Exception types shared across the package."""


class TripointError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidArgument(TripointError):
    """An argument lies outside an operation's domain."""


class UnsupportedIndex(TripointError):
    """Outside the supported regime: delta < 2, or [k] or dimensions beyond double precision.

    A Perron solve that fails raises it too: no convergence, a zero pivot, a
    ``LinAlgError`` from numpy, or a vector that is not strictly positive.
    """


class ParseError(TripointError):
    """A graph file is syntactically malformed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidGraph(TripointError):
    """Graph data violates a structural invariant.

    ``edge_index`` is the position, in the order given, of the first edge
    that does not fit the counts, and None for any other violation.
    """

    def __init__(self, message: str, edge_index: int | None = None):
        super().__init__(message)
        self.edge_index = edge_index


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

