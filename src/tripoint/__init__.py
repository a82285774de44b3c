"""Triple point obstruction checks for candidate subfactor principal graph pairs.

The package computes quantum integers from an index parameter, Perron-
Frobenius dimensions of depth-graded candidate graphs, and the battery of
obstruction tests at an initial triple point.
"""

from . import errors
from .graph import (
    GradedBigraph,
    TriplePointData,
    extract_triple_point,
    graph_norm,
    parse_graph,
    parse_pair,
    supertransitivity,
)
from .obstruct import (
    DEFAULT_TRACE_TOL,
    ObstructionReport,
    RatioRow,
    RootCandidate,
    Verdict,
    allowed_ratios,
    ocneanu_parity,
    rotational_test,
    run_battery,
    triple_single,
)
from .qnum import QuantumContext

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TRACE_TOL",
    "GradedBigraph",
    "ObstructionReport",
    "QuantumContext",
    "RatioRow",
    "RootCandidate",
    "TriplePointData",
    "Verdict",
    "allowed_ratios",
    "errors",
    "extract_triple_point",
    "graph_norm",
    "ocneanu_parity",
    "parse_graph",
    "parse_pair",
    "rotational_test",
    "run_battery",
    "supertransitivity",
    "triple_single",
]
