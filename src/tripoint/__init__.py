"""Triple point obstruction checks for candidate subfactor principal graph pairs.

The package computes quantum integers from an index parameter, Perron-
Frobenius dimensions of depth-graded candidate graphs, the battery of
obstruction tests at an initial triple point, and the branch matrix there
with the rotational eigenvalue it exposes.
"""

from . import errors
from .branch import BranchMatrix, build_branch_matrix
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
    "BranchMatrix",
    "DEFAULT_TRACE_TOL",
    "GradedBigraph",
    "ObstructionReport",
    "QuantumContext",
    "RatioRow",
    "RootCandidate",
    "TriplePointData",
    "Verdict",
    "allowed_ratios",
    "build_branch_matrix",
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
