"""Triple point obstruction checks for candidate subfactor principal graph pairs.

The package computes quantum integers from an index parameter, Perron-
Frobenius dimensions of depth-graded candidate graphs, the battery of
obstruction tests at an initial triple point, and the branch matrix there
with the rotational eigenvalue it exposes.
"""

from . import errors
from .branch import BranchMatrix, apply_to_perp_vector, build_branch_matrix, extract_lambda, solve_phases
from .graph import (
    GradedBigraph,
    TriplePointData,
    dimension_vector,
    extract_triple_point,
    graph_norm,
    parse_graph,
    parse_pair,
    serialize_graph,
    serialize_pair,
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
    qt_test,
    rotational_test,
    run_battery,
    triple_single,
)
from .qnum import QuantumContext, nu_from_delta

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
    "apply_to_perp_vector",
    "build_branch_matrix",
    "dimension_vector",
    "errors",
    "extract_lambda",
    "extract_triple_point",
    "graph_norm",
    "nu_from_delta",
    "ocneanu_parity",
    "parse_graph",
    "parse_pair",
    "qt_test",
    "rotational_test",
    "run_battery",
    "serialize_graph",
    "serialize_pair",
    "solve_phases",
    "supertransitivity",
    "triple_single",
]
