"""Triple point obstruction checks for candidate subfactor principal graph pairs.

The package computes quantum integers from an index parameter, Perron-
Frobenius dimensions of depth-graded candidate graphs, and the battery of
obstruction tests at an initial triple point.

Importing the package loads only ``tripoint.errors``.  Every other public
name is imported from its home module on first access, so a program that
uses only quantum integers or ratio tables never loads the graph layer.
"""

from . import errors

__version__ = "0.1.0"

#: Home module of each public name besides ``errors``.
_HOMES = {
    "DEFAULT_TRACE_TOL": "qnum",
    "GradedBigraph": "graph",
    "ObstructionReport": "obstruct",
    "QuantumContext": "qnum",
    "RatioRow": "obstruct",
    "RootCandidate": "obstruct",
    "TriplePointData": "graph",
    "Verdict": "obstruct",
    "allowed_ratios": "obstruct",
    "extract_triple_point": "graph",
    "graph_norm": "graph",
    "ocneanu_parity": "obstruct",
    "parse_graph": "graph",
    "parse_pair": "graph",
    "rotational_test": "obstruct",
    "run_battery": "obstruct",
    "supertransitivity": "graph",
    "triple_single": "obstruct",
}

__all__ = sorted([*_HOMES, "errors"])


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
