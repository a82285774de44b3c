"""What the package offers its users: its public names, and the Python versions it parses on.

Every public function or method of ``src/tripoint``, and every field of a
public record, must be used by the program itself or be named in the
README's Library section, so that no surface survives for the tests alone;
test-only views of the program live in ``tests/helpers.py``.
``pyproject.toml`` promises Python 3.10, so every source file must parse as
3.10 syntax.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import tripoint

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tripoint"

PUBLIC_NAMES = [
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


#: The module that defines each public name besides ``errors``.
HOMES = {
    "graph": [
        "GradedBigraph", "TriplePointData", "extract_triple_point", "graph_norm",
        "parse_graph", "parse_pair", "supertransitivity",
    ],
    "obstruct": [
        "ObstructionReport", "RatioRow", "RootCandidate", "Verdict",
        "allowed_ratios", "ocneanu_parity", "rotational_test", "run_battery", "triple_single",
    ],
    "qnum": ["DEFAULT_TRACE_TOL", "QuantumContext"],
}


def test_public_names_are_exactly_these():
    assert tripoint.__all__ == PUBLIC_NAMES
    assert all(hasattr(tripoint, name) for name in PUBLIC_NAMES)


def test_each_public_name_is_the_object_of_its_home_module():
    assert sorted([*(name for names in HOMES.values() for name in names), "errors"]) == PUBLIC_NAMES
    for module, names in HOMES.items():
        home = importlib.import_module(f"tripoint.{module}")
        for name in names:
            assert getattr(tripoint, name) is getattr(home, name), name
    assert tripoint.errors is importlib.import_module("tripoint.errors")


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from tripoint import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(tripoint))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'tripoint' has no attribute 'graph_norms'$"):
        tripoint.graph_norms


def library_words() -> set[str]:
    """The words of the README's Library section."""
    readme = (ROOT / "README.md").read_text()
    start = readme.index("## Library")
    return set(re.findall(r"\w+", readme[start : readme.index("\n## ", start)]))


def public_functions(tree: ast.Module):
    """Names of the module-level functions and class methods that do not start with ``_``."""
    for node in tree.body:
        bodies = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in bodies:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield item.name


def test_every_public_function_is_used_by_the_program_or_documented():
    modules = {
        path.name: ast.parse(path.read_text())
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"  # re-exports are not uses
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    documented = library_words()
    unused = sorted(
        f"{module}:{name}"
        for module, tree in modules.items()
        for name in public_functions(tree)
        if name not in used and name not in documented
    )
    assert unused == []


def test_every_record_field_is_read_by_the_program_or_documented():
    """Each field of a public NamedTuple is read as an attribute in ``src/tripoint``."""
    read = {
        node.attr
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    documented = library_words()
    records = [getattr(tripoint, name) for name in tripoint.__all__]
    unread = sorted(
        f"{record.__name__}.{field}"
        for record in records
        if isinstance(record, type) and issubclass(record, tuple)
        for field in record._fields
        if field not in read and field not in documented
    )
    assert unread == []


SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_3_10_parse_refuses_3_11_syntax():
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
