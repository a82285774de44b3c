"""Ground truth: principal graphs of real subfactors are never excluded.

The affine Dynkin diagrams E6~, E7~, E8~ and D5~-D8~ are principal graphs of
index-4 subfactors (Popa's classification at index 4; Goodman, de la Harpe
and Jones, *Coxeter graphs and towers of algebras*).  Each has norm exactly
2, so its index is exactly 4, and its Perron-Frobenius vector is an integer
vector.  Rooted at a vertex of dimension 1 and self-paired, each one's p and
q are exact integers.  None of these facts comes from the program.

The Ocneanu parity obstruction needs index above 4: E6~ branches at even
depth 2, so at index 4 the test must be ``Inapplicable``, not ``Fail``.

Above index 4, the Haagerup subfactor has index (5 + sqrt 13)/2, and its
principal graph is the spider with three legs of 3 edges.
"""

import json
import math

import pytest

import helpers
from tripoint.cli import main
from tripoint.graph import dimension_vector, graph_norm
from tripoint.obstruct import Verdict, run_battery


def star(*arms: int) -> list[helpers.LabeledEdge]:
    """A centre ``c`` with one arm of each given length; arm 0 ends at ``a0.{arms[0] - 1}``."""
    edges = []
    for a, length in enumerate(arms):
        prev = "c"
        for i in range(length):
            edges.append((prev, f"a{a}.{i}"))
            prev = f"a{a}.{i}"
    return edges


def affine_d(m: int) -> list[helpers.LabeledEdge]:
    """D~m, m + 1 vertices: a chain c1..c(m-3) with two leaves at each end."""
    chain = [f"c{i}" for i in range(1, m - 2)]
    edges = list(zip(chain, chain[1:]))
    edges += [("x1", chain[0]), ("x2", chain[0]), (chain[-1], "y1"), (chain[-1], "y2")]
    return edges


#: name -> (edges, root of dimension 1, branch arm depth n, p, q); every index is 4.
AFFINE = {
    "E6~": (star(2, 2, 2), "a0.1", 3, 2, 2),
    "E7~": (star(3, 3, 1), "a0.2", 4, 3, 2),
    "E8~": (star(5, 2, 1), "a0.4", 6, 4, 3),
    **{f"D{m}~": (affine_d(m), "x1", 2, 2, 1) for m in (5, 6, 7, 8)},
}


@pytest.mark.parametrize("name", AFFINE)
def test_affine_diagrams_are_index_four_and_never_fail(name):
    edges, root, n, p, q = AFFINE[name]
    principal, dual = helpers.self_paired(edges, root)
    assert graph_norm(principal) ** 2 == pytest.approx(4.0, abs=1e-12)
    dims = dimension_vector(principal).values()
    assert all(d == pytest.approx(round(d), rel=1e-12) for d in dims)
    report = run_battery(principal, dual)
    assert report.delta == 2.0
    assert (report.n, report.p, report.q) == (n, pytest.approx(p, rel=1e-12), pytest.approx(q, rel=1e-12))
    assert report.verdicts["ocneanu_parity"] is Verdict.INAPPLICABLE
    assert Verdict.FAIL not in report.verdicts.values()


#: The Haagerup principal graph rooted at the end of a leg: depth counts 1 1 1 1 2 2 2.
HAAGERUP = helpers.grade_tree(star(3, 3, 3), "a0.2")

#: The one tree of the right norm found for Haagerup's dual among "a string of
#: 3 edges, then a leaf plus a subtree of at most 7 vertices": depth counts
#: 1 1 1 1 2 1 1 2 1.  It is not checked against a drawing in the literature,
#: so the pair is only required not to fail.
HAAGERUP_DUAL = helpers.grade_tree(
    [("r", "s1"), ("s1", "s2"), ("s2", "b"), ("b", "L"), ("b", "x4"), ("x4", "x5"),
     ("x5", "x6"), ("x6", "y7"), ("y7", "w8"), ("x6", "z7")],
    "r",
)


def test_haagerup_principal_graph_has_the_haagerup_index():
    assert HAAGERUP.vertex_counts == (1, 1, 1, 1, 2, 2, 2)
    assert graph_norm(HAAGERUP) ** 2 == pytest.approx((5 + math.sqrt(13)) / 2, abs=1e-12)
    report = run_battery(HAAGERUP, HAAGERUP)
    assert report.n == 4
    assert report.p == pytest.approx((3 + math.sqrt(13)) / 2, abs=1e-12)
    assert report.q == pytest.approx((3 + math.sqrt(13)) / 2, abs=1e-12)


def test_haagerup_with_its_dual_candidate_never_fails():
    assert HAAGERUP_DUAL.vertex_counts == (1, 1, 1, 1, 2, 1, 1, 2, 1)
    report = run_battery(HAAGERUP, HAAGERUP_DUAL)
    assert Verdict.FAIL not in report.verdicts.values()


def test_check_of_affine_e6_exits_zero(tmp_path, capsys):
    edges, root, *_ = AFFINE["E6~"]
    path = tmp_path / "e6.pair"
    path.write_text(helpers.pair_text(*helpers.self_paired(edges, root)))
    assert main(["check", "--format", "json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] == 2.0
    assert payload["verdicts"]["ocneanu_parity"] == "Inapplicable"
