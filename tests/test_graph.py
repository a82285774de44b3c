"""Graded graphs: parsing, spectra, supertransitivity, triple point extraction."""

import math
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from tripoint import graph as graph_module
from tripoint.errors import (
    InvalidGraph,
    NormMismatch,
    NotATriplePoint,
    ParseError,
    SupertransitivityMismatch,
    TripointError,
    UnsupportedIndex,
)
from tripoint.graph import (
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
from tripoint.qnum import nu_from_delta

BRANCHED_TEXT = "depths: 5\ncounts: 1 1 1 1 2\nedges: 0:0-0 1:0-0 2:0-0 3:0-0 3:0-1"


def path_graph(vertices: int) -> GradedBigraph:
    return GradedBigraph(
        (1,) * vertices, tuple((d, 0, 0) for d in range(vertices - 1))
    )


def eigh_perron(g: GradedBigraph) -> tuple[float, np.ndarray]:
    """Spectral oracle via a dense eigensolve of the full adjacency matrix."""
    w, v = np.linalg.eigh(g.adjacency())
    vec = np.abs(v[:, -1])
    return float(w[-1]), vec / vec[0]


def cycle_graphs() -> dict[GradedBigraph, str]:
    """Graded graphs with a cycle, which take the dense solve, graded from several roots."""
    graphs = {}
    for branch_depth, tail in ((2, 0), (3, 1), (3, 3), (4, 2)):
        edges = helpers.reconverging_arms(branch_depth, tail)
        for root in ("s0", "x", "c"):
            graphs[helpers.grade_tree(edges, root)] = f"arms{branch_depth}-tail{tail}@{root}"
    return graphs


CYCLE_GRAPH = helpers.grade_tree(helpers.reconverging_arms(3), "s0")


# ---------------------------------------------------------------------------
# parsing

def test_parse_single_edge_path():
    g = parse_graph("depths: 2\ncounts: 1 1\nedges: 0:0-0")
    assert g.vertex_counts == (1, 1)
    assert g.edges == ((0, 0, 0),)


def test_parse_branched_fixture():
    g = parse_graph(BRANCHED_TEXT)
    assert g.vertex_counts == (1, 1, 1, 1, 2)
    assert supertransitivity(g) == (3, True)


def test_parse_rejects_edge_depth_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_graph("depths: 2\ncounts: 1 1\nedges: 5:0-0")


def test_parse_rejects_bad_edge_token():
    with pytest.raises(ParseError, match="bad edge token"):
        parse_graph("depths: 2\ncounts: 1 1\nedges: 0:0->0")


def test_parse_rejects_vertex_index_out_of_range():
    with pytest.raises(ParseError, match="vertex index"):
        parse_graph("depths: 2\ncounts: 1 1\nedges: 0:0-1")


def test_parse_rejects_wrong_counts_length():
    with pytest.raises(ParseError, match="counts"):
        parse_graph("depths: 3\ncounts: 1 1\nedges: 0:0-0")


def test_parse_rejects_wrong_key_order():
    with pytest.raises(ParseError, match="expected 'depths:'"):
        parse_graph("counts: 1 1\ndepths: 2\nedges: 0:0-0")


def test_parse_reports_line_numbers():
    text = "# a comment\ndepths: 2\ncounts: 1 1\nedges: 0:0-0 9:0-0"
    with pytest.raises(ParseError, match="line 4"):
        parse_graph(text)


def test_parse_allows_comments_and_blank_lines():
    text = "# comment\n\ndepths: 2\n# another\ncounts: 1 1\nedges: 0:0-0\n\n"
    assert parse_graph(text).edges == ((0, 0, 0),)


def test_parse_single_vertex_graph():
    g = parse_graph("depths: 1\ncounts: 1\nedges:")
    assert g.vertex_count == 1
    assert g.edges == ()


def test_parse_rejects_trailing_content():
    with pytest.raises(ParseError, match="unexpected content"):
        parse_graph("depths: 2\ncounts: 1 1\nedges: 0:0-0\ndepths: 2")


def test_parse_pair_and_sections():
    principal = parse_graph(BRANCHED_TEXT)
    dual = path_graph(3)
    text = serialize_pair(principal, dual)
    back_p, back_d = parse_pair(text)
    assert back_p == principal
    assert back_d == dual
    assert back_p is not back_d


def test_parse_pair_requires_sections():
    with pytest.raises(ParseError, match="principal"):
        parse_pair(BRANCHED_TEXT)
    with pytest.raises(ParseError, match="dual"):
        parse_pair("[principal]\n" + BRANCHED_TEXT)


def test_parse_pair_identical_sections_share_one_graph(monkeypatch):
    g = parse_graph(BRANCHED_TEXT)
    parsed = []
    parse_block = graph_module._parse_block_exact
    monkeypatch.setattr(
        graph_module, "_parse_block_exact", lambda lines: parsed.append(lines) or parse_block(lines)
    )
    principal, dual = parse_pair(serialize_pair(g, g))
    assert principal is dual
    assert principal == g
    assert len(parsed) == 1  # the dual section is not parsed again


@pytest.mark.parametrize(
    "dual_text",
    [
        "# the same lines, indented and commented\n\n  depths: 5\n  counts: 1 1 1 1 2\n"
        "  edges: 0:0-0 1:0-0 2:0-0 3:0-0 3:0-1  \n",
        "depths: 5\ncounts: 1 1 1 1 2\nedges: 3:0-1 0:0-0 2:0-0 3:0-0 1:0-0\n",
        "depths:   5\n# a comment\ncounts: 1 1  1 1 2\nedges: 0:0-0 1:0-0  2:0-0 3:0-0 3:0-1\n",
    ],
    ids=["indent-and-comments", "reordered-edges", "inner-spacing"],
)
def test_parse_pair_self_dual_rewrites_share_one_graph(dual_text):
    principal, dual = parse_pair(f"[principal]\n{BRANCHED_TEXT}\n[dual]\n{dual_text}")
    assert principal is dual
    assert principal == parse_graph(BRANCHED_TEXT)


def test_parse_pair_same_spectrum_graphs_stay_distinct():
    pair = helpers.two_rooted_pair(0)
    principal, dual = parse_pair(serialize_pair(*pair))
    assert principal is not dual
    assert (principal, dual) == pair


def test_parse_pair_bad_dual_token_reports_dual_line():
    text = f"[principal]\n{BRANCHED_TEXT}\n[dual]\n{BRANCHED_TEXT.replace('3:0-1', '3:0+1')}\n"
    with pytest.raises(ParseError, match="line 8: bad edge token '3:0\\+1'") as info:
        parse_pair(text)
    assert info.value.line == 8


def test_invalid_graph_root_count():
    with pytest.raises(InvalidGraph, match="depth 0"):
        parse_graph("depths: 2\ncounts: 2 1\nedges: 0:0-0")


def test_invalid_graph_ungraded_vertex():
    with pytest.raises(InvalidGraph, match="not graded"):
        parse_graph("depths: 3\ncounts: 1 2 1\nedges: 0:0-0 1:0-0 1:1-0")


@st.composite
def graded_candidates(draw):
    """Vertex counts and an edge list (with repeats) between consecutive depths.

    Half the draws give every deeper vertex a downward edge, so they are
    graded; the rest usually are not.
    """
    counts = [1] + draw(st.lists(st.integers(1, 4), max_size=5))
    pairs = [(d, u, v) for d in range(len(counts) - 1)
             for u in range(counts[d]) for v in range(counts[d + 1])]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    if draw(st.booleans()):
        edges += [(d - 1, draw(st.integers(0, counts[d - 1] - 1)), v)
                  for d in range(1, len(counts)) for v in range(counts[d])]
    return tuple(counts), draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(candidate=graded_candidates())
def test_lookups_match_edge_scans(candidate):
    counts, edges = candidate
    # straight-line definitions, scanning the whole edge list each time
    not_graded = None
    for d in range(1, len(counts)):
        missing = sorted(set(range(counts[d])) - {v for dd, _, v in edges if dd == d - 1})
        if missing:
            not_graded = (
                f"vertex {missing[0]} at depth {d} has no edge to depth {d - 1} (graph not graded)"
            )
            break
    if not_graded is not None:
        with pytest.raises(InvalidGraph) as excinfo:
            GradedBigraph(counts, edges)
        assert str(excinfo.value) == not_graded
        return

    g = GradedBigraph(counts, edges)
    for depth in range(len(counts) + 1):
        assert g.vertex_offset(depth) == sum(counts[:depth])
    expected = np.zeros((sum(counts), sum(counts)))
    for d, u, v in edges:
        i, j = sum(counts[:d]) + u, sum(counts[: d + 1]) + v
        expected[i, j] += 1.0
        expected[j, i] += 1.0
    assert np.array_equal(g.adjacency(), expected)
    for d, count in enumerate(counts):
        for i in range(count):
            up = sum(1 for dd, u, _ in edges if dd == d and u == i)
            down = sum(1 for dd, _, v in edges if dd == d - 1 and v == i)
            assert g.up_degree(d, i) == up
            assert g.down_degree(d, i) == down
            assert g.valence(d, i) == up + down
            ups = Counter(v for dd, u, v in edges if dd == d and u == i)
            assert g.up_multiplicities(d, i) == dict(ups)


def test_invalid_graph_constructor_edge_range():
    with pytest.raises(InvalidGraph, match="out-of-range"):
        GradedBigraph((1, 1), ((0, 0, 5),))


def test_equal_graphs_hash_equal_whatever_their_edge_order():
    edges = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (3, 0, 1))
    g = GradedBigraph((1, 1, 1, 1, 2), edges)
    shuffled = GradedBigraph(
        np.array([1, 1, 1, 1, 2]), [tuple(np.int64(x) for x in e) for e in reversed(edges)]
    )
    assert g.edges == shuffled.edges == edges
    assert all(type(x) is int for x in shuffled.vertex_counts + sum(shuffled.edges, ()))
    assert g == shuffled
    assert hash(g) == hash(shuffled)
    assert len({g, shuffled}) == 1
    assert g != GradedBigraph((1, 1, 1, 1, 2), edges + ((3, 0, 1),))


def test_tree_classifier_allows_multiple_edges_and_rejects_cycles():
    doubled = helpers.grade_tree(helpers.branched_tree(3, (), (2,), doubled_tail=True), "p0")
    assert doubled._tree is not None
    assert max(m for _, _, m, _ in doubled._tree.links) == 2.0
    assert CYCLE_GRAPH._tree is None
    for g in cycle_graphs():
        assert g._tree is None


@settings(max_examples=300, deadline=None)
@given(candidate=graded_candidates())
def test_tree_classifier_and_both_solves_agree(candidate):
    """A graph is a tree when no vertex has two distinct neighbours one depth up.

    For trees the standard-library solve must match the dense one, which is
    the only solver for graphs with a cycle.
    """
    counts, edges = candidate
    try:
        g = GradedBigraph(counts, edges)
    except InvalidGraph:
        return
    lower = {}
    for d, u, v in edges:
        lower.setdefault((d + 1, v), set()).add(u)
    assert (g._tree is None) == any(len(ups) > 1 for ups in lower.values())
    if g._tree is None or g.vertex_count == 1:
        return
    delta, vec = graph_module._tree_perron(g._tree)
    dense_delta, dense_vec = graph_module._dense_perron(g)
    assert delta == pytest.approx(dense_delta, rel=1e-14)
    assert vec == pytest.approx(dense_vec, abs=1e-12)


def test_round_trip_identity():
    graphs = [
        path_graph(2),
        path_graph(6),
        parse_graph(BRANCHED_TEXT),
        helpers.grade_tree(helpers.branched_tree(3, (), (4,)), "p0"),
        helpers.grade_tree(helpers.branched_tree(3, (), (2,), doubled_tail=True), "p0"),
        helpers.grade_tree(helpers.two_rooted_tree(), "a"),
        helpers.grade_tree(helpers.two_rooted_tree(), "b"),
    ]
    for g in graphs:
        assert parse_graph(serialize_graph(g)) == g


# ---------------------------------------------------------------------------
# spectra

def test_norm_single_edge():
    assert graph_norm(path_graph(2)) == pytest.approx(1.0, abs=1e-10)


def test_norm_path_closed_form():
    for m in range(2, 13):
        assert graph_norm(path_graph(m)) == pytest.approx(
            2.0 * math.cos(math.pi / (m + 1)), abs=1e-10
        )


def test_norm_star():
    # star with m leaves has norm sqrt(m)
    for leaves in (4, 5):
        star = GradedBigraph((1, leaves), tuple((0, 0, v) for v in range(leaves)))
        assert graph_norm(star) == pytest.approx(math.sqrt(leaves), abs=1e-10)


def test_norm_matches_dense_solver_on_corpus():
    for name, principal, _ in helpers.battery_corpus():
        expected, _ = eigh_perron(principal)
        assert graph_norm(principal) == pytest.approx(expected, abs=1e-10), name


def test_spectrum_matches_30_digit_mpmath_on_small_corpus():
    """Method-independent oracle: an mpmath eigensolve at 30 digits.

    The corpus trees take the standard-library solve, the graphs with a
    cycle the dense one.
    """
    graphs = {
        g: name
        for name, principal, dual in helpers.battery_corpus()
        for g in (principal, dual)
        if g.vertex_count <= 13
    }
    small_cycles = {g: name for g, name in cycle_graphs().items() if g.vertex_count <= 13}
    assert len(small_cycles) >= 6
    graphs.update(small_cycles)
    with mpmath.workdps(30):
        for g, name in graphs.items():
            w, v = mpmath.eigsy(mpmath.matrix(g.adjacency().tolist()))
            top = g.vertex_count - 1
            norm = graph_norm(g)
            assert abs(norm - w[top]) <= 1e-12, name
            dims = dimension_vector(g)
            got = [dims[(d, i)] for d in range(g.depth_count) for i in range(g.vertex_counts[d])]
            for k, value in enumerate(got):
                expected = float(v[k, top] / v[0, top])
                assert value == pytest.approx(expected, rel=1e-10), (name, k)


def mpmath_perron(g: GradedBigraph, digits: int = 50) -> list:
    """Root-normalized Perron vector by shifted inverse iteration at ``digits`` digits.

    The shift starts at the program's norm and is refined by Rayleigh
    quotients; a tiny residual and a vector of one sign certify the result as
    the Perron vector whatever the start.
    """
    with mpmath.workdps(digits):
        a = mpmath.matrix(g.adjacency().tolist())
        eye = mpmath.eye(g.vertex_count)
        mu = mpmath.mpf(graph_norm(g))
        x = mpmath.matrix([1] * g.vertex_count)
        for _ in range(5):
            x = mpmath.lu_solve(a - mu * eye, x)
            x /= mpmath.norm(x)
            mu = (x.T * a * x)[0]
        assert mpmath.norm(a * x - mu * x) < mpmath.mpf(10) ** (10 - digits)
        assert all(entry * x[0] > 0 for entry in x)
        return [x[k] / x[0] for k in range(g.vertex_count)]


@pytest.mark.parametrize("tail", [10, 20, 30, 50])
def test_branch_dimensions_match_50_digit_inverse_iteration(tail):
    """Long doubled tails: the solver keeps the branch dimensions to 1e-12.

    The Perron vector of these graphs is concentrated at the far end of the
    tail, so the root entry is small.  A dense eigensolver gives that entry
    an absolute error of about eps, which root normalization turns into a
    relative error of 8.6e-6 in p at tail 50; a single inverse-iteration step
    is off by 9e-3 there.  So this pins the solver, not only the code around
    it.
    """
    g = helpers.grade_tree(helpers.branched_tree(3, (), (tail,), doubled_tail=True), "p0")
    exact = mpmath_perron(g)
    dims = dimension_vector(g)
    for d in (3, 4):  # the branch vertex, then p and q
        for i in range(g.vertex_counts[d]):
            expected = float(exact[g.vertex_offset(d) + i])
            assert dims[(d, i)] == pytest.approx(expected, rel=1e-12), (tail, d, i)


def test_long_doubled_tails_give_limit_dimensions_or_refuse():
    """Tails of 30..62 give p and q at their limits; longer tails raise a TripointError.

    As the tail grows, delta^2 tends to 16/3 and the branch dimensions to
    p = 91/9 and q = 10/3, which they reach to double precision by tail 30.
    From tail 63 the root entry of the unit Perron vector falls below eps
    times its largest entry, and root normalization is refused.
    """
    for tail in range(30, 121):
        g = helpers.grade_tree(helpers.branched_tree(3, (), (tail,), doubled_tail=True), "p0")
        if tail > 62:
            with pytest.raises(TripointError):
                extract_triple_point(g, g)
            continue
        tp = extract_triple_point(g, g)
        assert tp.p == pytest.approx(91 / 9, rel=1e-12), tail
        assert tp.q == pytest.approx(10 / 3, rel=1e-12), tail


def tree_pivot_norm(g: GradedBigraph, digits: int = 50):
    """The norm of a tree to ``digits`` digits, by bisection on positive definiteness.

    Written from the edge list alone: ``sigma I - A`` is positive definite,
    that is sigma lies above the norm, exactly when every pivot
    ``sigma - sum m^2 / pivot(child)`` of its elimination from the deepest
    vertex up is positive.
    """
    parent, mult = {}, Counter()
    for d, u, v in g.edges:
        parent[(d + 1, v)] = (d, u)
        mult[(d + 1, v)] += 1
    order = sorted(parent, reverse=True)

    def above_norm(sigma) -> bool:
        pivot = {vertex: sigma for vertex in [(0, 0), *order]}
        for vertex in order:
            if pivot[vertex] <= 0:
                return False
            pivot[parent[vertex]] -= mult[vertex] ** 2 / pivot[vertex]
        return pivot[(0, 0)] > 0

    with mpmath.workdps(digits + 10):
        lo, hi = (mpmath.mpf(graph_norm(g)) * (1 + k * mpmath.mpf(1e-13)) for k in (-1, 1))
        assert above_norm(hi) and not above_norm(lo)
        while hi - lo > mpmath.mpf(10) ** -digits:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if above_norm(mid) else (mid, hi)
        return hi


def test_tree_norm_is_within_one_ulp_of_50_digit_pivot_root():
    """Every corpus tree's norm lies within one ulp of its 50-digit value.

    The dense half-size solve is off by up to 4.6 ulps on the bench corpus;
    the tree solve's Newton iteration, stopped at a step under half an ulp,
    stays within one, also on doubled tails whose root pivot has a pole a
    few ulps below the norm.
    """
    graphs = {g for _, principal, dual in helpers.battery_corpus() for g in (principal, dual)}
    graphs |= {path_graph(m) for m in range(2, 13)}
    graphs |= {
        helpers.grade_tree(helpers.branched_tree(3, (), (t,), doubled_tail=True), "p0")
        for t in (10, 30, 50)
    }
    for g in graphs:
        assert g._tree is not None
        norm = graph_norm(g)
        assert abs(norm - tree_pivot_norm(g)) <= math.ulp(norm), serialize_graph(g)


def test_tree_solve_stops_at_its_pass_cap(monkeypatch):
    monkeypatch.setattr(graph_module, "TREE_PASSES", 2)
    g = helpers.grade_tree(helpers.branched_tree(3, (), (4,)), "p0")
    with pytest.raises(UnsupportedIndex, match="Perron solve failed: no convergence in 2 passes"):
        graph_norm(g)


def test_tree_solve_refuses_a_vector_that_is_not_one_signed(monkeypatch):
    """A shift inside the spectrum makes inverse iteration find a sign-changing vector."""
    tree_norm = graph_module._tree_norm
    monkeypatch.setattr(graph_module, "_tree_norm", lambda tree: tree_norm(tree) / 2)
    g = helpers.grade_tree(helpers.branched_tree(3, (), (4,)), "p0")
    with pytest.raises(UnsupportedIndex, match="not strictly positive"):
        graph_norm(g)


def test_tree_solve_refuses_a_zero_pivot(monkeypatch):
    monkeypatch.setattr(graph_module, "_tree_norm", lambda tree: 0.0)
    with pytest.raises(UnsupportedIndex, match="Perron solve failed: zero pivot"):
        graph_norm(path_graph(5))


@pytest.mark.parametrize("routine", ["eigvalsh", "solve"])
def test_solver_linalg_error_is_unsupported_index(monkeypatch, routine):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(UnsupportedIndex, match="Perron solve failed: Singular matrix"):
        graph_norm(CYCLE_GRAPH)


def test_solver_refuses_a_vector_that_is_not_one_signed(monkeypatch):
    """A shift inside the spectrum makes inverse iteration find a sign-changing vector."""
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: eigvalsh(g) / 2)
    with pytest.raises(UnsupportedIndex, match="not strictly positive"):
        graph_norm(CYCLE_GRAPH)


def test_dimension_vector_root_is_one():
    g = helpers.grade_tree(helpers.branched_tree(3, (), (4,)), "p0")
    dims = dimension_vector(g)
    assert dims[(0, 0)] == 1.0


def test_dimension_vector_path_closed_form():
    for m in range(2, 13):
        g = path_graph(m)
        dims = dimension_vector(g)
        scale = math.sin(math.pi / (m + 1))
        for d in range(m):
            expected = math.sin((d + 1) * math.pi / (m + 1)) / scale
            assert dims[(d, 0)] == pytest.approx(expected, abs=1e-9)


def test_dimension_vector_initial_string_is_quantum_integers():
    g = helpers.grade_tree(helpers.branched_tree(3, (), (4,)), "p0")
    delta = graph_norm(g)
    ctx = nu_from_delta(delta)
    dims = dimension_vector(g)
    for d in range(4):
        assert dims[(d, 0)] == pytest.approx(ctx.qint(d + 1), abs=1e-8)


def test_dimension_vector_satisfies_eigen_relation_everywhere():
    """Every dimension of every corpus graph is finite, positive and satisfies A v = delta v."""
    for name, principal, dual in helpers.battery_corpus():
        for g in (principal, dual):
            delta = graph_norm(g)
            dims = dimension_vector(g)
            a = g.adjacency()
            vec = np.array(
                [dims[(d, i)] for d in range(g.depth_count) for i in range(g.vertex_counts[d])]
            )
            assert np.all(np.isfinite(vec)) and np.all(vec > 0), name
            residual = a @ vec - delta * vec
            assert np.all(np.abs(residual) <= 1e-9 * delta * np.maximum(vec, 1.0)), name


def test_dimension_vector_rejects_root_below_double_resolution():
    """A tail of 120 puts the root entry of the unit Perron vector near 1e-29 of its largest."""
    g = helpers.grade_tree(helpers.branched_tree(3, (), (120,), doubled_tail=True), "p0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedIndex, match="exceed double precision"):
            dimension_vector(g)


def test_supertransitivity_path():
    assert supertransitivity(path_graph(6)) == (5, False)


def test_supertransitivity_single_vertex():
    assert supertransitivity(GradedBigraph((1,), ())) == (0, False)


def test_supertransitivity_double_edge_counts_as_branch():
    g = GradedBigraph((1, 1, 1), ((0, 0, 0), (1, 0, 0), (1, 0, 0)))
    assert supertransitivity(g) == (1, True)


# ---------------------------------------------------------------------------
# triple point extraction

def test_extract_flags_and_sum():
    edges = helpers.branched_tree(3, (), (4,))
    principal, dual = helpers.self_paired(edges)
    delta = graph_norm(principal)
    ctx = nu_from_delta(delta)
    tp = extract_triple_point(principal, dual)
    assert tp.n == 4
    assert tp.branch_depth_odd
    assert tp.gamma3_univalent
    assert not tp.gamma2_trivalent
    # oracle: dense eigensolver dims at depth n
    _, vec = eigh_perron(principal)
    offset = principal.vertex_offset(4)
    dims = sorted(vec[offset : offset + 2], reverse=True)
    assert tp.p == pytest.approx(dims[0], abs=1e-9)
    assert tp.q == pytest.approx(dims[1], abs=1e-9)
    assert tp.p + tp.q == pytest.approx(ctx.qint(5), abs=1e-8)


def test_extract_carries_the_principal_norm_as_delta():
    for name, principal, dual in helpers.battery_corpus():
        assert extract_triple_point(principal, dual).ctx.delta == graph_norm(principal), name


def test_extract_clamps_a_norm_just_below_two(monkeypatch):
    """Affine D5 graded from a leaf has norm 2; a norm a hair under 2 is clamped to it."""
    edges = [("a", "b"), ("a2", "b"), ("b", "c"), ("c", "d"), ("c", "d2")]
    g = helpers.grade_tree(edges, "a")
    monkeypatch.setattr(graph_module, "graph_norm", lambda g: 2.0 - 1e-12)
    tp = extract_triple_point(g, g)
    assert tp.ctx.delta == 2.0
    assert (tp.n, tp.p, tp.q) == (2, pytest.approx(2.0), pytest.approx(1.0))


def test_extract_reads_a_self_dual_graph_once(monkeypatch):
    principal, dual = helpers.self_paired(helpers.branched_tree(3, (), (4,)))
    calls = []

    def counting(g):
        calls.append(g)
        return dimension_vector(g)

    monkeypatch.setattr(graph_module, "dimension_vector", counting)
    tp = extract_triple_point(principal, dual)
    assert calls == [principal]
    assert tp.dual_dims == (tp.p, tp.q)


def test_extract_sum_matches_quantum_integer_across_corpus():
    for name, principal, dual in helpers.battery_corpus():
        ctx = nu_from_delta(graph_norm(principal))
        tp = extract_triple_point(principal, dual)
        expected = ctx.qint(tp.n + 1)
        assert tp.p + tp.q == pytest.approx(expected, abs=1e-8 * max(1.0, expected)), name


def test_extract_univalent_dual_dimensions():
    # with a 1-valent gamma3: dim gamma3 = [n]/[2] and dim gamma2 = [n+2]/[2]
    edges = helpers.branched_tree(3, (), (4,))
    principal, dual = helpers.self_paired(edges)
    ctx = nu_from_delta(graph_norm(principal))
    tp = extract_triple_point(principal, dual)
    g2, g3 = tp.dual_dims
    assert g3 == pytest.approx(ctx.qint(4) / ctx.delta, abs=1e-8)
    assert g2 == pytest.approx(ctx.qint(6) / ctx.delta, abs=1e-8)


def test_extract_even_branch_depth():
    edges = helpers.branched_tree(4, (), (3,))
    principal, dual = helpers.self_paired(edges)
    tp = extract_triple_point(principal, dual)
    assert tp.n == 5
    assert not tp.branch_depth_odd


def test_extract_trivalent_gamma2():
    edges = helpers.branched_tree(3, (), (1, 1))
    principal, dual = helpers.self_paired(edges)
    tp = extract_triple_point(principal, dual)
    assert tp.gamma3_univalent
    assert tp.gamma2_trivalent


def test_extract_dimension_tie_flagged():
    principal, dual = helpers.two_rooted_pair(0)
    tp = extract_triple_point(principal, dual)
    assert tp.dim_tie
    assert tp.p == pytest.approx(tp.q, rel=1e-12)


@pytest.mark.parametrize(
    "p, q, dual_dims, message",
    [
        (1.0, 2.0, (2.0, 1.0), "branch dimensions must satisfy p >= q > 0"),
        (2.0, 0.0, (2.0, 1.0), "branch dimensions must satisfy p >= q > 0"),
        (2.0, -1.0, (2.0, 1.0), "branch dimensions must satisfy p >= q > 0"),
        (2.0, 1.0, (1.0, 2.0), "dual branch dimensions must be positive and ordered"),
        (2.0, 1.0, (2.0, 0.0), "dual branch dimensions must be positive and ordered"),
    ],
)
def test_triple_point_data_checks_its_dimensions(p, q, dual_dims, message):
    ctx = nu_from_delta(2.5)
    with pytest.raises(InvalidGraph) as excinfo:
        TriplePointData(ctx, 4, p, q, dual_dims, True, False)
    assert str(excinfo.value) == message


def test_triple_point_data_ties_default_to_false():
    ctx = nu_from_delta(2.5)
    tp = TriplePointData(ctx, 4, 2.0, 1.0, (2.0, 1.0), True, False)
    assert tp.dim_tie is False
    assert TriplePointData(ctx, 4, 2.0, 1.0, (2.0, 1.0), True, False, dim_tie=True).dim_tie


def test_extract_norm_mismatch():
    principal, _ = helpers.self_paired(helpers.branched_tree(3, (), (4,)))
    dual, _ = helpers.self_paired(helpers.branched_tree(3, (), (5,)))
    with pytest.raises(NormMismatch):
        extract_triple_point(principal, dual)


def test_extract_supertransitivity_mismatch():
    # same tree, graded from roots with different string lengths: equal norms
    edges = helpers.two_rooted_tree()
    principal = helpers.grade_tree(edges, "a")
    dual = helpers.grade_tree(edges, "L")
    with pytest.raises(SupertransitivityMismatch):
        extract_triple_point(principal, dual)


def test_extract_rejects_pure_path():
    g = path_graph(5)
    with pytest.raises(UnsupportedIndex, match="index < 4"):
        extract_triple_point(g, g)


def test_extract_rejects_quadruple_point():
    path = [("p0", "p1"), ("p1", "p2"), ("p2", "p3")]
    edges = path + [("p3", "A"), ("p3", "B"), ("p3", "C"), ("C", "C1"), ("C1", "C2")]
    g = helpers.grade_tree(edges, "p0")
    with pytest.raises(NotATriplePoint, match="valence"):
        extract_triple_point(g, g)


def test_extract_rejects_double_edge_at_branch():
    path = [("p0", "p1"), ("p1", "p2"), ("p2", "p3")]
    edges = path + [("p3", "A"), ("p3", "A"), ("A", "A1"), ("A1", "A2"), ("A2", "A3")]
    g = helpers.grade_tree(edges, "p0")
    with pytest.raises(NotATriplePoint, match="multiple edge"):
        extract_triple_point(g, g)


def test_extract_rejects_branch_at_root():
    edges = [("p0", "A"), ("p0", "A"), ("A", "A1"), ("A1", "A2")]
    g = helpers.grade_tree(edges, "p0")
    with pytest.raises(NotATriplePoint):
        extract_triple_point(g, g)
