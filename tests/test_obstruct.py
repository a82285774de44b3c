"""Obstruction battery: individual tests, ratio tables, orchestration."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from tripoint import branch, obstruct
from tripoint import graph as graph_module
from tripoint.branch import build_branch_matrix
from tripoint.cli import main
from tripoint.errors import InvalidArgument, InvalidGraph, UnsupportedIndex
from tripoint.graph import (
    GradedBigraph,
    TriplePointData,
    extract_triple_point,
    graph_norm,
    parse_graph,
)
from tripoint.obstruct import (
    Verdict,
    allowed_ratios,
    ocneanu_parity,
    rotational_test,
    run_battery,
    triple_single,
)
from tripoint.qnum import QuantumContext


@pytest.mark.parametrize(
    "kind, field",
    [
        ("QuantumContext", "delta"),
        ("GradedBigraph", "edges"),
        ("TriplePointData", "p"),
        ("BranchMatrix", "sigma"),
        ("ObstructionReport", "verdicts"),
    ],
)
def test_values_refuse_assignment_and_deletion(kind, field):
    principal, dual = helpers.two_rooted_pair(0)
    tp = extract_triple_point(principal, dual)
    value = {
        "QuantumContext": tp.ctx,
        "GradedBigraph": principal,
        "TriplePointData": tp,
        "BranchMatrix": build_branch_matrix(tp.ctx, tp.n, tp.p, tp.q),
        "ObstructionReport": run_battery(principal, dual),
    }[kind]
    assert type(value).__name__ == kind
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before
    assert repr(value).startswith(f"{kind}(")


def test_replace_and_make_rerun_the_checks():
    """A value made from another by ``_replace`` or ``_make`` is checked like a new one."""
    graph = parse_graph("depths: 3\ncounts: 1 1 1\nedges: 0:0-0 1:0-0")
    with pytest.raises(InvalidGraph, match="not graded"):
        graph._replace(vertex_counts=(1, 5, 1))
    with pytest.raises(InvalidGraph, match="not graded"):
        GradedBigraph._make(((1, 5, 1), graph.edges))
    ctx = QuantumContext(2.5)
    with pytest.raises(UnsupportedIndex, match="index < 4"):
        ctx._replace(delta=1.0)
    with pytest.raises(UnsupportedIndex, match="index < 4"):
        QuantumContext._make([1.0])
    # the constructor runs whole: it refuses any delta below 2 and sorts the edges
    with pytest.raises(UnsupportedIndex, match="index < 4"):
        ctx._replace(delta=2.0 - 1e-12)
    assert ctx._replace(delta=2.0) == QuantumContext(2.0)
    assert graph._replace(edges=graph.edges[::-1]).edges == graph.edges
    assert graph_norm(graph._replace()) == pytest.approx(math.sqrt(2.0))
    # equality and hashing go by the fields, as for a plain tuple
    assert graph == ((1, 1, 1), ((0, 0, 0), (1, 0, 0)))
    assert hash(ctx) == hash((2.5,))


@pytest.mark.parametrize(
    "round_trip", [lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_round_trips_give_equal_values_that_still_work(round_trip):
    principal, dual = helpers.two_rooted_pair(0)
    tp = extract_triple_point(principal, dual)  # solves both graphs first
    graph, ctx = round_trip(principal), round_trip(tp.ctx)
    assert type(graph) is GradedBigraph and graph == principal and graph is not principal
    assert graph_norm(graph) == graph_norm(principal)
    assert extract_triple_point(graph, round_trip(dual)) == tp
    assert type(ctx) is QuantumContext and ctx == tp.ctx and ctx is not tp.ctx
    assert ctx.qint(40) == tp.ctx.qint(40)
    assert ctx.qints(3) == [0.0, 1.0, ctx.delta, ctx.delta * ctx.delta - 1.0]


def make_tp(ctx, n, gap, univalent=True, trivalent=False):
    """Synthetic triple-point data with p + q = [n+1] and p - q = gap."""
    total = ctx.qint(n + 1)
    p, q = (total + gap) / 2.0, (total - gap) / 2.0
    return TriplePointData(
        ctx=ctx,
        n=n,
        p=p,
        q=q,
        gamma3_univalent=univalent,
        gamma2_trivalent=trivalent,
    )


# ---------------------------------------------------------------------------
# individual tests

def test_parity():
    assert ocneanu_parity(3) is Verdict.PASS
    assert ocneanu_parity(4) is Verdict.FAIL
    assert ocneanu_parity(1) is Verdict.PASS
    with pytest.raises(InvalidArgument):
        ocneanu_parity(0)


def test_triple_single_verdicts():
    ctx = QuantumContext(2.4)
    assert triple_single(make_tp(ctx, 4, 0.5)) is Verdict.PASS
    assert triple_single(make_tp(ctx, 4, 1.0)) is Verdict.PASS
    assert triple_single(make_tp(ctx, 4, 1.2)) is Verdict.FAIL
    assert triple_single(make_tp(ctx, 4, 1.2, univalent=False)) is Verdict.INAPPLICABLE


def test_rotational_equal_dims():
    ctx = QuantumContext(2.2)
    verdict, trace, candidates = rotational_test(make_tp(ctx, 4, 0.0))
    assert verdict is Verdict.PASS
    assert trace == pytest.approx(-2.0, abs=1e-12)
    assert candidates[0].k == 2  # k = n/2
    assert candidates[0].distance <= 1e-12


def test_rotational_gap_one():
    ctx = QuantumContext(2.2)
    verdict, trace, candidates = rotational_test(make_tp(ctx, 6, 1.0))
    assert verdict is Verdict.PASS
    assert trace == pytest.approx(2.0, abs=1e-9)
    assert candidates[0].k == 0


def test_rotational_off_root_fails():
    ctx = QuantumContext(2.1)
    tp = make_tp(ctx, 4, 0.9)
    verdict, trace, candidates = rotational_test(tp)
    # independent oracle: brute-force distance scan over the allowed traces
    expected_trace = 0.81 * ctx.qint(4) * ctx.qint(6) / (tp.p * tp.q) - 2.0
    assert trace == pytest.approx(expected_trace, rel=1e-12)
    best = min(
        abs(expected_trace - 2.0 * math.cos(2.0 * math.pi * k / 4)) for k in range(3)
    )
    assert best > 1e-6
    assert verdict is Verdict.FAIL
    assert [c.k for c in candidates] != []
    assert candidates[0].distance == pytest.approx(best, rel=1e-12)


def test_rotational_inapplicable_cases():
    ctx = QuantumContext(2.2)
    verdict, _, _ = rotational_test(make_tp(ctx, 4, 0.0, univalent=False))
    assert verdict is Verdict.INAPPLICABLE
    verdict, _, _ = rotational_test(make_tp(ctx, 5, 0.0))
    assert verdict is Verdict.INAPPLICABLE


def test_rotational_candidate_list_shape():
    ctx = QuantumContext(2.2)
    for n in (4, 6, 8, 10):
        _, _, candidates = rotational_test(make_tp(ctx, n, 0.3))
        assert sorted(c.k for c in candidates) == list(range(n // 2 + 1))
        distances = [c.distance for c in candidates]
        assert distances == sorted(distances)
        assert all(d >= 0 for d in distances)


def test_qt_needs_both_valence_hypotheses():
    ctx = QuantumContext(2.2)
    assert helpers.qt_test(make_tp(ctx, 4, 0.0, trivalent=True)) is Verdict.PASS
    assert helpers.qt_test(make_tp(ctx, 4, 0.0, trivalent=False)) is Verdict.INAPPLICABLE
    assert (
        helpers.qt_test(make_tp(ctx, 4, 0.0, univalent=False, trivalent=True))
        is Verdict.INAPPLICABLE
    )
    # rotational still runs when gamma2 is not trivalent
    verdict, _, _ = rotational_test(make_tp(ctx, 4, 0.0, trivalent=False))
    assert verdict is Verdict.PASS


def test_qt_agrees_with_rotational_when_both_apply():
    ctx = QuantumContext(2.3)
    for n in (4, 6):
        for gap in (0.0, 0.5, 1.0, 1.5):
            tp = make_tp(ctx, n, gap, trivalent=True)
            rot, _, _ = rotational_test(tp)
            assert helpers.qt_test(tp) is rot


@settings(max_examples=300, deadline=None)
@given(
    delta=st.floats(2.0, 2.5),
    n=st.sampled_from([2, 4, 6, 8, 10, 12]),
    gap=st.floats(0.0, 2.0),
)
def test_rotational_pass_implies_triple_single_pass(delta, n, gap):
    ctx = QuantumContext(delta)
    tp = make_tp(ctx, n, gap)
    rot, _, _ = rotational_test(tp)
    if rot is Verdict.PASS:
        assert triple_single(tp) is Verdict.PASS


@settings(max_examples=500, deadline=None)
@given(
    delta=st.floats(2.0, 3.0),
    n=st.integers(1, 20).map(lambda half: 2 * half),
    gap=st.floats(0.0, 2.0),
    tol=st.floats(0.0, 100.0, exclude_min=True),
    trivalent=st.booleans(),
)
def test_rotational_subsumes_triple_single_and_quadratic_tangles(delta, n, gap, tol, trivalent):
    """The paper's subsumption claim, at odd branch depth with a 1-valent gamma3.

    With p + q = [n+1], trace + 2 = 4 (p - q)^2 ([n+1]^2 - 1)/([n+1]^2 - (p - q)^2),
    so the trace is at most 2 exactly when p - q <= 1, and at p - q = 1 + tol
    it is at least 2 + 8 tol.  A trace within tol of some 2 cos(2 pi k / n),
    so at most 2 + tol, therefore has p - q < 1 + tol.
    """
    tp = make_tp(QuantumContext(delta), n, gap, trivalent=trivalent)
    rot, _, _ = rotational_test(tp, tol)
    if rot is Verdict.PASS:
        assert triple_single(tp, tol) is Verdict.PASS
    assert helpers.qt_test(tp, tol) in (rot, Verdict.INAPPLICABLE)


# ---------------------------------------------------------------------------
# allowed_ratios

def test_ratio_table_boundary_rows():
    ctx = QuantumContext(2.1)
    for n in (4, 6, 8):
        rows = allowed_ratios(ctx, n)
        assert len(rows) == n // 2 + 1
        assert rows[0].p - rows[0].q == pytest.approx(1.0, abs=1e-9)
        assert rows[-1].p == pytest.approx(rows[-1].q, abs=1e-9)
        assert rows[-1].p == pytest.approx(ctx.qint(n + 1) / 2.0, abs=1e-9)


def test_ratio_table_structure():
    ctx = QuantumContext(2.1)
    rows = allowed_ratios(ctx, 4)
    assert [row.k for row in rows] == [0, 1, 2]
    gaps = [row.p - row.q for row in rows]
    assert all(earlier > later for earlier, later in zip(gaps, gaps[1:]))
    for row in rows:
        assert row.r >= 1.0
        assert row.p >= row.q > 0
        assert row.p + row.q == pytest.approx(ctx.qint(5), rel=1e-12)
        assert row.r == pytest.approx(row.p / row.q, rel=1e-12)


def test_ratio_rows_round_trip_through_rotational():
    for delta in (2.05, 2.3):
        ctx = QuantumContext(delta)
        for n in (4, 6, 10):
            for row in allowed_ratios(ctx, n):
                tp = TriplePointData(
                    ctx=ctx,
                    n=n,
                    p=row.p,
                    q=row.q,
                    gamma3_univalent=True,
                    gamma2_trivalent=False,
                )
                verdict, trace, candidates = rotational_test(tp)
                assert verdict is Verdict.PASS
                assert candidates[0].k == row.k
                assert candidates[0].distance <= 1e-10
                assert trace == pytest.approx(row.lambda_trace, abs=1e-10)


def test_ratio_table_rejects_odd_n():
    ctx = QuantumContext(2.1)
    with pytest.raises(InvalidArgument):
        allowed_ratios(ctx, 3)
    with pytest.raises(InvalidArgument):
        allowed_ratios(ctx, 0)


def test_ratio_trace_agrees_with_branch_lambda():
    ctx = QuantumContext(2.2)
    for n in (4, 6, 8):
        for row in allowed_ratios(ctx, n):
            lam = build_branch_matrix(ctx, n, row.p, row.q).lam
            assert 2.0 * lam.real == pytest.approx(row.lambda_trace, abs=1e-8)


# ---------------------------------------------------------------------------
# run_battery

def battery_for(edges_or_pair):
    if isinstance(edges_or_pair, tuple):
        principal, dual = edges_or_pair
    else:
        principal, dual = helpers.self_paired(edges_or_pair)
    return run_battery(principal, dual)


def test_battery_symmetric_pair_all_pass():
    report = battery_for(helpers.two_rooted_pair(0))
    assert report.lambda_trace == pytest.approx(-2.0, abs=1e-9)
    assert report.verdicts["ocneanu_parity"] is Verdict.PASS
    assert report.verdicts["triple_single"] is Verdict.PASS
    assert report.verdicts["rotational"] is Verdict.PASS
    assert report.verdicts["quadratic_tangles"] is Verdict.INAPPLICABLE
    assert not report.has_failure
    assert report.root_candidates[0].k == report.n // 2
    assert report.r == pytest.approx(1.0, rel=1e-9)


def test_battery_even_branch_depth():
    report = battery_for(helpers.branched_tree(4, (), (3,)))
    assert report.verdicts["ocneanu_parity"] is Verdict.FAIL
    assert report.verdicts["rotational"] is Verdict.INAPPLICABLE
    assert report.has_failure


def test_battery_bivalent_gamma3():
    report = battery_for(helpers.branched_tree(3, (1,), (2,)))
    assert report.verdicts["triple_single"] is Verdict.INAPPLICABLE
    assert report.verdicts["rotational"] is Verdict.INAPPLICABLE
    assert report.verdicts["quadratic_tangles"] is Verdict.INAPPLICABLE
    assert report.verdicts["ocneanu_parity"] is Verdict.PASS
    assert not report.has_failure


def test_battery_builds_no_branch_matrix(monkeypatch, tmp_path):
    """The trace formula is the battery's only source of lambda + 1/lambda."""

    def refuse(*args):
        raise AssertionError("the battery reached the branch matrix")

    monkeypatch.setattr(branch, "build_branch_matrix", refuse)
    monkeypatch.setattr(branch, "_solve_phases", refuse)
    assert "build_branch_matrix" not in vars(obstruct)
    for name, principal, dual in helpers.battery_corpus():
        run_battery(principal, dual)
        path = tmp_path / f"{name}.pair"
        path.write_text(helpers.pair_text(principal, dual))
        assert main(["check", "--format", "json", str(path)]) in (0, 1), name


def test_battery_survives_missing_unitary_phase():
    # p - q > 1 here, so no unitary phase exists; the battery still reports
    # every verdict from the trace formula
    report = battery_for(helpers.branched_tree(3, (), (4,)))
    assert report.p - report.q > 1.0
    assert report.verdicts["triple_single"] is Verdict.FAIL
    assert report.verdicts["rotational"] is Verdict.FAIL


@pytest.mark.parametrize("tol", [1e-6, 0.5, 1.0])
def test_battery_triple_single_is_the_plain_verdict(tol):
    for name, principal, dual in helpers.battery_corpus():
        tp = extract_triple_point(principal, dual)
        report = run_battery(principal, dual, tol=tol)
        assert report.verdicts["triple_single"] is triple_single(tp, tol), name


@pytest.mark.parametrize("tol", [1e-6, 0.5, 1.0])
def test_battery_computes_the_trace_once(monkeypatch, tol):
    """The quadratic-tangles verdict comes from the rotational one, not a second trace."""
    calls = []
    rotational_test = obstruct.rotational_test
    monkeypatch.setattr(
        obstruct, "rotational_test",
        lambda tp, tol: calls.append(tp) or rotational_test(tp, tol),
    )
    applicable = 0
    for name, principal, dual in helpers.battery_corpus():
        calls.clear()
        report = run_battery(principal, dual, tol=tol)
        assert len(calls) == 1, name
        tp = extract_triple_point(principal, dual)
        assert report.verdicts["quadratic_tangles"] is helpers.qt_test(tp, tol), name
        applicable += report.verdicts["quadratic_tangles"] is not Verdict.INAPPLICABLE
    assert applicable >= 4


def test_battery_skewed_pair_fails_rotational_only():
    report = battery_for(helpers.two_rooted_pair(1))
    assert report.verdicts["triple_single"] is Verdict.PASS
    assert report.verdicts["rotational"] is Verdict.FAIL
    assert -2.0 <= report.lambda_trace <= 2.0


BAD_TOLS = [-1.0, 0.0, math.inf, math.nan]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_verdict_tests_refuse_a_tol_that_is_not_positive_and_finite(tol):
    tp = extract_triple_point(*helpers.two_rooted_pair(0))
    message = f"tol = {tol!r} must be positive and finite"
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        triple_single(tp, tol)
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        rotational_test(tp, tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_battery_refuses_a_bad_tol_before_it_extracts(monkeypatch, tol):
    def no_extraction(*args):
        raise AssertionError("extracted despite a bad tol")

    monkeypatch.setattr(graph_module, "extract_triple_point", no_extraction)
    with pytest.raises(InvalidArgument, match=f"^tol = {tol!r} must be positive and finite$"):
        run_battery(*helpers.two_rooted_pair(0), tol=tol)


def test_battery_report_fields_consistent():
    for name, principal, dual in helpers.battery_corpus():
        report = run_battery(principal, dual)
        assert report.r >= 1.0, name
        assert report.r == pytest.approx(report.p / report.q, rel=1e-12), name
        assert sorted(c.k for c in report.root_candidates) == list(
            range(report.n // 2 + 1)
        ), name
        rot = report.verdicts["rotational"]
        if rot is not Verdict.INAPPLICABLE:
            passes = report.root_candidates[0].distance <= report.tol
            assert (rot is Verdict.PASS) == passes, name
