"""Acceptance suite.

Each test here enforces one release gate at its stated tolerance and prints
one [PASS]/[FAIL] line (run pytest with -s to see them all).  Expected values
come from oracles coded in this file: a dense symmetric eigensolver (the
program's own method; tests/test_graph.py rechecks it against a 30-digit
mpmath eigensolve), closed-form quantum integers instead of the recurrence,
and straight-line verdict formulas instead of the branch-matrix machinery.
"""

import cmath
import json
import math
import random
import time

import numpy as np

import helpers
from tripoint.branch import build_branch_matrix
from tripoint.cli import main
from tripoint.errors import NoUnitaryPhase
from tripoint.graph import graph_norm, parse_pair
from tripoint.obstruct import allowed_ratios, run_battery
from tripoint.qnum import QuantumContext


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def closed_form_qint(delta: float, k: int) -> float:
    nu = (delta + math.sqrt(delta * delta - 4.0)) / 2.0
    if nu <= 1.0 + 1e-12:
        return float(k)
    return (nu**k - nu**-k) / (nu - 1.0 / nu)


# ---------------------------------------------------------------------------
# 1. quantum integer identities

def test_quantum_integer_identities():
    start = time.perf_counter()
    worst = 0.0
    for delta in np.linspace(2.0, 2.5, 50):
        ctx = QuantumContext(float(delta))
        q = ctx.qints(22)
        for n in range(2, 21):
            square = abs(q[n + 1] ** 2 - q[n] * q[n + 2] - 1.0) / (1e-9 * q[n + 2] ** 2)
            chain = abs(ctx.delta * q[n] - q[n - 1] - q[n + 1]) / (1e-9 * q[n + 1])
            worst = max(worst, square, chain)
    elapsed = time.perf_counter() - start
    report(
        "quantum integer identities",
        worst <= 1.0 and elapsed < 0.1,
        f"worst error {worst:.3g} of tolerance, {elapsed * 1000:.0f}ms",
    )


# ---------------------------------------------------------------------------
# 2. lambda round trip through the ratio table and the branch matrix

def test_lambda_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for delta in (2.05, math.sqrt(5.0), 2.3):
        ctx = QuantumContext(delta)
        for n in range(4, 17, 2):
            for row in allowed_ratios(ctx, n):
                lam = build_branch_matrix(ctx, n, row.p, row.q).lam
                root = cmath.exp(2j * math.pi * row.k / n)
                err = min(abs(lam - root), abs(lam.conjugate() - root))
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(
        "lambda round trip",
        worst <= 1e-8 and elapsed < 1.0,
        f"worst |lambda - root| = {worst:.3g}, {elapsed * 1000:.0f}ms",
    )


# ---------------------------------------------------------------------------
# 3. boundary anchors

def test_boundary_anchors():
    worst_one = 0.0
    worst_minus_one = 0.0
    for delta in (2.05, math.sqrt(5.0), 2.3):
        ctx = QuantumContext(delta)
        for n in range(4, 17, 2):
            total = ctx.qint(n + 1)
            lam = build_branch_matrix(ctx, n, (total + 1.0) / 2.0, (total - 1.0) / 2.0).lam
            worst_one = max(worst_one, abs(lam - 1.0))
            lam = build_branch_matrix(ctx, n, total / 2.0, total / 2.0).lam
            worst_minus_one = max(worst_minus_one, abs(lam + 1.0))
    ok = worst_one <= 1e-9 and worst_minus_one <= 1e-9
    report(
        "boundary anchors",
        ok,
        f"|lambda-1| <= {worst_one:.3g} at p-q=1, |lambda+1| <= {worst_minus_one:.3g} at p=q",
    )


# ---------------------------------------------------------------------------
# 4. phase existence is exactly the triple-single inequality
# 5. branch matrix invariants over the same samples

def _random_samples(count: int):
    rng = random.Random(20110406)
    samples = []
    while len(samples) < count:
        n = 2 * rng.randint(1, 10)
        delta = rng.uniform(2.0, 2.5)
        gap = rng.uniform(0.0, 2.0)
        if abs(gap - 1.0) <= 1e-6:
            continue
        samples.append((n, delta, gap))
    return samples


def test_phase_existence_equivalence():
    samples = _random_samples(10_000)
    start = time.perf_counter()
    disagreements = 0
    for n, delta, gap in samples:
        ctx = QuantumContext(delta)
        total = ctx.qint(n + 1)
        p, q = (total + gap) / 2.0, (total - gap) / 2.0
        try:
            build_branch_matrix(ctx, n, p, q)
            solvable = True
        except NoUnitaryPhase:
            solvable = False
        trace = gap * gap * ctx.qint(n) * ctx.qint(n + 2) / (p * q) - 2.0
        if not (solvable == (gap <= 1.0) == (-2.0 <= trace <= 2.0)):
            disagreements += 1
    elapsed = time.perf_counter() - start
    report(
        "phase existence equivalence",
        disagreements == 0 and elapsed < 2.0,
        f"{len(samples)} samples, {disagreements} disagreements, {elapsed:.2f}s",
    )


def test_branch_matrix_invariants():
    samples = _random_samples(10_000)
    worst_c1 = 0.0
    worst_norm = 0.0
    worst_trace = 0.0
    checked = 0
    for n, delta, gap in samples:
        if gap > 1.0:
            continue
        ctx = QuantumContext(delta)
        total = ctx.qint(n + 1)
        p, q = (total + gap) / 2.0, (total - gap) / 2.0
        u = build_branch_matrix(ctx, n, p, q)
        c1, _, _ = helpers.apply_to_perp_vector(u, p, q)
        worst_c1 = max(
            worst_c1, abs(c1) / (1e-12 * math.sqrt(ctx.qint(n - 1) * p * q))
        )
        big = ctx.qint(n) * ctx.qint(n + 2)
        worst_norm = max(
            worst_norm, abs(abs(u.sigma - u.tau) ** 2 - big / (p * q)) / (1e-9 * big / (p * q))
        )
        trace = gap * gap * big / (p * q) - 2.0
        lam = u.lam
        worst_trace = max(worst_trace, abs(2.0 * lam.real - trace) / 1e-8)
        checked += 1
    ok = checked > 0 and max(worst_c1, worst_norm, worst_trace) <= 1.0
    report(
        "branch matrix invariants",
        ok,
        f"{checked} solvable samples, worst fractions of tolerance:"
        f" c1 {worst_c1:.3g}, |sigma-tau| {worst_norm:.3g}, trace {worst_trace:.3g}",
    )


# ---------------------------------------------------------------------------
# 6. spectral data against closed forms and a dense eigensolver

def test_perron_frobenius_oracle():
    worst_norm = 0.0
    worst_dim = 0.0
    for m in range(2, 13):
        g = helpers.grade_tree(
            [(f"v{i}", f"v{i + 1}") for i in range(m - 1)], "v0"
        )
        norm = graph_norm(g)
        worst_norm = max(worst_norm, abs(norm - 2.0 * math.cos(math.pi / (m + 1))))
        dims = helpers.dimension_vector(g)
        scale = math.sin(math.pi / (m + 1))
        for d in range(m):
            expected = math.sin((d + 1) * math.pi / (m + 1)) / scale
            worst_dim = max(worst_dim, abs(dims[(d, 0)] - expected))

    principal, dual = helpers.self_paired(helpers.branched_tree(3, (), (4,)))
    ctx = QuantumContext(graph_norm(principal))
    from tripoint.graph import extract_triple_point

    tp = extract_triple_point(principal, dual)
    sum_err = abs(tp.p + tp.q - ctx.qint(tp.n + 1))
    ok = worst_norm <= 1e-10 and worst_dim <= 1e-9 and sum_err <= 1e-8
    report(
        "perron-frobenius oracle",
        ok,
        f"path norm err {worst_norm:.3g}, dim err {worst_dim:.3g}, p+q err {sum_err:.3g}",
    )


# ---------------------------------------------------------------------------
# 7. full battery against a straight-line oracle

def _oracle_string_length(g) -> int:
    from collections import Counter

    multiplicity = Counter(d for d, _, _ in g.edges)
    s = 0
    while s + 1 < len(g.vertex_counts) and g.vertex_counts[s + 1] == 1 and multiplicity[s] == 1:
        s += 1
    return s


def _oracle_verdicts(principal, dual, tol=1e-6) -> dict[str, str]:
    """Straight-line evaluation: dense eigensolver plus closed-form identities."""

    def perron(g):
        w, v = np.linalg.eigh(helpers.adjacency(g))
        vec = np.abs(v[:, -1])
        return float(w[-1]), vec / vec[0]

    delta, vec_p = perron(principal)
    delta_d, vec_d = perron(dual)
    assert abs(delta - delta_d) <= 1e-9
    n = _oracle_string_length(principal) + 1
    assert _oracle_string_length(dual) + 1 == n

    offset = principal.vertex_offset(n)
    p, q = sorted(vec_p[offset : offset + 2], reverse=True)
    offset_d = dual.vertex_offset(n)
    d0, d1 = vec_d[offset_d], vec_d[offset_d + 1]
    gamma3_index = 1 if d1 <= d0 else 0
    gamma2_index = 1 - gamma3_index
    gamma3_valence = dual.valence(n, gamma3_index)
    gamma2_valence = dual.valence(n, gamma2_index)

    verdicts = {
        "ocneanu_parity": "Pass" if (n - 1) % 2 == 1 else "Fail",
        "triple_single": (
            "Inapplicable"
            if gamma3_valence != 1
            else ("Pass" if p - q <= 1.0 + tol else "Fail")
        ),
    }
    big = closed_form_qint(delta, n) * closed_form_qint(delta, n + 2)
    trace = (p - q) ** 2 * big / (p * q) - 2.0
    rotational_applicable = gamma3_valence == 1 and (n - 1) % 2 == 1
    if rotational_applicable:
        best = min(
            abs(trace - 2.0 * math.cos(2.0 * math.pi * k / n)) for k in range(n // 2 + 1)
        )
        rotational = (
            "Pass" if -2.0 - tol <= trace <= 2.0 + tol and best <= tol else "Fail"
        )
    else:
        rotational = "Inapplicable"
    verdicts["rotational"] = rotational
    verdicts["quadratic_tangles"] = (
        rotational if gamma3_valence == 1 and gamma2_valence == 3 else "Inapplicable"
    )
    return verdicts


def test_battery_against_straight_line_oracle():
    corpus = helpers.battery_corpus()
    assert len(corpus) >= 20
    start = time.perf_counter()
    mismatches = []
    for name, principal, dual in corpus:
        got = {k: v.value for k, v in run_battery(principal, dual).verdicts.items()}
        expected = _oracle_verdicts(principal, dual)
        if got != expected:
            mismatches.append((name, got, expected))
    elapsed = time.perf_counter() - start
    report(
        "battery vs straight-line oracle",
        not mismatches and elapsed < 1.0,
        f"{len(corpus)} pairs, {len(mismatches)} verdict mismatches, {elapsed * 1000:.0f}ms",
    )


# ---------------------------------------------------------------------------
# 8. command line contract

def test_cli_contract(tmp_path, capsys):
    passing = tmp_path / "passing.pair"
    passing.write_text(helpers.pair_text(*helpers.two_rooted_pair(0)))
    even = tmp_path / "even.pair"
    even.write_text(helpers.pair_text(*helpers.self_paired(helpers.branched_tree(4, (), (3,)))))
    broken = tmp_path / "broken.pair"
    broken.write_text("[principal]\ndepths: 2\ncounts: 1 1\nedges: 9:0-0\n[dual]\n")

    codes = [
        main(["check", str(passing)]),
        main(["check", str(even)]),
        main(["check", str(broken)]),
    ]
    capsys.readouterr()

    assert main(["check", str(passing), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    principal, dual = parse_pair(passing.read_text())
    reference = run_battery(principal, dual)
    round_trips = (
        payload["verdicts"] == {k: v.value for k, v in reference.verdicts.items()}
        and payload["n"] == reference.n
        and abs(payload["lambda_trace"] - reference.lambda_trace) <= 1e-9
        and abs(payload["p"] - reference.p) <= 1e-9 * reference.p
    )

    assert main(["ratios", "--n", "4", "--index", "4.41"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split() for line in lines if line.strip()[0].isdigit()]
    gaps = [float(row[-1]) for row in rows]
    ratios_ok = len(rows) == 3 and gaps[0] > gaps[1] > gaps[2]

    ok = codes == [0, 1, 2] and round_trips and ratios_ok
    report(
        "command line contract",
        ok,
        f"exit codes {codes}, json round-trip {round_trips},"
        f" ratio rows {len(rows)} with gaps {[f'{g:.3g}' for g in gaps]}",
    )
