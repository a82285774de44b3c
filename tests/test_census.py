"""A census of small trees: every free tree of up to ``MAX_N`` vertices, graded from each vertex.

The north star's user is an enumeration script, and its candidates are
graded trees.  Here every free tree of N vertices is grown from those of
N - 1 by adding a leaf, and kept once by its centre-rooted canonical form;
it is graded from one vertex of each rooted class, and every ordered pair
of gradings of one tree is a candidate.  Two gradings of one tree share
one norm, so no candidate may be refused for a norm mismatch: a tally
that moves says that ``graph.NORM_MATCH_ULPS`` or a verdict did.  The
enumerator uses no networkx and is checked against OEIS A000055 (free
trees) and A000081 (rooted trees).
"""

from __future__ import annotations

from collections import Counter
from functools import cache

import helpers
from tripoint.errors import TripointError
from tripoint.obstruct import Verdict, run_battery

MAX_N = 12

#: A tree is a tuple of neighbour tuples over the vertices 0..N-1.
Tree = tuple[tuple[int, ...], ...]


def rooted_form(tree: Tree, root: int, parent: int = -1) -> str:
    """The canonical string of ``tree`` rooted at ``root``: equal exactly for isomorphic rooted trees."""
    children = sorted(rooted_form(tree, child, root) for child in tree[root] if child != parent)
    return f"({''.join(children)})"


def eccentricity(tree: Tree, vertex: int) -> int:
    seen, frontier, depth = {vertex}, [vertex], -1
    while frontier:
        frontier = [w for v in frontier for w in tree[v] if w not in seen]
        seen.update(frontier)
        depth += 1
    return depth


def free_form(tree: Tree) -> str:
    """The least rooted form over the centres of ``tree``: equal exactly for isomorphic free trees."""
    eccentricities = [eccentricity(tree, v) for v in range(len(tree))]
    return min(rooted_form(tree, v) for v, e in enumerate(eccentricities) if e == min(eccentricities))


@cache
def free_trees(n: int) -> list[Tree]:
    """One tree of each isomorphism class on ``n >= 2`` vertices, each a tree of ``n - 1`` with a leaf added."""
    if n == 2:
        return [((1,), (0,))]
    grown: dict[str, Tree] = {}
    for tree in free_trees(n - 1):
        for v in range(n - 1):
            bigger = [*tree, (v,)]
            bigger[v] = (*tree[v], n - 1)
            grown.setdefault(free_form(tuple(bigger)), tuple(bigger))
    return list(grown.values())


def gradings(tree: Tree) -> list:
    """``tree`` graded from one vertex of each rooted class, by ``helpers.grade_tree``."""
    roots: dict[str, int] = {}
    for v in range(len(tree)):
        roots.setdefault(rooted_form(tree, v), v)
    edges = [(str(v), str(w)) for v, neighbours in enumerate(tree) for w in neighbours if v < w]
    return [helpers.grade_tree(edges, str(root)) for root in roots.values()]


@cache
def census(n: int) -> tuple[Counter, list]:
    """The tallies of every candidate pair on ``n`` vertices, and the report of each accepted one."""
    tally: Counter = Counter()
    reports = []
    for tree in free_trees(n):
        graded = gradings(tree)
        tally["gradings"] += len(graded)
        for principal in graded:
            for dual in graded:
                tally["candidates"] += 1
                try:
                    report = run_battery(principal, dual)
                except TripointError as exc:
                    tally[type(exc).__name__] += 1
                    continue
                reports.append(report)
                tally["accepted"] += 1
                tally["survive all"] += not report.has_failure
                tally["rotational Pass"] += report.verdicts["rotational"] is Verdict.PASS
    return tally, reports


def test_the_enumerator_counts_free_and_rooted_trees():
    sizes = range(2, MAX_N + 1)
    assert [len(free_trees(n)) for n in sizes] == [1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]  # A000055
    assert [census(n)[0]["gradings"] for n in sizes] == [1, 2, 4, 9, 20, 48, 115, 286, 719, 1_842, 4_766]  # A000081


def test_the_census_tallies_are_pinned():
    """Candidates, accepted, survive all and rotational Pass at N = 8, 10 and 12; no norm mismatch anywhere."""
    pinned = {8: (633, 28, 13, 3), 10: (5_277, 226, 98, 7), 12: (43_494, 1_647, 734, 9)}
    for n, counts in pinned.items():
        tally = census(n)[0]
        assert tuple(tally[key] for key in ("candidates", "accepted", "survive all", "rotational Pass")) == counts
    assert all(census(n)[0]["NormMismatch"] == 0 for n in range(2, MAX_N + 1))


def test_the_rotational_test_subsumes_the_other_two_on_every_accepted_candidate():
    """A rotational Pass never comes with a triple-single Fail, and quadratic
    tangles is always the rotational verdict or ``Inapplicable``."""
    for n in range(2, MAX_N + 1):
        for report in census(n)[1]:
            verdicts = report.verdicts
            if verdicts["rotational"] is Verdict.PASS:
                assert verdicts["triple_single"] is not Verdict.FAIL, report
            assert verdicts["quadratic_tangles"] in (verdicts["rotational"], Verdict.INAPPLICABLE), report
