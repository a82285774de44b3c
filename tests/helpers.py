"""Shared builders for synthetic graph-pair fixtures, and the test-only views of the program.

Fixtures are built on string labels and then graded by BFS distance from a
chosen root.  Most are trees (occasionally with doubled edges), which the
program solves without numpy; ``reconverging_arms`` builds graphs with a
cycle, which take its dense solve.  Grading a tree from two different roots
yields two graphs with exactly the same spectrum, which is how pairs with
matching norms but different shapes are made.  Every fixture graph goes
through ``make_graph``, which writes it out and reads it back with
``parse_graph``, so fixtures meet the program's own validator.

``adjacency``, ``reference_parse_graph`` and ``reference_rounded`` are
oracles for the program's own graph index, parser and JSON rounding.
``eigh_flags`` orders a dual graph's depth-n vertices by a dense eigensolve,
an oracle for the structural gamma2/gamma3 flags of extraction.
``serialize_graph``, ``pair_text``, ``dimension_vector``, ``qt_test`` and
``apply_to_perp_vector`` are views of the program that only the tests need:
the pair-file text of a graph, every root-normalized dimension, the
quadratic-tangles verdict on its own, and the image of the perpendicular
vector under a branch matrix.
"""

from __future__ import annotations

import math
import re
from collections import deque

import numpy as np

from tripoint import graph as graph_module
from tripoint.branch import BranchMatrix
from tripoint.errors import ParseError
from tripoint.graph import GradedBigraph, TriplePointData, parse_graph
from tripoint.obstruct import DEFAULT_TRACE_TOL, Verdict, rotational_test

LabeledEdge = tuple[str, str]


def graph_text(counts, edges) -> str:
    """The three-line graph block of the pair-file format."""
    tokens = " ".join(f"{d}:{u}-{v}" for d, u, v in edges)
    return f"depths: {len(counts)}\ncounts: {' '.join(map(str, counts))}\nedges: {tokens}\n"


def make_graph(counts, edges) -> GradedBigraph:
    """The graph of these counts and edges, built by ``parse_graph`` from its text."""
    return parse_graph(graph_text(counts, edges))


def serialize_graph(g: GradedBigraph) -> str:
    return graph_text(g.vertex_counts, g.edges)


def pair_text(principal: GradedBigraph, dual: GradedBigraph) -> str:
    return f"[principal]\n{serialize_graph(principal)}[dual]\n{serialize_graph(dual)}"


def dimension_vector(g: GradedBigraph) -> dict[tuple[int, int], float]:
    """Dimensions of every vertex, ``(depth, index)`` -> value, root normalized to 1."""
    vertices = [(d, i) for d, count in enumerate(g.vertex_counts) for i in range(count)]
    return dict(zip(vertices, graph_module._dimensions(g, 0, g.vertex_count)))


def qt_test(tp: TriplePointData, tol: float = DEFAULT_TRACE_TOL) -> Verdict:
    """The quadratic-tangles test: the rotational verdict where gamma2 is 3-valent."""
    return rotational_test(tp, tol)[0] if tp.gamma2_trivalent else Verdict.INAPPLICABLE


def apply_to_perp_vector(u: BranchMatrix, p: float, q: float) -> tuple[complex, complex, None]:
    """Image of (0, sqrt(q), -sqrt(p)) under the known entries of the matrix built from p and q.

    The first coordinate vanishes identically; the third depends on the
    unknown entries and is reported as ``None``.
    """
    sq = math.sqrt(q)
    sp = math.sqrt(p)
    c1 = u.entries[0][1] * sq - u.entries[0][2] * sp
    c2 = u.entries[1][1] * sq - u.entries[1][2] * sp
    return c1, c2, None


def grade_tree(edges: list[LabeledEdge], root: str) -> GradedBigraph:
    """Grade a (multi)graph by distance from ``root`` and convert.

    Every edge must join vertices at consecutive depths; trees satisfy this
    for any root, and doubled edges or reconverging arms are fine as long as
    the depths work out.
    """
    neighbors: dict[str, list[str]] = {}
    for a, b in edges:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)

    depth = {root: 0}
    queue = deque([root])
    order: dict[int, list[str]] = {0: [root]}
    while queue:
        node = queue.popleft()
        for other in sorted(set(neighbors[node])):
            if other not in depth:
                depth[other] = depth[node] + 1
                order.setdefault(depth[other], []).append(other)
                queue.append(other)

    if len(depth) != len(neighbors):
        raise ValueError("graph is not connected")
    index = {
        label: i for d in sorted(order) for i, label in enumerate(order[d])
    }
    converted = []
    for a, b in edges:
        da, db = depth[a], depth[b]
        if abs(da - db) != 1:
            raise ValueError(f"edge {a}-{b} does not join consecutive depths")
        if da > db:
            a, b, da = b, a, db
        converted.append((da, index[a], index[b]))
    counts = tuple(len(order[d]) for d in range(len(order)))
    return make_graph(counts, converted)


def branched_tree(
    branch_depth: int,
    spec_a: tuple[int, ...] = (),
    spec_b: tuple[int, ...] = (),
    doubled_tail: bool = False,
) -> list[LabeledEdge]:
    """A string of ``branch_depth`` edges, then a triple point with two arms.

    Each arm spec lists the lengths of the chains sprouting from that arm's
    first vertex: ``()`` ends the arm immediately (a 1-valent vertex), ``(2,)``
    continues it by a chain of two edges, ``(1, 1)`` splits it into two chains
    (a 3-valent vertex).  ``doubled_tail`` doubles the last edge of the first
    chain of arm B, for multiplicity coverage away from the branch.
    """
    path = [f"p{i}" for i in range(branch_depth + 1)]
    edges = [(path[i], path[i + 1]) for i in range(branch_depth)]
    for arm, spec in (("A", spec_a), ("B", spec_b)):
        edges.append((path[-1], arm))
        for j, length in enumerate(spec):
            prev = arm
            for step in range(length):
                node = f"{arm}{j}x{step}"
                edges.append((prev, node))
                prev = node
    if doubled_tail:
        edges.append(edges[-1])
    return edges


def reconverging_arms(branch_depth: int, tail: int = 1) -> list[LabeledEdge]:
    """A string of ``branch_depth`` edges whose two arms meet again: a graph with a cycle.

    The arms ``s_b - a`` and ``s_b - b`` both continue to ``c``, closing a
    square; ``a`` also carries a leaf ``x`` and ``c`` a chain of ``tail``
    edges.  Graded from ``s0`` the triple point sits at depth
    ``branch_depth``; at depth 3 with tail 1 the norm is 2.362 and the
    self-paired graph passes ``check``.
    """
    string = [f"s{i}" for i in range(branch_depth + 1)]
    edges = [(string[i], string[i + 1]) for i in range(branch_depth)]
    edges += [(string[-1], "a"), (string[-1], "b"), ("a", "c"), ("b", "c"), ("a", "x")]
    prev = "c"
    for i in range(tail):
        edges.append((prev, f"t{i}"))
        prev = f"t{i}"
    return edges


def self_paired(edges: list[LabeledEdge], root: str = "p0") -> tuple[GradedBigraph, GradedBigraph]:
    graph = grade_tree(edges, root)
    return graph, graph


def two_rooted_tree(extra_tail: int = 0) -> list[LabeledEdge]:
    """A tree graded two ways: symmetric arms from one root, a dead arm from the other.

    Rooted at ``a`` the branch vertex is c1 at depth 3 with two isomorphic
    arms (equal dimensions when ``extra_tail`` is 0).  Rooted at ``b`` the
    branch vertex is c2 at depth 3 with a 1-valent vertex L at depth 4.
    ``extra_tail`` lengthens the far end of the second arm, breaking the
    symmetry without touching the b-side grading.
    """
    edges = [
        ("a", "a2"), ("a2", "a1"), ("a1", "c1"),
        ("c1", "w"), ("w", "c2"), ("c2", "L"),
        ("c2", "m2"), ("m2", "m1"), ("m1", "b"),
        ("c1", "v"), ("v", "d2"), ("d2", "K"),
        ("d2", "n2"), ("n2", "n1"), ("n1", "e"),
    ]
    prev = "e"
    for i in range(extra_tail):
        node = f"t{i}"
        edges.append((prev, node))
        prev = node
    return edges


def two_rooted_pair(extra_tail: int = 0) -> tuple[GradedBigraph, GradedBigraph]:
    edges = two_rooted_tree(extra_tail)
    return grade_tree(edges, "a"), grade_tree(edges, "b")


def battery_corpus() -> list[tuple[str, GradedBigraph, GradedBigraph]]:
    """At least twenty valid graph pairs covering the verdict combinations."""
    pairs: list[tuple[str, GradedBigraph, GradedBigraph]] = []

    def add_self(name: str, branch_depth: int, spec_a, spec_b, doubled=False):
        edges = branched_tree(branch_depth, spec_a, spec_b, doubled_tail=doubled)
        principal, dual = self_paired(edges)
        pairs.append((name, principal, dual))

    # odd branch depth, one dead arm: gamma3 is 1-valent
    for tail in (3, 4, 5, 6):
        add_self(f"depth3-dead-chain{tail}", 3, (), (tail,))
    for tail in (2, 3, 4, 5):
        add_self(f"depth5-dead-chain{tail}", 5, (), (tail,))
    # odd branch depth, both arms alive: gamma3 is 2-valent
    for arms in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)):
        add_self(f"depth3-arms{arms[0]}{arms[1]}", 3, (arms[0],), (arms[1],))
    # dead arm plus a splitting arm: gamma2 is 3-valent
    for split in ((1, 1), (2, 1), (2, 2), (3, 1)):
        add_self(f"depth3-dead-split{split[0]}{split[1]}", 3, (), split)
    # even branch depth: parity obstruction fails
    add_self("depth4-dead-chain3", 4, (), (3,))
    add_self("depth4-dead-chain4", 4, (), (4,))
    add_self("depth4-arms11", 4, (1,), (1,))
    # doubled edge away from the branch
    add_self("depth3-doubled-tail", 3, (), (2,), doubled=True)
    # distinct gradings of one tree: symmetric arms vs dead arm
    pairs.append(("two-rooted-symmetric", *two_rooted_pair(0)))
    pairs.append(("two-rooted-skewed", *two_rooted_pair(1)))
    return pairs


def adjacency(g: GradedBigraph) -> np.ndarray:
    """Symmetric adjacency matrix in flat ``(depth, index)`` order; entries count edge multiplicity."""
    offsets = [sum(g.vertex_counts[:d]) for d in range(len(g.vertex_counts))]
    a = np.zeros((g.vertex_count, g.vertex_count))
    for d, u, v in g.edges:
        i, j = offsets[d] + u, offsets[d + 1] + v
        a[i, j] += 1.0
        a[j, i] += 1.0
    return a


def eigh_flags(dual: GradedBigraph, n: int) -> tuple[bool, bool]:
    """``(gamma3_univalent, gamma2_trivalent)`` as the dual's Perron entries order them.

    A dense eigensolve of the full adjacency matrix orders the two vertices
    at depth n: gamma3 has the smaller entry, gamma2 the other.  Valences
    are the adjacency's row sums.  gamma2 counts as 3-valent only beside a
    1-valent gamma3, the convention of ``TriplePointData``.
    """
    a = adjacency(dual)
    _, v = np.linalg.eigh(a)
    first = sum(dual.vertex_counts[:n])
    entries = np.abs(v[first : first + 2, -1])
    g3 = first + int(entries[1] < entries[0])
    g2 = 2 * first + 1 - g3
    univalent = a[g3].sum() == 1
    return bool(univalent), bool(univalent and a[g2].sum() == 3)


_REFERENCE_EDGE_RE = re.compile(r"^(\d+):(\d+)-(\d+)$")


def reference_parse_graph(text: str) -> GradedBigraph:
    """A single graph block read token by token, as the parser did before it read lines whole.

    Each edge token is matched, converted and range-checked in line order,
    then the constructor checks the counts and the grading.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))

    def take_key(key):
        if not lines:
            raise ParseError(f"missing '{key}:' line")
        lineno, line = lines.pop(0)
        if not line.startswith(key + ":"):
            raise ParseError(f"expected '{key}:' line, got {line!r}", lineno)
        return lineno, line[len(key) + 1 :].split()

    lineno, tokens = take_key("depths")
    if len(tokens) != 1 or not tokens[0].isdigit() or int(tokens[0]) < 1:
        raise ParseError("'depths:' needs a single positive integer", lineno)
    depth_count = int(tokens[0])
    lineno, tokens = take_key("counts")
    if len(tokens) != depth_count:
        raise ParseError(
            f"'counts:' needs exactly {depth_count} entries, got {len(tokens)}", lineno
        )
    try:
        counts = tuple(int(t) for t in tokens)
    except ValueError:
        raise ParseError("'counts:' entries must be integers", lineno) from None
    lineno, tokens = take_key("edges")
    edges = []
    for token in tokens:
        m = _REFERENCE_EDGE_RE.match(token)
        if m is None:
            raise ParseError(f"bad edge token {token!r} (expected d:u-v)", lineno)
        d, u, v = (int(g) for g in m.groups())
        if d >= depth_count - 1:
            raise ParseError(
                f"edge {token!r}: depth {d} out of range for {depth_count} depths", lineno
            )
        if u >= counts[d] or v >= counts[d + 1]:
            raise ParseError(f"edge {token!r}: vertex index out of range", lineno)
        edges.append((d, u, v))
    graph = GradedBigraph(counts, edges)
    if lines:
        raise ParseError(f"unexpected content {lines[0][1]!r}", lines[0][0])
    return graph


def reference_rounded(value):
    """``value`` with every float rounded to 12 significant digits, walked recursively.

    This is how the CLI rounded a whole payload before each command rounded
    its own fields; ``json.dumps(reference_rounded(payload), allow_nan=False)``
    is the JSON text the CLI must print.
    """
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: reference_rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_rounded(item) for item in value]
    return value
