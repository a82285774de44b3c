"""Depth-graded bipartite graphs and extraction of initial triple-point data.

A single graph is described by three keys, in this order::

    depths: 5
    counts: 1 1 1 1 2
    edges: 0:0-0 1:0-0 2:0-0 3:0-0 3:0-1

``counts`` lists the number of vertices at each depth; the root depth has
exactly one vertex.  Each edge token ``d:u-v`` joins vertex ``u`` at depth
``d`` to vertex ``v`` at depth ``d+1`` (0-based); repeating a token encodes a
multiple edge.  Lines whose first non-blank character is ``#`` are comments.
A graph *pair* file wraps two such blocks in ``[principal]`` and ``[dual]``
sections.

Vertices are addressed as ``(depth, index)`` throughout.  Dimensions are the
entries of the Perron-Frobenius eigenvector of the full adjacency matrix,
normalized to 1 at the root.  One solve per graph yields both them and the
graph norm.  A tree (every non-root vertex has one distinct neighbour one
depth up; multiple edges are allowed) is solved in pure Python: the norm is
the largest root of the last pivot of a leaf-to-root elimination of
``sigma I - A``, found by safeguarded Newton, and two steps of inverse
iteration just above it, each an O(V) elimination and back substitution,
give the vector.  A graph with a cycle takes a dense half-size solve with
numpy: a graded graph is bipartite between even and odd depths, so the norm
is the square root of the largest eigenvalue of ``B B^T``, with B the
even-by-odd biadjacency, and the same two inverse-iteration steps give the
vector.  Either way every entry, however small, comes out to a few ulps
relative, and any failure raises ``UnsupportedIndex``.  Note that for an
incomplete candidate graph these dimensions differ from those of any
completion, so verdicts derived from a truncated graph are advisory.  Root
normalization needs the root entry of the unit eigenvector to lie above
double-precision resolution; a graph whose dimensions grow past that raises
``UnsupportedIndex``.

The norm of a pair's principal graph is the pair's delta.  Extraction builds
the quantum context from it and stores it with the triple-point data, so no
caller supplies delta and every test of the pair reads the same one.

A self-dual pair file, whose two sections describe the same graph, yields one
graph object for both sections, so it is parsed and solved once.  numpy is
imported only when a graph with a cycle is first solved (or an adjacency
matrix is built), so importing this module, parsing, checking a pair of
trees and the non-spectral commands never load it.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_left
from collections import Counter
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    InvalidGraph,
    NormMismatch,
    NotATriplePoint,
    ParseError,
    SupertransitivityMismatch,
    UnsupportedIndex,
)
from .qnum import NUMERIC_TOL, Frozen, QuantumContext, nu_from_delta

if TYPE_CHECKING:
    import numpy as np

Edge = tuple[int, int, int]

_EDGE_RE = re.compile(r"^(\d+):(\d+)-(\d+)$")


class GradedBigraph(Frozen):
    """A connected graph graded by distance from a unique root vertex.

    Counts and edge endpoints are stored as ints and the edges sorted, so two
    descriptions of one graph compare and hash equal.
    """

    _fields = ("vertex_counts", "edges")
    vertex_counts: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertex_counts: tuple[int, ...], edges: tuple[Edge, ...]) -> None:
        counts = tuple(int(c) for c in vertex_counts)
        edges = tuple(sorted((int(d), int(u), int(v)) for d, u, v in edges))
        if not counts:
            raise InvalidGraph("graph must have at least one depth")
        if counts[0] != 1:
            raise InvalidGraph("exactly one vertex at depth 0 required")
        if any(c < 1 for c in counts):
            raise InvalidGraph("every depth must have at least one vertex")
        for d, u, v in edges:
            if not 0 <= d < len(counts) - 1:
                raise InvalidGraph(f"edge {d}:{u}-{v} does not connect consecutive depths")
            if not (0 <= u < counts[d] and 0 <= v < counts[d + 1]):
                raise InvalidGraph(f"edge {d}:{u}-{v} has an out-of-range vertex index")
        # Depth equals distance from the root, so every deeper vertex needs a
        # downward edge; together with the unique root this forces connectivity.
        covered = {(d + 1, v) for d, _, v in edges}
        for d in range(1, len(counts)):
            for i in range(counts[d]):
                if (d, i) not in covered:
                    raise InvalidGraph(
                        f"vertex {i} at depth {d} has no edge to depth {d - 1}"
                        " (graph not graded)"
                    )
        self._freeze(counts, edges)

    @property
    def depth_count(self) -> int:
        return len(self.vertex_counts)

    @property
    def vertex_count(self) -> int:
        return self._offsets[-1]

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        """Index of the first vertex of each depth, then the vertex count."""
        return tuple(accumulate(self.vertex_counts, initial=0))

    def vertex_offset(self, depth: int) -> int:
        return self._offsets[depth]

    def adjacency(self) -> np.ndarray:
        """Symmetric adjacency matrix; entries count edge multiplicity."""
        import numpy as np

        offsets = self._offsets
        rows = np.array([offsets[d] + u for d, u, _ in self.edges], dtype=np.intp)
        cols = np.array([offsets[d + 1] + v for d, _, v in self.edges], dtype=np.intp)
        upper = np.zeros((self.vertex_count, self.vertex_count))
        np.add.at(upper, (rows, cols), 1.0)
        return upper + upper.T

    @cached_property
    def _tree(self) -> Tree | None:
        """This graph as a tree for leaf-to-root elimination, or None if it has a cycle.

        The graph is a tree when every non-root vertex has exactly one
        distinct neighbour one depth up, whatever the multiplicity of its
        edges to it.  The elimination root is the deepest vertex of largest
        weighted degree: a branch vertex or a multiple edge, far from depth
        0, where the Perron vector of a candidate graph tends to be large.
        There the root pivot keeps its zero well away from the poles that
        the subtree spectra put just below the norm, so ``_tree_norm`` needs
        half the passes it needs from depth 0 on the bench corpora, and a
        tenth on long doubled tails.  Re-rooting reverses only the path from
        that vertex down to depth 0.
        """
        offsets = self._offsets
        n = self.vertex_count
        parent = [-1] * n
        mult = [0.0] * n
        degree = [0.0] * n
        for d, u, v in self.edges:
            child, up = offsets[d + 1] + v, offsets[d] + u
            if parent[child] != up:
                if parent[child] >= 0:
                    return None
                parent[child] = up
            mult[child] += 1.0
            degree[child] += 1.0
            degree[up] += 1.0
        path = [n - 1 - degree[::-1].index(max(degree))]
        while path[-1]:
            path.append(parent[path[-1]])
        on_path = set(path)
        # vertices off the path keep their parents and, by depth, follow their children
        links = [(v, parent[v], mult[v]) for v in range(n - 1, 0, -1) if v not in on_path]
        links += [(path[i], path[i - 1], mult[path[i - 1]]) for i in range(len(path) - 1, 0, -1)]
        return Tree(n, path[0], tuple((v, p, m, m * m) for v, p, m in links), degree)

    @cached_property
    def _perron(self) -> tuple[float, tuple[float, ...]]:
        """Largest eigenvalue and unit positive eigenvector, solved once per graph.

        A tree is solved in pure Python (``_tree_perron``), so checking a
        tree pair never imports numpy; a graph with a cycle takes a dense
        half-size solve (``_dense_perron``).  Both paths take the vector from
        two steps of inverse iteration with ``sigma I - A`` at
        ``sigma = delta (1 + 4 eps)``, starting from ones.  Unlike a dense
        eigensolver, whose vector entries carry an absolute error of about
        eps, this keeps small entries (the root of a graph whose dimensions
        grow far from it) to a few ulps relative.  One step is not enough
        there; two are.  Any failure raises ``UnsupportedIndex``.
        """
        if self.vertex_count == 1:
            return 0.0, (1.0,)
        tree = self._tree
        delta, vec = _dense_perron(self) if tree is None else _tree_perron(tree)
        if not all(x > 0 for x in vec):
            raise UnsupportedIndex("Perron vector is not strictly positive in double precision")
        return delta, tuple(vec)

    def _edge_range(self, depth: int, index: int) -> tuple[int, int]:
        """Slice of the sorted ``edges`` that leave ``(depth, index)`` upwards."""
        lo = bisect_left(self.edges, (depth, index))
        return lo, bisect_left(self.edges, (depth, index + 1), lo)

    def up_multiplicities(self, depth: int, index: int) -> dict[int, int]:
        """Multiplicity of edges from ``(depth, index)`` to each depth+1 vertex."""
        lo, hi = self._edge_range(depth, index)
        return dict(Counter(v for _, _, v in self.edges[lo:hi]))

    def down_degree(self, depth: int, index: int) -> int:
        lo = bisect_left(self.edges, (depth - 1,))
        hi = bisect_left(self.edges, (depth,), lo)
        return sum(v == index for _, _, v in self.edges[lo:hi])

    def up_degree(self, depth: int, index: int) -> int:
        lo, hi = self._edge_range(depth, index)
        return hi - lo

    def valence(self, depth: int, index: int) -> int:
        """Number of incident edges, counted with multiplicity."""
        return self.down_degree(depth, index) + self.up_degree(depth, index)


class TriplePointData(Frozen):
    """Branch data consumed by the obstruction battery.

    ``ctx`` evaluates quantum integers at the pair's delta, the norm of its
    principal graph.  ``n`` is the depth of the two branch arms (the branch
    vertex sits at depth n-1), ``p >= q`` are the principal-graph dimensions
    at depth n and ``dual_dims`` the dual-graph ones, ordered the same way.
    ``dim_tie`` flags p and q agreeing within tolerance, in which case the
    ordering is conventional.
    """

    _fields = (
        "ctx", "n", "p", "q", "dual_dims", "gamma3_univalent", "gamma2_trivalent", "dim_tie"
    )
    ctx: QuantumContext
    n: int
    p: float
    q: float
    dual_dims: tuple[float, float]
    gamma3_univalent: bool
    gamma2_trivalent: bool
    dim_tie: bool

    def __init__(
        self,
        ctx: QuantumContext,
        n: int,
        p: float,
        q: float,
        dual_dims: tuple[float, float],
        gamma3_univalent: bool,
        gamma2_trivalent: bool,
        dim_tie: bool = False,
    ) -> None:
        if not (q > 0 and p >= q):
            raise InvalidGraph("branch dimensions must satisfy p >= q > 0")
        g2, g3 = dual_dims
        if not (g3 > 0 and g2 >= g3):
            raise InvalidGraph("dual branch dimensions must be positive and ordered")
        self._freeze(ctx, n, p, q, dual_dims, gamma3_univalent, gamma2_trivalent, dim_tie)

    @property
    def branch_depth_odd(self) -> bool:
        return (self.n - 1) % 2 == 1


# ---------------------------------------------------------------------------
# parsing and serialization

def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((lineno, stripped))
    return out


def _take_key(lines: list[tuple[int, str]], key: str) -> tuple[int, list[str]]:
    if not lines:
        raise ParseError(f"missing '{key}:' line")
    lineno, text = lines.pop(0)
    if not text.startswith(key + ":"):
        raise ParseError(f"expected '{key}:' line, got {text!r}", lineno)
    return lineno, text[len(key) + 1 :].split()


def _parse_block(lines: list[tuple[int, str]]) -> GradedBigraph:
    lineno, tokens = _take_key(lines, "depths")
    if len(tokens) != 1 or not tokens[0].isdigit() or int(tokens[0]) < 1:
        raise ParseError("'depths:' needs a single positive integer", lineno)
    depth_count = int(tokens[0])

    lineno, tokens = _take_key(lines, "counts")
    if len(tokens) != depth_count:
        raise ParseError(
            f"'counts:' needs exactly {depth_count} entries, got {len(tokens)}", lineno
        )
    try:
        counts = tuple(int(t) for t in tokens)
    except ValueError:
        raise ParseError("'counts:' entries must be integers", lineno) from None

    lineno, tokens = _take_key(lines, "edges")
    edges = []
    for token in tokens:
        m = _EDGE_RE.match(token)
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
    return GradedBigraph(counts, tuple(edges))


def _parse_block_exact(lines: list[tuple[int, str]]) -> GradedBigraph:
    graph = _parse_block(lines)
    if lines:
        raise ParseError(f"unexpected content {lines[0][1]!r}", lines[0][0])
    return graph


def parse_graph(text: str) -> GradedBigraph:
    """Parse a single graph block; see the module docstring for the format."""
    return _parse_block_exact(_content_lines(text))


def parse_pair(text: str) -> tuple[GradedBigraph, GradedBigraph]:
    """Parse a graph pair file with [principal] and [dual] sections.

    A self-dual pair, whose two sections describe the same graph (up to edge
    order, spacing and comments), comes back as one object twice, so its
    adjacency is built and solved once and every reader shares the result.
    """
    lines = _content_lines(text)
    if not lines or lines[0][1] != "[principal]":
        lineno = lines[0][0] if lines else None
        raise ParseError("pair file must start with a [principal] section", lineno)
    try:
        split_at = next(i for i, (_, t) in enumerate(lines) if t == "[dual]")
    except StopIteration:
        raise ParseError("missing [dual] section") from None
    principal = _parse_block_exact(lines[1:split_at])
    if [t for _, t in lines[1:split_at]] == [t for _, t in lines[split_at + 1 :]]:
        return principal, principal
    dual = _parse_block_exact(lines[split_at + 1 :])
    return principal, principal if dual == principal else dual


def serialize_graph(g: GradedBigraph) -> str:
    counts = " ".join(str(c) for c in g.vertex_counts)
    tokens = " ".join(f"{d}:{u}-{v}" for d, u, v in g.edges)
    return f"depths: {g.depth_count}\ncounts: {counts}\nedges: {tokens}\n"


def serialize_pair(principal: GradedBigraph, dual: GradedBigraph) -> str:
    return f"[principal]\n{serialize_graph(principal)}[dual]\n{serialize_graph(dual)}"


# ---------------------------------------------------------------------------
# spectral data

#: Cap on the leaf-to-root passes of the tree norm search.  The bench corpora
#: need at most 12, and bisection alone narrows the bracket to two ulps in
#: about 55; a miss means the pivots misbehave, not that more would help.
TREE_PASSES = 100


#: Fraction bits of the fixed-point pivots of the tree vector solve.  Their
#: truncation error, 2^-100 a step, stays far below the smallest root pivot,
#: about 1e-15 at sigma = delta (1 + 4 eps).
PIVOT_BITS = 100


class Tree(NamedTuple):
    """A tree graph set up for leaf-to-root elimination.

    ``links`` holds ``(vertex, parent, m, m*m)`` for every vertex but
    ``root``, each after all of its children; m counts the edges to the
    parent.  ``degree`` is each vertex's weighted degree.
    """

    n: int
    root: int
    links: tuple[tuple[int, int, float, float], ...]
    degree: list[float]


def _tree_norm(tree: Tree) -> float:
    """Spectral radius of a tree by safeguarded Newton on its root pivot.

    Eliminating ``sigma I - A`` from the leaves up gives the pivots
    ``a(v) = sigma - sum m^2 / a(c)`` over the children c of v.  For sigma
    above the norm every pivot is positive; at the norm the root pivot is 0
    and the others, which belong to proper subtrees, stay positive
    (Jacobs-Trevisan, *Locating the eigenvalues of trees*, 2011).  So a
    non-root pivot <= 0 puts sigma below the norm, and where every child
    pivot is positive the root pivot is increasing and concave, so Newton's
    method run from below climbs to the norm monotonically.  Each pass
    carries the derivative ``a'(v) = 1 + sum m^2 a'(c) / a(c)^2`` along.
    The search starts at the upper bound ``sqrt(max row sum of A^2)`` and
    bisects the bracket [0, that bound] whenever a step leaves it.  It stops
    at a Newton step under half an ulp, which on the bench corpora leaves
    the norm within 0.7 ulps of its exact value.
    """
    n, root, links, degree = tree
    reach = [0] * n  # row sums of A^2
    for v, p, m, _ in links:
        reach[v] += m * degree[p]
        reach[p] += m * degree[v]
    lo, hi = 0.0, math.sqrt(max(reach))
    sigma = hi
    for _ in range(TREE_PASSES):
        pivot = [sigma] * n
        slope = [1.0] * n
        for v, p, _, w in links:
            a = pivot[v]
            if a <= 0:
                lo = sigma
                step = math.inf
                break
            t = w / a
            pivot[p] -= t
            slope[p] += t * slope[v] / a
        else:
            if pivot[root] == 0:
                return sigma
            if pivot[root] < 0:
                lo = sigma
            else:
                hi = sigma
            step = pivot[root] / slope[root]
            if abs(step) <= math.ulp(sigma) / 2:
                return sigma - step
        sigma -= step
        if not lo < sigma < hi:
            sigma = lo + (hi - lo) / 2
            if hi - lo <= 2 * math.ulp(hi):
                return sigma
    raise UnsupportedIndex(f"Perron solve failed: no convergence in {TREE_PASSES} passes")


def _tree_perron(tree: Tree) -> tuple[float, list[float]]:
    """Norm and unit Perron vector of a tree, in O(V) per pass and without numpy.

    Each inverse-iteration step solves ``(sigma I - A) y = x`` by the same
    leaf-to-root elimination as ``_tree_norm``, carrying the right-hand
    side up (``r(p) += m r(v) / a(v)``), then substitutes back from the
    root (``y(v) = (r(v) + m y(p)) / a(v)``).  The pivots depend on sigma
    alone, so both steps share them.  They set the accuracy of the vector:
    rounded at every step of their recursion they cost p and q up to about
    10 ulps on long arms, against 5 for the dense solve, so they are
    eliminated in integer fixed point with ``PIVOT_BITS`` fraction bits
    and rounded to double precision once.
    """
    n, root, links, _ = tree
    delta = _tree_norm(tree)
    sigma = delta * (1 + 4 * sys.float_info.epsilon)
    one = 1 << PIVOT_BITS
    wide = one * one
    fixed = [int(sigma * one)] * n  # exact: a double times a power of two
    x = [1.0] * n
    try:
        for v, p, _, w in links:
            fixed[p] -= (wide if w == 1.0 else int(w) * wide) // fixed[v]
        pivot = [a / one for a in fixed]  # each rounded once
        for _ in range(2):
            for v, p, m, _ in links:
                x[p] += m * x[v] / pivot[v]
            x[root] /= pivot[root]
            for v, p, m, _ in reversed(links):
                x[v] = (x[v] + m * x[p]) / pivot[v]
    except ZeroDivisionError:
        raise UnsupportedIndex("Perron solve failed: zero pivot") from None
    norm = math.copysign(math.hypot(*x), math.fsum(x))
    return delta, [value / norm for value in x]


def _dense_perron(g: GradedBigraph) -> tuple[float, list[float]]:
    """Norm and unit Perron vector of any graded graph by a half-size numpy solve.

    Depth parity splits the graph into even and odd sides, so its adjacency
    is ``[[0, B], [B^T, 0]]`` with B the even-by-odd biadjacency.  delta is
    the square root of the largest eigenvalue of ``G = B B^T``, whose
    entries are small integers and so exact.  Each inverse-iteration step
    is solved through the Schur complement ``sigma^2 I - G`` on the even
    side.
    """
    import numpy as np

    counts = g.vertex_counts
    sides = [0, 0]
    side_offsets = []
    for d, count in enumerate(counts):
        side_offsets.append(sides[d % 2])
        sides[d % 2] += count
    n_even, n_odd = sides
    cells = [
        (side_offsets[d] + u) * n_odd + side_offsets[d + 1] + v
        if d % 2 == 0
        else (side_offsets[d + 1] + v) * n_odd + side_offsets[d] + u
        for d, u, v in g.edges
    ]
    b = np.bincount(cells, minlength=n_even * n_odd).reshape(n_even, n_odd).astype(float)
    gram = b @ b.T
    try:
        delta = math.sqrt(np.linalg.eigvalsh(gram)[-1])
        sigma = delta * (1 + 4 * sys.float_info.epsilon)
        schur = -gram
        schur.flat[:: n_even + 1] += sigma * sigma
        x_even, x_odd = np.ones(n_even), np.ones(n_odd)
        for _ in range(2):
            x_even = np.linalg.solve(schur, sigma * x_even + b @ x_odd)
            x_odd = (x_odd + b.T @ x_even) / sigma
    except np.linalg.LinAlgError as exc:
        raise UnsupportedIndex(f"Perron solve failed: {exc}") from None
    order = [
        side_offsets[d] + i + (0 if d % 2 == 0 else n_even)
        for d, count in enumerate(counts)
        for i in range(count)
    ]
    vec = np.concatenate((x_even, x_odd))[order]
    vec /= math.copysign(math.sqrt(vec @ vec), vec.sum())
    return delta, vec.tolist()


def graph_norm(g: GradedBigraph) -> float:
    """Spectral radius of the adjacency matrix (the graph norm)."""
    return g._perron[0]


def dimension_vector(g: GradedBigraph) -> dict[tuple[int, int], float]:
    """Perron-Frobenius dimensions, vertex ``(depth, index)`` -> value, root normalized to 1."""
    vec = g._perron[1]
    root = vec[0]
    if not root > sys.float_info.epsilon * max(vec):
        raise UnsupportedIndex(
            "root-normalized dimensions exceed double precision"
            " (the root entry of the Perron vector is below its resolution)"
        )
    vertices = [(d, i) for d, count in enumerate(g.vertex_counts) for i in range(count)]
    return dict(zip(vertices, [x / root for x in vec]))


def supertransitivity(g: GradedBigraph) -> tuple[int, bool]:
    """Length of the initial single-edge string, and whether a branch follows.

    Returns the largest ``s`` such that depths 0..s form a simple path with
    single edges.  ``has_branch`` is true when some vertex at depth s has two
    or more continuations into depth s+1 (counting multiplicity), i.e. the
    graph is not just a path.
    """
    level_multiplicity = Counter(d for d, _, _ in g.edges)
    s = 0
    while (
        s + 1 < g.depth_count
        and g.vertex_counts[s + 1] == 1
        and level_multiplicity[s] == 1
    ):
        s += 1
    return s, s + 1 < g.depth_count


def _require_simple_triple_point(g: GradedBigraph, n: int, label: str) -> None:
    if n < 2:
        raise NotATriplePoint(f"{label} graph branches at depth 0 (no downward edge)")
    ups = g.up_multiplicities(n - 1, 0)
    if g.valence(n - 1, 0) != 3:
        raise NotATriplePoint(
            f"{label} branch vertex has valence {g.valence(n - 1, 0)}, expected 3"
        )
    if len(ups) != 2 or any(m > 1 for m in ups.values()):
        raise NotATriplePoint(f"{label} branch vertex has a multiple edge")


def _ordered_depth_n(
    dims: dict[tuple[int, int], float], n: int
) -> tuple[tuple[float, float], tuple[int, int], bool]:
    d0, d1 = dims[(n, 0)], dims[(n, 1)]
    tie = abs(d0 - d1) <= NUMERIC_TOL * max(1.0, d0, d1)
    if d1 > d0:
        return (d1, d0), (1, 0), tie
    return (d0, d1), (0, 1), tie


def extract_triple_point(principal: GradedBigraph, dual: GradedBigraph) -> TriplePointData:
    """Locate the initial triple point of a graph pair and collect its data.

    delta is the principal graph's norm (see ``qnum.nu_from_delta`` for the
    clamp at 2), and the dual's norm must agree with it.  Both graphs must
    share their supertransitivity, and each must branch into a simple triple
    point (three single edges: one down, two up).  Larger-dimension vertices
    come first in the (p, q) and dual orderings; exact ties keep the input
    index order and are flagged.
    """
    norm_p = graph_norm(principal)
    ctx = nu_from_delta(norm_p)
    norm_d = norm_p if dual is principal else graph_norm(dual)
    if abs(norm_p - norm_d) > NUMERIC_TOL:
        raise NormMismatch(f"graph norms differ: {norm_p!r} vs {norm_d!r}")
    s_p, branch_p = supertransitivity(principal)
    s_d, branch_d = supertransitivity(dual)
    if s_p != s_d:
        raise SupertransitivityMismatch(f"supertransitivities differ: {s_p} vs {s_d}")
    if not (branch_p and branch_d):
        raise NotATriplePoint("graph has no initial branch point")
    n = s_p + 1
    _require_simple_triple_point(principal, n, "principal")
    _require_simple_triple_point(dual, n, "dual")

    dims_p = dimension_vector(principal)
    dims_d = dims_p if dual is principal else dimension_vector(dual)
    (p, q), _, tie = _ordered_depth_n(dims_p, n)
    (g2, g3), (idx2, idx3), _ = _ordered_depth_n(dims_d, n)
    ctx.check_dimension_sum(n, p, q)
    return TriplePointData(
        ctx=ctx,
        n=n,
        p=p,
        q=q,
        dual_dims=(g2, g3),
        gamma3_univalent=dual.valence(n, idx3) == 1,
        gamma2_trivalent=dual.valence(n, idx2) == 3,
        dim_tie=tie,
    )
