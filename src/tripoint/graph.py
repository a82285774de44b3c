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
Extraction reads only the facts the obstructions use: the norms, the initial
string, the branch vertices' edges and two depth-n dimensions per graph,
root-normalized straight from the cached Perron vector.

The parser reads each ``edges:`` line whole and converts and range-checks
each edge once, looking numbers below 512 up in a table; the graph then
indexes its vertices in one pass over the sorted edges.  A self-dual pair
file, whose two sections describe the same graph, yields one graph object
for both sections, so it is parsed and solved once.  numpy is imported only
when a graph with a cycle is first solved, so importing this module,
parsing, checking a pair of trees and the non-spectral commands never load
it.
"""

from __future__ import annotations

import math
import re
import sys
from functools import cache, cached_property
from itertools import accumulate
from operator import add
from typing import NamedTuple

from .errors import (
    InvalidGraph,
    NormMismatch,
    NotATriplePoint,
    ParseError,
    SupertransitivityMismatch,
    UnsupportedIndex,
)
from .qnum import NUMERIC_TOL, Frozen, QuantumContext, nu_from_delta

Edge = tuple[int, int, int]

#: The well-formed ``d:u-v`` tokens that start a line, each ended by blanks or the line end.
_EDGES_RE = re.compile(r"(?:\s*\d+:\d+-\d+(?!\S))*\s*")


class GradedBigraph(Frozen):
    """A connected graph graded by distance from a unique root vertex.

    Counts and edge endpoints are stored as ints and the edges sorted, so two
    descriptions of one graph compare and hash equal.  One pass over the sorted
    edges lists, per vertex in flat order, its first neighbour one depth up (-2
    once it has two) and its edges down and up: the graded check, the tree links
    and every degree lookup read those lists, and none of them bisects.
    """

    _fields = ("vertex_counts", "edges")
    vertex_counts: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertex_counts: tuple[int, ...], edges: tuple[Edge, ...]) -> None:
        counts = tuple(int(c) for c in vertex_counts)
        edges = tuple(sorted((int(d), int(u), int(v)) for d, u, v in edges))
        self._index(counts, edges, unchecked=edges)

    @classmethod
    def _parsed(cls, counts: tuple[int, ...], edges: tuple[Edge, ...]) -> GradedBigraph:
        """A graph from the parser, which has converted, range-checked and sorted the edges."""
        graph = cls.__new__(cls)
        graph._index(counts, edges)
        return graph

    def _index(self, counts: tuple[int, ...], edges: tuple[Edge, ...], unchecked=()) -> None:
        """Check the counts and the ``unchecked`` edges, then index the graph in one pass."""
        if not counts:
            raise InvalidGraph("graph must have at least one depth")
        if counts[0] != 1:
            raise InvalidGraph("exactly one vertex at depth 0 required")
        if min(counts) < 1:
            raise InvalidGraph("every depth must have at least one vertex")
        for d, u, v in unchecked:
            if not 0 <= d < len(counts) - 1:
                raise InvalidGraph(f"edge {d}:{u}-{v} does not connect consecutive depths")
            if not (0 <= u < counts[d] and 0 <= v < counts[d + 1]):
                raise InvalidGraph(f"edge {d}:{u}-{v} has an out-of-range vertex index")
        offsets = tuple(accumulate(counts, initial=0))
        # Depth equals distance from the root, so every deeper vertex needs a
        # downward edge; together with the unique root this forces connectivity.
        # Counts that the edges cannot cover fail before anything is allocated.
        graded = offsets[-1] <= len(edges) + 1
        if graded:
            parent, down, up = [-1] * offsets[-1], [0] * offsets[-1], [0] * offsets[-1]
            for d, u, v in edges:
                above, child = offsets[d] + u, offsets[d + 1] + v
                if parent[child] != above:
                    parent[child] = above if parent[child] == -1 else -2
                down[child] += 1
                up[above] += 1
            graded = down.count(0) == 1  # the root is the one vertex with no edge down
        if not graded:
            covered = {(d + 1, v) for d, _, v in edges}
            d, v = next(
                (d, v) for d in range(1, len(counts)) for v in range(counts[d])
                if (d, v) not in covered
            )
            raise InvalidGraph(
                f"vertex {v} at depth {d} has no edge to depth {d - 1} (graph not graded)"
            )
        self._freeze(counts, edges)
        vars(self).update(_offsets=offsets, _parent=parent, _down=down, _up=up)

    @property
    def depth_count(self) -> int:
        return len(self.vertex_counts)

    @property
    def vertex_count(self) -> int:
        return self._offsets[-1]

    def vertex_offset(self, depth: int) -> int:
        return self._offsets[depth]

    @cached_property
    def _tree(self) -> Tree | None:
        """This graph as a tree for leaf-to-root elimination, or None if it has a cycle.

        The graph is a tree when every non-root vertex has exactly one
        distinct neighbour one depth up, whatever the multiplicity of its
        edges to it; its link to that neighbour then has weight equal to its
        down-degree.  The elimination root is the deepest vertex of largest
        weighted degree: a branch vertex or a multiple edge, far from depth
        0, where the Perron vector of a candidate graph tends to be large.
        There the root pivot keeps its zero away from most of the poles that
        the subtree spectra put just below the norm, and ``_tree_norm``
        divides out the nearest one.  From this root it needs 5.75 passes a
        graph on the near-index-4 bench graphs (12.7 from depth 0), and 5 on
        doubled tails of 10 to 62 (45 from depth 0).  Re-rooting reverses
        only the path from that vertex down to depth 0.
        """
        parent, mult = self._parent, self._down
        if -2 in parent:
            return None
        n = self.vertex_count
        degree = list(map(add, mult, self._up))
        path = [n - 1 - degree[::-1].index(max(degree))]
        while path[-1]:
            path.append(parent[path[-1]])
        on_path = set(path)
        # vertices off the path keep their parents and, by depth, follow their
        # children; the path follows reversed, each link weighted by its deeper end
        links = [(v, p, m, m * m) for v, p, m in zip(range(n - 1, 0, -1), parent[:0:-1], mult[:0:-1])
                 if v not in on_path]
        links += [(v, p, m, m * m) for v, p in zip(path[:0:-1], path[-2::-1]) for m in (mult[p],)]
        return Tree(n, path[0], tuple(links), degree)

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
        if not all(map((0.0).__lt__, vec)):
            raise UnsupportedIndex("Perron vector is not strictly positive in double precision")
        return delta, tuple(vec)

    def down_degree(self, depth: int, index: int) -> int:
        return self._down[self._offsets[depth] + index]

    def up_degree(self, depth: int, index: int) -> int:
        return self._up[self._offsets[depth] + index]

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


def _take_key(lines: list[tuple[int, str]], key: str) -> tuple[int, str]:
    if not lines:
        raise ParseError(f"missing '{key}:' line")
    lineno, text = lines.pop(0)
    if not text.startswith(key + ":"):
        raise ParseError(f"expected '{key}:' line, got {text!r}", lineno)
    return lineno, text[len(key) + 1 :]


class _Numbers(dict):
    """``str(k) -> k`` for k < 512; any other token is looked up as ``int(token)``.

    A hit is about twice as fast as ``int()``, and every count and edge
    number of a realistic candidate graph is one.  A miss, such as ``007``,
    ``+1``, a non-ASCII digit or a number too long for ``int()``, gives
    exactly what ``int()`` gives, ``ValueError`` included, and is not stored.
    """

    def __missing__(self, token: str) -> int:
        return int(token)


@cache
def _small_numbers() -> _Numbers:
    """The token table, built on first use so that importing costs nothing."""
    return _Numbers((str(k), k) for k in range(512))


def _parse_block_exact(lines: list[tuple[int, str]]) -> GradedBigraph:
    # int() refuses a decimal number of more digits than it converts (4,300
    # by default): such a number is reported, never raised as a ValueError.
    lineno, text = _take_key(lines, "depths")
    tokens = text.split()
    try:
        depth_count = int(tokens[0]) if len(tokens) == 1 and tokens[0].isdecimal() else 0
    except ValueError:
        raise ParseError("'depths:' has a number too long to convert", lineno) from None
    if depth_count < 1:
        raise ParseError("'depths:' needs a single positive integer", lineno)

    lineno, text = _take_key(lines, "counts")
    tokens = text.split()
    if len(tokens) != depth_count:
        raise ParseError(
            f"'counts:' needs exactly {depth_count} entries, got {len(tokens)}", lineno
        )
    number = _small_numbers().__getitem__
    try:
        counts = tuple(map(number, tokens))
    except ValueError:
        # every entry well formed: int() refused one for its length
        if all(re.fullmatch(r"[+-]?\d+", t) for t in tokens):
            raise ParseError("'counts:' has a number too long to convert", lineno) from None
        raise ParseError("'counts:' entries must be integers", lineno) from None

    # The line is read whole, up to its first malformed token, so the first
    # bad token in line order is the one reported, malformed or out of range.
    # A number too long to convert is out of range: every count was short enough.
    lineno, text = _take_key(lines, "edges")
    good = text[: _EDGES_RE.match(text).end()]
    pieces = good.replace(":", " ").replace("-", " ").split()
    try:
        numbers = list(map(number, pieces))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        numbers = [int(x) if len(x) <= limit else math.inf for x in pieces]
    edges = list(zip(numbers[::3], numbers[1::3], numbers[2::3]))
    for d, u, v in edges:
        if d >= depth_count - 1 or u >= counts[d] or v >= counts[d + 1]:
            token = good.split()[edges.index((d, u, v))]
            if d >= depth_count - 1:
                shown = d if d < math.inf else token.partition(":")[0]
                problem = f"depth {shown} out of range for {depth_count} depths"
            else:
                problem = "vertex index out of range"
            raise ParseError(f"edge {token!r}: {problem}", lineno)
    if len(good) < len(text):
        token = text[len(good) :].split()[0]
        raise ParseError(f"bad edge token {token!r} (expected d:u-v)", lineno)
    graph = GradedBigraph._parsed(counts, tuple(sorted(edges)))
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
#: need at most 7, the battery corpus of the tests at most 6, and bisection
#: alone narrows the bracket to two ulps in about 55; a miss means the pivots
#: misbehave, not that more would help.
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
    links: tuple[tuple[int, int, int, int], ...]
    degree: list[int]


def _tree_norm(tree: Tree) -> float:
    """Spectral radius of a tree by safeguarded Newton on its root pivot.

    Eliminating ``sigma I - A`` from the leaves up gives the pivots
    ``a(v) = sigma - sum m^2 / a(c)`` over the children c of v.  For sigma
    above the norm every pivot is positive; at the norm the root pivot is 0
    and the others, which belong to proper subtrees, stay positive
    (Jacobs-Trevisan, *Locating the eigenvalues of trees*, 2011).  So a
    non-root pivot <= 0 puts sigma below the norm.  Each pass carries the
    derivative ``a'(v) = 1 + sum m^2 a'(c) / a(c)^2`` along.

    The root pivot has a pole at each zero of a child pivot, and the
    largest of them, the zero of the child c with the smallest pivot, can
    lie a few ulps below the norm.  Near it the root pivot bends so sharply
    that plain Newton steps crawl and stop short: 92.6 ulps short on one
    101-vertex tree of the tests.  So the search steps by Newton on
    ``h = a(root) a(c)``, which that pole leaves smooth::

        step = a(root) / (a'(root) + a(root) a'(c) / a(c))

    and takes the plain step ``a(root) / a'(root)`` (``a' >= 1``) where
    that denominator is not positive.  It starts at the upper bound
    ``sqrt(max row sum of A^2)``, bisects the bracket [0, that bound]
    whenever a step leaves it, and stops at a step under half an ulp.  That
    takes 5.75 passes a graph on the near-index-4 bench graphs (8.2 with
    the plain step) and at most 6 on the battery corpus of the tests.  The
    norm lands within an ulp of its exact value on that corpus, on paths
    and on doubled tails, and within 1.3 ulps on 4,000 random trees with
    multiple edges (1.9 with the plain step).
    """
    n, root, links, degree = tree
    children = [v for v, p, _, _ in links if p == root]
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
            a = pivot[root]
            if a == 0:
                return sigma
            if a < 0:
                lo = sigma
            else:
                hi = sigma
            c = min(children, key=pivot.__getitem__)
            # Newton on a(root) a(c), which the nearest pole leaves smooth
            slope_h = slope[root] + a * slope[c] / pivot[c]
            step = a / (slope_h if slope_h > 0 else slope[root])
            if abs(step) <= math.ulp(sigma) / 2:
                return sigma - step
        sigma -= step
        if not lo < sigma < hi:
            sigma = lo + (hi - lo) / 2
            if hi - lo <= 2 * math.ulp(hi):
                return sigma
    raise UnsupportedIndex(f"Perron solve failed: no convergence in {TREE_PASSES} passes")


def _norm_is_two(tree: Tree) -> bool:
    """Whether a tree's norm is exactly 2, decided in rational arithmetic.

    It is when the leaf-to-root pivots of ``2I - A`` are positive but for a
    zero root pivot (see ``_tree_norm``): an affine ADE diagram, by Smith.
    """
    from fractions import Fraction

    pivot = [Fraction(2)] * tree.n
    for v, p, _, w in tree.links:
        if pivot[v] <= 0:
            return False
        pivot[p] -= w / pivot[v]
    return pivot[tree.root] == 0


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
    if abs(delta - 2.0) <= NUMERIC_TOL and _norm_is_two(tree):
        delta = 2.0
    sigma = delta * (1 + 4 * sys.float_info.epsilon)
    one = 1 << PIVOT_BITS
    wide = one * one
    scale = 2.0 ** -PIVOT_BITS
    fixed = [int(sigma * one)] * n  # exact: a double times a power of two
    x = [1.0] * n
    try:
        for v, p, _, w in links:
            fixed[p] -= (wide if w == 1 else w * wide) // fixed[v]
        pivot = [f * scale for f in map(float, fixed)]  # rounded once, then scaled exactly
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


def _dimensions(g: GradedBigraph, first: int, stop: int) -> list[float]:
    """Root-normalized Perron entries of the vertices ``first..stop-1``, in flat order."""
    vec = g._perron[1]
    root = vec[0]
    if not root > sys.float_info.epsilon * max(vec):
        raise UnsupportedIndex(
            "root-normalized dimensions exceed double precision"
            " (the root entry of the Perron vector is below its resolution)"
        )
    return [x / root for x in vec[first:stop]]


def dimension_vector(g: GradedBigraph) -> dict[tuple[int, int], float]:
    """Dimensions of every vertex, ``(depth, index)`` -> value, root normalized to 1."""
    vertices = [(d, i) for d, count in enumerate(g.vertex_counts) for i in range(count)]
    return dict(zip(vertices, _dimensions(g, 0, g.vertex_count)))


def supertransitivity(g: GradedBigraph) -> tuple[int, bool]:
    """Length of the initial single-edge string, and whether a branch follows.

    Returns the largest ``s`` such that depths 0..s form a simple path with
    single edges.  ``has_branch`` is true when some vertex at depth s has two
    or more continuations into depth s+1 (counting multiplicity), i.e. the
    graph is not just a path.  Each string vertex is alone at its depth, so
    its up-degree, read from the per-vertex list, is its level's edge count.
    """
    counts, up = g.vertex_counts, g._up
    s = 0
    while s + 1 < len(counts) and counts[s + 1] == 1 and up[s] == 1:  # vertex (s, 0) is flat s
        s += 1
    return s, s + 1 < len(counts)


def _require_simple_triple_point(g: GradedBigraph, n: int, label: str) -> None:
    if n < 2:
        raise NotATriplePoint(f"{label} graph branches at depth 0 (no downward edge)")
    # the branch vertex (n - 1, 0) is flat vertex n - 1 and the end of the string
    valence = g._down[n - 1] + g._up[n - 1]
    if valence != 3:
        raise NotATriplePoint(f"{label} branch vertex has valence {valence}, expected 3")
    # its two edges up reach every depth-n vertex, so they share one exactly
    # when depth n has a single vertex
    if g.vertex_counts[n] != 2:
        raise NotATriplePoint(f"{label} branch vertex has a multiple edge")


def _ordered_depth_n(
    g: GradedBigraph, n: int
) -> tuple[tuple[float, float], tuple[int, int], bool]:
    first = g.vertex_offset(n)
    d0, d1 = _dimensions(g, first, first + 2)
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
    index order and are flagged.  Each graph is solved once, however often
    it is passed, and only its two depth-n dimensions are root-normalized.
    """
    norm_p = graph_norm(principal)
    ctx = nu_from_delta(norm_p)
    norm_d = graph_norm(dual)
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

    (p, q), _, tie = _ordered_depth_n(principal, n)
    (g2, g3), (idx2, idx3), _ = _ordered_depth_n(dual, n)
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
