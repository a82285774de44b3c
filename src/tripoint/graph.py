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
normalized to 1 at the root.  Each graph's norm is solved once, without its
vector, and the vector is solved from that norm, once, only when dimensions
are read.  A tree (every non-root vertex has one distinct neighbour one
depth up; multiple edges are allowed) is solved in pure Python: the norm is
the largest root of the last pivot of a leaf-to-root elimination of
``sigma I - A``, found by safeguarded Newton, and two steps of inverse
iteration just above it, each an O(V) elimination and back substitution,
give the vector.  A graph with a cycle takes a dense half-size solve with
numpy, in ``tripoint.dense``: a graded graph is bipartite between even and
odd depths, so the norm is the square root of the largest eigenvalue of
``B B^T``, with B the even-by-odd biadjacency, and the same two
inverse-iteration steps give the vector.  Either way every entry, however small, keeps most of double
precision (figures in ``GradedBigraph._vector``), and any failure raises
``UnsupportedIndex``.  Note that for an incomplete candidate graph these
dimensions differ from those of any completion, so verdicts derived from a
truncated graph are advisory.  Root normalization needs the root entry of
the unit eigenvector to lie above double-precision resolution; a graph
whose dimensions grow past that raises ``UnsupportedIndex``.

The norm of a pair's principal graph is the pair's delta.  Extraction builds
the quantum context from it and stores it with the triple-point data, so no
caller supplies delta and every test of the pair reads the same one.
Extraction reads only the facts the obstructions use: the norms, the initial
string, the branch vertices' edges, the principal graph's two depth-n
dimensions, root-normalized straight from its cached Perron vector, and the
dual graph's two depth-n valences.  So the principal graph is solved for its
dimensions and the dual only for its norm: gamma2 and gamma3 are told apart
by shape (see ``TriplePointData``).

The parser checks syntax only: it reads each ``edges:`` line whole and
converts each number once, looking numbers below 512 up in a table.  The
graph alone checks that each edge fits the counts, in the order given, and
the parser reports its first misfit as that token's error; the graph then
sorts its edges and indexes its vertices in one pass.  A self-dual pair
file, whose two sections describe the same graph, yields one graph object
for both sections, so it is parsed and solved once.  ``tripoint.dense``,
and with it numpy, is imported only when a graph with a cycle is first
solved, so importing this module, parsing, checking a pair of trees and
the non-spectral commands never compile the one or load the other.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable
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
from .qnum import NUMERIC_TOL, QuantumContext

Edge = tuple[int, int, int]

#: The well-formed ``d:u-v`` tokens that start a line, each ended by blanks or the line end.
_EDGES_RE = re.compile(r"(?:\s*\d+:\d+-\d+(?!\S))*\s*")


class _Graph(NamedTuple):
    vertex_counts: tuple[int, ...]
    edges: tuple[Edge, ...]


class GradedBigraph(_Graph):
    """A connected graph graded by distance from a unique root vertex.

    Graphs come from ``parse_graph`` or ``parse_pair``: the parser checks
    the syntax of its input, its numbers, the ``d:u-v`` form of each edge
    and the length of the counts line.  The constructor checks that every
    edge fits the counts, in the order given, and names the first that does
    not (``InvalidGraph.edge_index``); then the counts, and the grading.  It
    sorts the edges, so two descriptions of one graph compare and hash
    equal.  One pass over the sorted edges lists, per vertex in flat order,
    its first neighbour one depth up (-2 once it has two) and its edges down
    and up: the graded check, the tree links and every degree lookup read
    those lists, and none of them bisects.

    A graph is a tuple of its two fields, like every value of the package
    (see ``qnum``): they cannot be assigned or deleted, equality and hashing
    go by them, ``_replace`` and ``_make`` rerun these checks, and the
    vertex index and the cached solves live in the instance dict.
    """

    def __new__(cls, counts: tuple[int, ...], edges: Iterable[Edge]) -> GradedBigraph:
        edges = tuple(edges)
        last = len(counts) - 1
        for index, (d, u, v) in enumerate(edges):  # in the order given: the first misfit is named
            if not (0 <= d < last and 0 <= u < counts[d] and 0 <= v < counts[d + 1]):
                raise InvalidGraph(f"edge {(d, u, v)} does not fit the counts {counts}", index)
        edges = tuple(sorted(edges))
        if not counts or counts[0] != 1:
            raise InvalidGraph("exactly one vertex at depth 0 required")
        if min(counts) < 1:
            raise InvalidGraph("every depth must have at least one vertex")
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
        self = super().__new__(cls, counts, edges)
        vars(self).update(_offsets=offsets, _parent=parent, _down=down, _up=up)
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> GradedBigraph:
        return cls(*iterable)  # so ``_replace`` checks too

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
        divides out the nearest one.  From this root it needs about 5.8
        passes a graph on the near-index-4 bench graphs (12.7 from depth 0),
        and 5 on doubled tails of 10 to 62 (45 from depth 0).  Re-rooting
        reverses only the path from that vertex down to depth 0.
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
    def _norm(self) -> float:
        """Largest eigenvalue, solved once per graph and without its vector.

        A tree is solved in pure Python (``_tree_norm``), so checking a tree
        pair never imports numpy; a float norm within ``NUMERIC_TOL`` of 2 is
        decided exactly (``_norm_is_two``).  A graph with a cycle takes one
        ``eigvalsh`` of the even-side Gram matrix (``dense._dense_norm``).
        """
        tree = self._tree
        if tree is None:
            return self._dense[0]
        delta = _tree_norm(tree)
        return 2.0 if abs(delta - 2.0) <= NUMERIC_TOL and _norm_is_two(tree) else delta

    @cached_property
    def _vector(self) -> tuple[float, ...]:
        """Unit positive Perron vector, solved from ``_norm`` only when dimensions are read.

        Only ``_dimensions`` reads it, so of a pair only the principal graph
        is solved for its vector: the dual gives its norm and its shape.
        Both paths (``_tree_vector``, ``dense._dense_vector``) take two
        steps of inverse iteration with ``sigma I - A`` at ``sigma = delta
        (1 + 4 eps)``, starting from ones, and the result is scaled to unit length
        and a positive sum here.  Unlike a dense eigensolver, whose vector
        entries carry an absolute error of about eps, this keeps small
        entries (the root of a graph whose dimensions grow far from it) to a
        small relative error.  Against a 60-digit inverse iteration on
        doubled tails of t vertices after the branch, the worst entry of the
        unit vector is off by at most 3 eps through t = 40, then 6.5 eps at
        50, 12 at 58, 65 at 60 and 195 at 62, the longest tail whose
        dimensions root-normalize; p and q stay within 3e-14 relative.  The
        dense solve keeps its test graphs (a cycle, and dimensions up to
        2e14) within 6.5 eps.  One step is not enough there; two are.  Any
        failure raises ``UnsupportedIndex``.
        """
        if self.vertex_count == 1:
            return (1.0,)
        sigma, tree = self._norm * (1 + 4 * sys.float_info.epsilon), self._tree
        if tree is None:
            from .dense import _dense_vector  # loaded with ``_dense``, which ``_norm`` read

            vec = _dense_vector(self, sigma)
        else:
            vec = _tree_vector(tree, sigma)
        norm = math.copysign(math.hypot(*vec), math.fsum(vec))
        if not all(x / norm > 0 for x in vec):
            raise UnsupportedIndex("Perron vector is not strictly positive in double precision")
        return tuple(x / norm for x in vec)

    @cached_property
    def _dense(self) -> tuple:
        """``dense._dense_norm``: the norm of a graph with a cycle and what its vector solve reuses."""
        from .dense import _dense_norm  # here, not at start-up: it loads numpy

        return _dense_norm(self)

    def valence(self, depth: int, index: int) -> int:
        """Number of incident edges, counted with multiplicity."""
        flat = self._offsets[depth] + index
        return self._down[flat] + self._up[flat]


class TriplePointData(NamedTuple):
    """Branch data consumed by the obstruction battery, made by ``extract_triple_point``.

    ``ctx`` evaluates quantum integers at the pair's delta, the norm of its
    principal graph.  ``n`` is the depth of the two branch arms (the branch
    vertex sits at depth n-1), ``p >= q > 0`` are the principal-graph
    dimensions at depth n.

    The two flags describe the dual graph's shape, read from valences
    without its dimensions.  Its two depth-n vertices hang from the branch
    vertex alone, so a 1-valent one has the strictly smaller Perron entry:
    it is gamma3, and ``gamma3_univalent`` holds when either is 1-valent.
    ``gamma2_trivalent`` then checks that the other vertex, gamma2, is
    3-valent.  When neither is 1-valent it is False; no verdict reads it
    then, since the rotational and quadratic-tangles tests need a 1-valent
    gamma3.
    """

    ctx: QuantumContext
    n: int
    p: float
    q: float
    gamma3_univalent: bool
    gamma2_trivalent: bool

    @property
    def branch_depth_odd(self) -> bool:
        return (self.n - 1) % 2 == 1


# ---------------------------------------------------------------------------
# parsing

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
    ``+1`` or a non-ASCII digit, gives what ``int()`` gives and is not
    stored.  This is the one rule for a number too long to convert: a
    signed or unsigned run of decimal digits that ``int()`` refuses (more
    digits than it converts, 4,300 by default) gives ``math.inf``, which
    every reader reports as too long or out of range.  Any other token
    raises ``ValueError``.
    """

    def __missing__(self, token: str) -> int | float:
        try:
            return int(token)
        except ValueError:
            if re.fullmatch(r"[+-]?\d+", token):
                return math.inf
            raise


@cache
def _small_numbers() -> _Numbers:
    """The token table, built on first use so that importing costs nothing."""
    return _Numbers((str(k), k) for k in range(512))


def _parse_block_exact(lines: list[tuple[int, str]]) -> GradedBigraph:
    number = _small_numbers().__getitem__
    lineno, text = _take_key(lines, "depths")
    tokens = text.split()
    depth_count = number(tokens[0]) if len(tokens) == 1 and tokens[0].isdecimal() else 0
    if depth_count == math.inf:
        raise ParseError("'depths:' has a number too long to convert", lineno)
    if depth_count < 1:
        raise ParseError("'depths:' needs a single positive integer", lineno)

    lineno, text = _take_key(lines, "counts")
    tokens = text.split()
    if len(tokens) != depth_count:
        raise ParseError(
            f"'counts:' needs exactly {depth_count} entries, got {len(tokens)}", lineno
        )
    try:
        counts = tuple(map(number, tokens))
    except ValueError:
        raise ParseError("'counts:' entries must be integers", lineno) from None
    if math.inf in counts:
        raise ParseError("'counts:' has a number too long to convert", lineno)

    # The line is read whole, up to its first malformed token, and the graph
    # is built on that prefix.  The first bad token in line order is reported:
    # the first edge that the constructor finds not to fit the counts, else the
    # malformed token, before any other error of the graph.  A number too long
    # to convert fits nothing: every count was short enough.
    lineno, text = _take_key(lines, "edges")
    good = text[: _EDGES_RE.match(text).end()]
    numbers = list(map(number, good.replace(":", " ").replace("-", " ").split()))
    edges = list(zip(numbers[::3], numbers[1::3], numbers[2::3]))
    try:
        graph = GradedBigraph(counts, edges)
    except InvalidGraph as exc:
        if exc.edge_index is not None:
            token, d = good.split()[exc.edge_index], edges[exc.edge_index][0]
            shown = d if d < math.inf else token.partition(":")[0]
            problem = ("vertex index out of range" if d < depth_count - 1
                       else f"depth {shown} out of range for {depth_count} depths")
            raise ParseError(f"edge {token!r}: {problem}", lineno) from None
        if len(good) == len(text):
            raise
    if len(good) < len(text):
        token = text[len(good) :].split()[0]
        raise ParseError(f"bad edge token {token!r} (expected d:u-v)", lineno)
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
    takes about 5.8 passes a graph on the near-index-4 bench graphs (8.2 with
    the plain step) and at most 6 on the battery corpus of the tests.

    The root pivot is summed with ``math.fsum``: rounded child by child,
    its error grows with the root's child count, and on spiders of up to
    60 legs the norm ended up to 4 ulps off.  The norm lands within an
    ulp of its exact value on the battery corpus, on paths, on doubled
    tails and on 4,000 such spiders, and within 1.15 ulps on each of four
    draws of 4,000 random trees with multiple edges (1.9 with the plain
    step).
    """
    n, root, links, degree = tree
    children = [(v, w) for v, p, _, w in links if p == root]
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
            a = math.fsum([sigma, *(-w / pivot[v] for v, w in children)])  # not rounded per child
            if a == 0:
                return sigma
            if a < 0:
                lo = sigma
            else:
                hi = sigma
            c = min(children, key=lambda vw: pivot[vw[0]])[0]
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


def _tree_vector(tree: Tree, sigma: float) -> list[float]:
    """Perron vector of a tree by inverse iteration at ``sigma``, O(V) a pass, without numpy.

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
    return x


def graph_norm(g: GradedBigraph) -> float:
    """Spectral radius of the adjacency matrix (the graph norm); solves no vector."""
    return g._norm


def _dimensions(g: GradedBigraph, first: int, stop: int) -> list[float]:
    """Root-normalized Perron entries of the vertices ``first..stop-1``, in flat order."""
    vec = g._vector
    root = vec[0]
    if not root > sys.float_info.epsilon * max(vec):
        raise UnsupportedIndex(
            "root-normalized dimensions exceed double precision"
            " (the root entry of the Perron vector is below its resolution)"
        )
    return [x / root for x in vec[first:stop]]


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
    valence = g.valence(n - 1, 0)  # the branch vertex ends the string
    if valence != 3:
        raise NotATriplePoint(f"{label} branch vertex has valence {valence}, expected 3")
    # its two edges up reach every depth-n vertex, so they share one exactly
    # when depth n has a single vertex
    if g.vertex_counts[n] != 2:
        raise NotATriplePoint(f"{label} branch vertex has a multiple edge")


#: How many ulps of the larger norm a pair's two norms may differ by: three
#: times the widest spread measured between graphs of one norm.  With Python
#: 3.11 and numpy 2.4.6, the 1,710 norm-matching pairs of the output gate's
#: seeds 101-110, all trees, lie within 1.0 ulp; graphs with a cycle,
#: relabelled within their depths or graded from other vertices, move
#: through the dense solve by up to 11 ulps under 100 vertices and 20 at
#: 200 to 800.  Distinct norms within the window are still taken as one;
#: ``tests/fixtures/norms_1e-9_apart.pair`` holds two, 1.26 million ulps
#: apart, that an absolute bound of ``NUMERIC_TOL`` would take as one.
NORM_MATCH_ULPS = 64


def extract_triple_point(principal: GradedBigraph, dual: GradedBigraph) -> TriplePointData:
    """Locate the initial triple point of a graph pair and collect its data.

    The pair's shape comes first, and solves nothing: both graphs must share
    their supertransitivity, and each must branch into a simple triple point
    (three single edges: one down, two up).  Only a pair of that shape is
    solved: delta is the principal graph's norm, refused below 2 by
    ``qnum.QuantumContext`` and exactly 2 only for a tree that
    ``_norm_is_two`` decides so, and the dual's norm must agree with it to
    ``NORM_MATCH_ULPS`` ulps of the larger.  p >= q are the principal
    graph's depth-n dimensions; the dual's flags come from its depth-n
    valences.  Each graph's norm is solved at most once, however often it
    is passed, the vector of the principal graph alone, and only its two
    depth-n dimensions are root-normalized.
    """
    s_p, branch_p = supertransitivity(principal)
    s_d, branch_d = supertransitivity(dual)
    if s_p != s_d:
        raise SupertransitivityMismatch(f"supertransitivities differ: {s_p} vs {s_d}")
    if not (branch_p and branch_d):
        raise NotATriplePoint("graph has no initial branch point")
    n = s_p + 1
    _require_simple_triple_point(principal, n, "principal")
    _require_simple_triple_point(dual, n, "dual")
    norm_p = graph_norm(principal)
    ctx = QuantumContext(norm_p)
    norm_d = graph_norm(dual)
    if abs(norm_p - norm_d) > NORM_MATCH_ULPS * math.ulp(max(norm_p, norm_d)):
        raise NormMismatch(f"graph norms differ: {norm_p!r} vs {norm_d!r}")

    first = principal.vertex_offset(n)
    q, p = sorted(_dimensions(principal, first, first + 2))
    ctx.check_dimension_sum(n, p, q)
    # the dual's shape decides which depth-n vertex is gamma3 (see TriplePointData)
    low, high = sorted(dual.valence(n, i) for i in (0, 1))
    return TriplePointData(
        ctx=ctx,
        n=n,
        p=p,
        q=q,
        gamma3_univalent=low == 1,
        gamma2_trivalent=low == 1 and high == 3,
    )
