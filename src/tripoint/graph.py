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
normalized to 1 at the root.  One half-size solve per graph yields both them
and the graph norm: a graded graph is bipartite between even and odd depths,
so the norm is the square root of the largest eigenvalue of ``B B^T``, with B
the even-by-odd biadjacency, and two steps of inverse iteration just above
the norm give the vector with every entry, however small, to a few ulps
relative.  Any failure of that solve raises ``UnsupportedIndex``.  Note that
for an incomplete candidate graph these dimensions differ from those of any
completion, so verdicts derived from a truncated graph are advisory.  Root
normalization needs the root entry of the unit eigenvector to lie above
double-precision resolution; a graph whose dimensions grow past that raises
``UnsupportedIndex``.

A self-dual pair file, whose two sections describe the same graph, yields one
graph object for both sections, so it is parsed and solved once.  numpy is
imported only when a graph is first solved (or its adjacency matrix is
built), so importing this module, parsing and the non-spectral commands never
load it.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING

from .errors import (
    EigenvalueMismatch,
    InvalidGraph,
    NormMismatch,
    NotATriplePoint,
    ParseError,
    SupertransitivityMismatch,
    UnsupportedIndex,
)
from .qnum import NUMERIC_TOL, QuantumContext

if TYPE_CHECKING:
    import numpy as np

Edge = tuple[int, int, int]

_EDGE_RE = re.compile(r"^(\d+):(\d+)-(\d+)$")


@dataclass(frozen=True)
class GradedBigraph:
    """A connected graph graded by distance from a unique root vertex."""

    vertex_counts: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.vertex_counts)
        edges = tuple(sorted((int(d), int(u), int(v)) for d, u, v in self.edges))
        object.__setattr__(self, "vertex_counts", counts)
        object.__setattr__(self, "edges", edges)
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
    def _perron(self) -> tuple[float, np.ndarray]:
        """Largest eigenvalue and unit positive eigenvector, solved once per graph.

        Depth parity splits the graph into even and odd sides, so its
        adjacency is ``[[0, B], [B^T, 0]]`` with B the even-by-odd
        biadjacency.  delta is the square root of the largest eigenvalue of
        ``G = B B^T``, whose entries are small integers and so exact.  The
        vector comes from two steps of inverse iteration with ``sigma I - A``
        at ``sigma = delta (1 + 4 eps)``, each solved through the Schur
        complement ``sigma^2 I - G`` on the even side.  Unlike a dense
        eigensolver, whose vector entries carry an absolute error of about
        eps, this keeps small entries (the root of a graph whose dimensions
        grow far from it) to a few ulps relative.  One step is not enough
        there; two are.  Any failure raises ``UnsupportedIndex``.
        """
        import numpy as np

        counts = self.vertex_counts
        if len(counts) == 1:
            vec = np.ones(1)
            vec.setflags(write=False)
            return 0.0, vec
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
            for d, u, v in self.edges
        ]
        b = np.bincount(cells, minlength=n_even * n_odd).reshape(n_even, n_odd).astype(float)
        g = b @ b.T
        try:
            delta = math.sqrt(np.linalg.eigvalsh(g)[-1])
            sigma = delta * (1 + 4 * sys.float_info.epsilon)
            schur = -g
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
        if not vec.min() > 0:
            raise UnsupportedIndex("Perron vector is not strictly positive in double precision")
        vec.setflags(write=False)  # shared by every reader of this graph
        return delta, vec

    @cached_property
    def _incidence(self) -> tuple[dict[tuple[int, int], dict[int, int]], Counter, Counter]:
        """Up-multiplicities, up-degrees and down-degrees, keyed by vertex."""
        ups: dict[tuple[int, int], dict[int, int]] = {}
        up_degrees: Counter = Counter()
        down_degrees: Counter = Counter()
        for d, u, v in self.edges:
            row = ups.setdefault((d, u), {})
            row[v] = row.get(v, 0) + 1
            up_degrees[(d, u)] += 1
            down_degrees[(d + 1, v)] += 1
        return ups, up_degrees, down_degrees

    def up_multiplicities(self, depth: int, index: int) -> dict[int, int]:
        """Multiplicity of edges from ``(depth, index)`` to each depth+1 vertex."""
        return dict(self._incidence[0].get((depth, index), {}))

    def down_degree(self, depth: int, index: int) -> int:
        return self._incidence[2][(depth, index)]

    def up_degree(self, depth: int, index: int) -> int:
        return self._incidence[1][(depth, index)]

    def valence(self, depth: int, index: int) -> int:
        """Number of incident edges, counted with multiplicity."""
        return self.down_degree(depth, index) + self.up_degree(depth, index)


@dataclass(frozen=True)
class DimensionAssignment:
    """Perron-Frobenius dimensions: vertex ``(depth, index)`` -> positive real."""

    delta: float
    dims: dict[tuple[int, int], float]

    def __getitem__(self, vertex: tuple[int, int]) -> float:
        return self.dims[vertex]


@dataclass(frozen=True)
class TriplePointData:
    """Branch data consumed by the obstruction battery.

    ``n`` is the depth of the two branch arms (the branch vertex sits at
    depth n-1), ``p >= q`` are the principal-graph dimensions at depth n and
    ``dual_dims`` the dual-graph ones, ordered the same way.  ``dim_tie``
    flags p and q agreeing within tolerance, in which case the ordering is
    conventional.
    """

    n: int
    p: float
    q: float
    dual_dims: tuple[float, float]
    gamma3_univalent: bool
    gamma2_trivalent: bool
    branch_depth_odd: bool
    dim_tie: bool = False

    def __post_init__(self) -> None:
        if not (self.q > 0 and self.p >= self.q):
            raise InvalidGraph("branch dimensions must satisfy p >= q > 0")
        g2, g3 = self.dual_dims
        if not (g3 > 0 and g2 >= g3):
            raise InvalidGraph("dual branch dimensions must be positive and ordered")


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

def graph_norm(g: GradedBigraph) -> float:
    """Spectral radius of the adjacency matrix (the graph norm)."""
    return g._perron[0]


def dimension_vector(g: GradedBigraph, delta: float) -> DimensionAssignment:
    """Perron-Frobenius dimensions at eigenvalue ``delta``, root normalized to 1."""
    norm, vec = g._perron
    if abs(delta - norm) > NUMERIC_TOL:
        raise EigenvalueMismatch(f"delta = {delta!r} is not the graph norm {norm!r}")
    if not vec[0] > sys.float_info.epsilon * vec.max():
        raise UnsupportedIndex(
            "root-normalized dimensions exceed double precision"
            " (the root entry of the Perron vector is below its resolution)"
        )
    vertices = [(d, i) for d, count in enumerate(g.vertex_counts) for i in range(count)]
    return DimensionAssignment(delta=delta, dims=dict(zip(vertices, (vec / vec[0]).tolist())))


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
    dims: DimensionAssignment, n: int
) -> tuple[tuple[float, float], tuple[int, int], bool]:
    d0, d1 = dims[(n, 0)], dims[(n, 1)]
    tie = abs(d0 - d1) <= NUMERIC_TOL * max(1.0, d0, d1)
    if d1 > d0:
        return (d1, d0), (1, 0), tie
    return (d0, d1), (0, 1), tie


def extract_triple_point(
    ctx: QuantumContext, principal: GradedBigraph, dual: GradedBigraph
) -> TriplePointData:
    """Locate the initial triple point of a graph pair and collect its data.

    Both graphs must share their norm and supertransitivity, and each must
    branch into a simple triple point (three single edges: one down, two up).
    Larger-dimension vertices come first in the (p, q) and dual orderings;
    exact ties keep the input index order and are flagged.
    """
    norm_p = graph_norm(principal)
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

    dims_p = dimension_vector(principal, ctx.delta)
    dims_d = dims_p if dual is principal else dimension_vector(dual, ctx.delta)
    (p, q), _, tie = _ordered_depth_n(dims_p, n)
    (g2, g3), (idx2, idx3), _ = _ordered_depth_n(dims_d, n)
    ctx.check_dimension_sum(n, p, q)
    return TriplePointData(
        n=n,
        p=p,
        q=q,
        dual_dims=(g2, g3),
        gamma3_univalent=dual.valence(n, idx3) == 1,
        gamma2_trivalent=dual.valence(n, idx2) == 3,
        branch_depth_odd=(n - 1) % 2 == 1,
        dim_tie=tie,
    )
