"""Seeded inputs for the tripoint benchmark.

Everything here is derived from ``(workload, seed)`` alone and never imports
``tripoint`` or the test suite, so a change to the program cannot change the
inputs or, through them, the expected outputs.

Candidate graphs are trees (one variant doubles an edge) on string labels,
graded by breadth-first distance from a chosen root.  Grading one tree from
two different roots gives two graphs with the same spectrum, which is how
pairs with equal norms but different shapes are made.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from oracle import ratio_row

#: Every generated graph's norm clears 2 by this much, keeping the index
#: regime well away from the nu = 1 degeneracy where closed forms lose digits.
MIN_NORM_EXCESS = 1e-4
#: Largest root-normalized dimension allowed.  A Perron vector localized far
#: from the root (a doubled edge at the end of a long tail does this) makes
#: root-normalized dimensions overflow, and neither power iteration nor a
#: dense solver then recovers p + q = [n+1]; such pairs are not generated.
MAX_DIMENSION = 1e6

#: Default size of each workload: pairs per batch, or requests of each kind.
SIZES = {"enum-batch": 150, "near-index-4": 24, "cold-cli": 8}

WHY = {
    "enum-batch": (
        "enumeration-script traffic: one check process over 150 small pairs, a tenth rejected,"
        " start-up amortised, so per-pair parse/extract/battery/render and reject costs"
        " have their largest share here"
    ),
    "near-index-4": (
        "long-armed pairs of 30-300 vertices whose norms crowd toward 2:"
        " the graph spectral layer does nearly all the work"
    ),
    "cold-cli": (
        "one fresh process per request (check, ratios, matrix, qnum):"
        " interpreter and import start-up dominate, and the ratio-inversion path runs"
    ),
}


@dataclass(frozen=True)
class Graph:
    """Depth-graded graph: vertex counts per depth and edges ``(d, u, v)``."""

    counts: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def size(self) -> int:
        return sum(self.counts)

    def offset(self, depth: int) -> int:
        return sum(self.counts[:depth])

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.size, self.size))
        for d, u, v in self.edges:
            i, j = self.offset(d) + u, self.offset(d + 1) + v
            a[i, j] += 1.0
            a[j, i] += 1.0
        return a

    def valence(self, depth: int, index: int) -> int:
        return sum(
            1
            for d, u, v in self.edges
            if (d == depth and u == index) or (d == depth - 1 and v == index)
        )

    def text(self) -> str:
        counts = " ".join(map(str, self.counts))
        edges = " ".join(f"{d}:{u}-{v}" for d, u, v in self.edges)
        return f"depths: {len(self.counts)}\ncounts: {counts}\nedges: {edges}\n"


@dataclass
class PairCase:
    """One pair file; ``reject`` names why the CLI must refuse it, else None."""

    name: str
    family: str
    text: str
    principal: Graph
    dual: Graph
    branch_depth: int
    reject: str | None = None


@dataclass
class Request:
    """One cold-cli invocation: argv after ``python -m tripoint.cli``."""

    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# trees and grading

def grade(edges: list[tuple[str, str]], root: str) -> Graph:
    neighbors: dict[str, list[str]] = {}
    for a, b in edges:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    depth = {root: 0}
    levels: list[list[str]] = [[root]]
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for other in sorted(set(neighbors[node])):
            if other not in depth:
                depth[other] = depth[node] + 1
                if depth[other] == len(levels):
                    levels.append([])
                levels[depth[other]].append(other)
                queue.append(other)
    index = {label: i for level in levels for i, label in enumerate(level)}
    graded = []
    for a, b in edges:
        if depth[a] > depth[b]:
            a, b = b, a
        if depth[b] != depth[a] + 1:
            raise ValueError(f"edge {a}-{b} does not join consecutive depths")
        graded.append((depth[a], index[a], index[b]))
    return Graph(tuple(len(level) for level in levels), tuple(sorted(graded)))


def branched(branch_depth: int, arm_a: tuple[int, ...], arm_b: tuple[int, ...],
             doubled: bool = False) -> list[tuple[str, str]]:
    """A string of ``branch_depth`` edges, then a triple point with arms A and B.

    An arm spec lists the chains sprouting from that arm's first vertex:
    ``()`` leaves it 1-valent, ``(k,)`` continues it, ``(j, k)`` splits it.
    ``doubled`` doubles the first edge of arm B's first chain, one step past
    the branch (a doubled edge at the far end of a long tail would pull the
    Perron vector away from the root).
    """
    path = [f"s{i}" for i in range(branch_depth + 1)]
    edges = list(zip(path, path[1:]))
    for arm, spec in (("A", arm_a), ("B", arm_b)):
        edges.append((path[-1], arm))
        for j, length in enumerate(spec):
            prev = arm
            for step in range(length):
                edges.append((prev, f"{arm}{j}.{step}"))
                prev = f"{arm}{j}.{step}"
    if doubled:
        edges.append(("B", "B0.0"))
    return edges


def two_rooted(string: int, tail: int) -> list[tuple[str, str]]:
    """A tree with a simple triple point at depth ``string`` from both a0 and b0.

    From a0 the branch vertex c1 has two nearly symmetric arms; from b0 the
    branch vertex c2 has a 1-valent neighbour L.  ``tail`` lengthens the far
    end of one arm, breaking the symmetry without touching the b0 grading.
    """
    edges = []
    for prefix, end in (("a", "c1"), ("b", "c2"), ("e", "d2")):
        chain = [f"{prefix}{i}" for i in range(string)] + [end]
        edges += list(zip(chain, chain[1:]))
    edges += [("c1", "w"), ("w", "c2"), ("c2", "L"), ("c1", "v"), ("v", "d2"), ("d2", "K")]
    prev = "e0"
    for i in range(tail):
        edges.append((prev, f"t{i}"))
        prev = f"t{i}"
    return edges


def graph_norm(g: Graph) -> float:
    return float(np.linalg.eigvalsh(g.adjacency())[-1])


def max_dimension(g: Graph) -> float:
    vec = np.abs(np.linalg.eigh(g.adjacency())[1][:, -1])
    return float(vec.max() / vec[0]) if vec[0] > 0 else math.inf


def pair_text(principal: Graph, dual: Graph, comment: str) -> str:
    return f"# {comment}\n[principal]\n{principal.text()}[dual]\n{dual.text()}"


# ---------------------------------------------------------------------------
# valid pair families

VALID_FAMILIES = ("dead", "alive", "split", "doubled", "two-rooted")


def _shape(rng: random.Random, family: str, b: int, size: int) -> tuple[Graph, Graph]:
    """A valid pair of ``family`` at branch depth ``b`` with about ``size`` vertices."""
    if family == "two-rooted":
        edges = two_rooted(b, max(0, size - 3 * b - 7))
        return grade(edges, "a0"), grade(edges, "b0")
    arms = max(1, size - b - 3)  # vertices past the two arm heads
    if family == "dead":
        edges = branched(b, (), (arms,))
    elif family == "alive":
        short = rng.randint(1, max(1, min(4, arms // 3)))
        edges = branched(b, (short,), (max(1, arms - short),))
    elif family == "split":
        short = rng.randint(1, max(1, min(4, arms // 3)))
        edges = branched(b, (), (max(1, arms - short), short))
    elif family == "doubled":
        edges = branched(b, (), (max(2, arms),), doubled=True)
    else:
        raise ValueError(family)
    g = grade(edges, "s0")
    return g, g


def _valid_pair(rng: random.Random, family: str, b: int, lo: int, hi: int):
    """Resample shapes until the pair has lo..hi vertices and norm > 2."""
    for _ in range(1000):
        principal, dual = _shape(rng, family, b, rng.randint(lo, hi))
        if not lo <= principal.size <= hi:
            continue
        norm = graph_norm(principal)
        if norm >= 2.0 + MIN_NORM_EXCESS and max(map(max_dimension, (principal, dual))) <= MAX_DIMENSION:
            return principal, dual, norm
    raise RuntimeError(f"no {family} pair with branch depth {b} in {lo}..{hi} vertices")


# ---------------------------------------------------------------------------
# rejected inputs

REJECT_KINDS = ("bad-token", "wrong-counts", "no-triple-point", "norm-mismatch")


def _reject_case(rng: random.Random, kind: str, b: int) -> tuple[str, Graph, Graph]:
    if kind == "no-triple-point":
        # a 4-valent branch vertex: three arms leave the end of the string
        edges = branched(b, (), (rng.randint(1, 4),))
        edges.append((f"s{b}", "C"))
        edges += [("C", "C.0"), ("C.0", "C.1")][: rng.randint(0, 2)]
        g = grade(edges, "s0")
        return pair_text(g, g, kind), g, g
    if kind == "norm-mismatch":
        tail = rng.randint(4, 10)
        principal = grade(branched(b, (), (tail,)), "s0")
        dual = grade(branched(b, (), (tail + rng.randint(1, 3),)), "s0")
        return pair_text(principal, dual, kind), principal, dual
    principal, dual, _ = _valid_pair(rng, rng.choice(VALID_FAMILIES[:3]), b, b + 6, 24)
    text = pair_text(principal, dual, kind)
    lines = text.splitlines()
    if kind == "bad-token":
        at = next(i for i, line in enumerate(lines) if line.startswith("edges:"))
        tokens = lines[at].split()
        victim = rng.randrange(1, len(tokens))
        d, rest = tokens[victim].split(":")
        tokens[victim] = rng.choice([f"{d}:{rest.replace('-', '_')}", f"x{d}:{rest}", f"{d}:{rest}-"])
        lines[at] = " ".join(tokens)
    elif kind == "wrong-counts":
        at = rng.choice([i for i, line in enumerate(lines) if line.startswith("counts:")])
        tokens = lines[at].split()
        lines[at] = " ".join(tokens[:-1] if rng.random() < 0.5 else tokens + ["1"])
    else:
        raise ValueError(kind)
    return "\n".join(lines) + "\n", principal, dual


# ---------------------------------------------------------------------------
# workloads

def _cases_from(rng: random.Random, specs: list[tuple[str, int, int, int]],
                rejects: list[tuple[str, int]]) -> list[PairCase]:
    cases = []
    for family, b, lo, hi in specs:
        principal, dual, _ = _valid_pair(rng, family, b, lo, hi)
        text = pair_text(principal, dual, f"{family} branch depth {b}")
        cases.append(PairCase("", family, text, principal, dual, b))
    for kind, b in rejects:
        text, principal, dual = _reject_case(rng, kind, b)
        cases.append(PairCase("", kind, text, principal, dual, b, reject=kind))
    rng.shuffle(cases)
    for i, case in enumerate(cases):
        case.name = f"pair-{i:04d}.pair"
    return cases


def enum_batch(seed: int, pairs: int) -> list[PairCase]:
    """Small pairs (6-30 vertices, branch depth 2-7), one tenth of them rejects.

    Every family and branch depth recurs; its k-th occurrence draws its size
    from the k-th of equal bands over its size range, so every seed does a
    similar amount of work.
    """
    rng = random.Random(f"enum-batch:{seed}")
    reject_count = pairs // 10
    depths = range(2, 8)
    slots = len(VALID_FAMILIES) * len(depths)
    bands = -(-(pairs - reject_count) // slots)
    specs = []
    for i in range(pairs - reject_count):
        family = VALID_FAMILIES[i % len(VALID_FAMILIES)]
        b = depths[(i // len(VALID_FAMILIES)) % len(depths)]
        lo = 3 * b + 8 if family == "two-rooted" else max(6, b + 4)
        k, width = i // slots, (30 - lo) / bands
        specs.append((family, b, lo + round(k * width), lo + round((k + 1) * width)))
    rejects = [(REJECT_KINDS[i % len(REJECT_KINDS)], depths[i % len(depths)])
               for i in range(reject_count)]
    return _cases_from(rng, specs, rejects)


def near_index_4(seed: int, pairs: int) -> list[PairCase]:
    """Long-armed pairs whose vertex counts are spread evenly over 30..300.

    Each slot has a fixed family, branch depth and size band; the seed picks
    the shape inside the band, so every seed does a similar amount of work.
    """
    rng = random.Random(f"near-index-4:{seed}")
    families = ("dead", "alive", "dead", "split", "dead", "two-rooted")
    specs = []
    for i in range(pairs):
        centre = 30 + (270 * i) // max(1, pairs - 1)
        band = max(3, centre // 20)
        specs.append((families[i % len(families)], 2 + i % 8,
                      max(30, centre - band), min(300, centre + band)))
    return _cases_from(rng, specs, [])


def cold_cli(seed: int, per_kind: int) -> list[Request]:
    """A fixed cycle of check, ratios, matrix and qnum requests at n <= 20."""
    rng = random.Random(f"cold-cli:{seed}")
    checks = enum_batch(seed, pairs=10 * per_kind)
    checks = [c for c in checks if c.reject is None][:per_kind]
    kinds: dict[str, list[Request]] = {"check": [], "ratios": [], "matrix": [], "qnum": []}
    for case in checks:
        kinds["check"].append(Request("check", ["check", "--format", "json"], {"case": case}))
    for _ in range(per_kind):
        n = 2 * rng.randint(1, 10)
        delta = rng.uniform(2.01, 2.4)
        if rng.random() < 0.5:
            argv, params = ["--delta", repr(delta)], {"delta": delta}
        else:
            index = delta * delta
            argv, params = ["--index", repr(index)], {"index": index}
        kinds["ratios"].append(Request(
            "ratios", ["ratios", "--n", str(n), *argv, "--format", "json"], {"n": n, **params}))
    for _ in range(per_kind):
        n = 2 * rng.randint(2, 10)
        delta = rng.uniform(2.01, 2.4)
        row = ratio_row(delta, n, rng.randint(1, n // 2))  # an admissible (p, q)
        kinds["matrix"].append(Request(
            "matrix", ["matrix", "--n", str(n), "--delta", repr(delta), "--p", repr(row["p"]),
                       "--q", repr(row["q"]), "--format", "json"],
            {"n": n, "delta": delta, "p": row["p"], "q": row["q"]}))
    for _ in range(per_kind):
        delta = rng.uniform(2.0 + MIN_NORM_EXCESS, 2.5)
        top = rng.randint(5, 20)
        kinds["qnum"].append(Request(
            "qnum", ["qnum", "--delta", repr(delta), "--max", str(top), "--format", "json"],
            {"delta": delta, "max": top}))
    order = []
    for i in range(per_kind):
        order += [kinds[kind][i] for kind in ("check", "ratios", "matrix", "qnum")]
    return order


def describe(cases: list[PairCase]) -> dict:
    """Vertex-count and norm distributions and the reject share of a corpus."""
    sizes = [c.principal.size for c in cases]
    norms = [graph_norm(c.principal) for c in cases if c.reject is None]

    def spread(values):
        if not values:
            return None
        q = np.percentile(values, [0, 25, 50, 75, 100])
        return dict(zip(("min", "q1", "median", "q3", "max"), map(float, q)))

    return {
        "pairs": len(cases),
        "vertices_per_graph": spread(sizes),
        "graph_norm": spread(norms),
        "reject_share": sum(c.reject is not None for c in cases) / max(1, len(cases)),
        "families": {f: sum(c.family == f for c in cases) for f in sorted({c.family for c in cases})},
    }
