"""Graded graphs: parsing, spectra, supertransitivity, triple point extraction."""

import math
import sys
import tracemalloc
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import helpers
from tripoint import dense
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
    extract_triple_point,
    graph_norm,
    parse_graph,
    parse_pair,
    supertransitivity,
)
from tripoint.qnum import QuantumContext

BRANCHED_TEXT = "depths: 5\ncounts: 1 1 1 1 2\nedges: 0:0-0 1:0-0 2:0-0 3:0-0 3:0-1"


def path_graph(vertices: int) -> GradedBigraph:
    return helpers.make_graph((1,) * vertices, [(d, 0, 0) for d in range(vertices - 1)])


def eigh_perron(g: GradedBigraph) -> tuple[float, np.ndarray]:
    """Spectral oracle via a dense eigensolve of the full adjacency matrix."""
    w, v = np.linalg.eigh(helpers.adjacency(g))
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
    text = helpers.pair_text(principal, dual)
    back_p, back_d = parse_pair(text)
    assert back_p == principal
    assert back_d == dual
    assert back_p is not back_d


def test_parse_pair_requires_sections():
    with pytest.raises(ParseError, match="principal"):
        parse_pair(BRANCHED_TEXT)
    with pytest.raises(ParseError, match="dual"):
        parse_pair("[principal]\n" + BRANCHED_TEXT)


def test_parse_pair_section_without_key_lines():
    with pytest.raises(ParseError, match="missing 'depths:' line"):
        parse_pair("[principal]\n[dual]\n" + BRANCHED_TEXT)


def test_parse_pair_identical_sections_share_one_graph(monkeypatch):
    g = parse_graph(BRANCHED_TEXT)
    parsed = []
    parse_block = graph_module._parse_block_exact
    monkeypatch.setattr(
        graph_module, "_parse_block_exact", lambda lines: parsed.append(lines) or parse_block(lines)
    )
    principal, dual = parse_pair(helpers.pair_text(g, g))
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
    principal, dual = parse_pair(helpers.pair_text(*pair))
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


@pytest.mark.parametrize(
    "build, message",
    [
        # vertex 1 at depth 1 does not exist; the edge would land on depth 2
        (lambda: GradedBigraph((1, 1, 1), [(0, 0, 0), (0, 0, 1)]), r"edge \(0, 0, 1\) does not fit"),
        # index -1 would wrap round to the root
        (lambda: GradedBigraph((1, 2), [(0, 0, 0), (0, 0, -1)]), r"edge \(0, 0, -1\) does not fit"),
        (lambda: GradedBigraph((1, 2), [(0, 0, 0), (0, 0, 1), (1, 0, 0)]), r"edge \(1, 0, 0\) does not fit"),
        (lambda: GradedBigraph((), []), "exactly one vertex at depth 0 required"),
        (lambda: helpers.two_rooted_pair(0)[0]._replace(vertex_counts=(1, 5, 1)),
         r"edge \(2, 0, 0\) does not fit the counts \(1, 5, 1\)"),
        # the first misfit in the order given, not in sorted order
        (lambda: GradedBigraph((1, 2), [(0, 0, 5), (0, 0, 0), (0, 0, -1)]), r"edge \(0, 0, 5\)"),
        # checked before the counts that the edges cannot cover
        (lambda: GradedBigraph((1, 1, 1), [(0, 0, 9)]), r"edge \(0, 0, 9\) does not fit"),
    ],
    ids=["past-the-count", "negative-index", "past-the-last-depth", "no-counts", "replace",
         "first-in-given-order", "before-the-grading"],
)
def test_constructor_refuses_edges_that_do_not_fit_the_counts(build, message):
    """A graph built in code gets the range check that the parser reports, as ``InvalidGraph``."""
    with pytest.raises(InvalidGraph, match=message):
        build()


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


def block_text(counts, edges, counts_line=None, tokens=None, blank=""):
    """A graph block with the edge tokens in the given order, ``blank`` before each key."""
    counts_line = " ".join(map(str, counts)) if counts_line is None else counts_line
    tokens = [f"{d}:{u}-{v}" for d, u, v in edges] if tokens is None else tokens
    return (
        f"{blank}depths: {len(counts)}\n{blank}counts: {counts_line}\n"
        f"{blank}edges: {' '.join(tokens)}\n"
    )


@settings(max_examples=300, deadline=None)
@given(candidate=graded_candidates())
def test_lookups_match_edge_scans(candidate):
    """Every lookup agrees with a scan of the edge list, whether the graph is built or parsed."""
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
        text = block_text(counts, edges)
        for build in (lambda: GradedBigraph(counts, edges), lambda: parse_graph(text)):
            with pytest.raises(InvalidGraph) as excinfo:
                build()
            assert str(excinfo.value) == not_graded
        return

    offsets = [sum(counts[:depth]) for depth in range(len(counts) + 1)]
    flat = Counter((offsets[d] + u, offsets[d + 1] + v) for d, u, v in edges)
    degree = [0] * offsets[-1]
    uppers = [set() for _ in degree]
    for (a, b), m in flat.items():
        degree[a] += m
        degree[b] += m
        uppers[b].add(a)
    expected = np.zeros((offsets[-1], offsets[-1]))
    for (a, b), m in flat.items():
        expected[a, b] = expected[b, a] = m
    level_edges = Counter(d for d, _, _ in edges)
    s = 0
    while s + 1 < len(counts) and counts[s + 1] == 1 and level_edges[s] == 1:
        s += 1

    built = GradedBigraph(counts, edges)
    parsed = parse_graph(block_text(counts, edges))
    assert parsed == built
    for g in (built, parsed):
        for depth in range(len(counts) + 1):
            assert g.vertex_offset(depth) == offsets[depth]
        assert np.array_equal(helpers.adjacency(g), expected)
        for d, count in enumerate(counts):
            for i in range(count):
                up = sum(1 for dd, u, _ in edges if dd == d and u == i)
                down = sum(1 for dd, _, v in edges if dd == d - 1 and v == i)
                assert g._up[offsets[d] + i] == up
                assert g._down[offsets[d] + i] == down
                assert g.valence(d, i) == up + down
        assert supertransitivity(g) == (s, s + 1 < len(counts))

        tree = g._tree
        if any(len(above) > 1 for above in uppers):
            assert tree is None
            continue
        # a tree: its links are the edges, each once with its multiplicity, listed
        # after every link from below, from the deepest vertex of largest degree
        assert tree.n == offsets[-1]
        assert tree.degree == degree
        assert tree.root == max(range(tree.n), key=lambda x: (degree[x], x))
        assert {frozenset((v, p)): (m, w) for v, p, m, w in tree.links} == {
            frozenset(pair): (m, m * m) for pair, m in flat.items()
        }
        order = [v for v, _, _, _ in tree.links] + [tree.root]
        assert all(order.index(v) < order.index(p) for v, p, _, _ in tree.links)


MALFORMED_TOKENS = [
    "0:0->0", "0:0", "x", "0:0-0:1", "1-0:0", ":0-0", "0:-0", "0:0-", "0:0-0-0", "+1:0-0",
    "0:0-0x", "0:0-0,", "0: 0-0", "-1:0-0",
]
#: Well-formed tokens the old and new parsers must read alike: leading zeros, Arabic-Indic digits.
ODD_TOKENS = ["00:0-0", "0:00-000", "\u0660:\u0660-\u0660"]


def outcome(parse, text):
    """What parsing ``text`` gives: the graph, or the error's type, message and line."""
    try:
        return parse(text)
    except TripointError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@st.composite
def corrupted_blocks(draw):
    """A serialized candidate with up to two single-token corruptions of its counts or edges."""
    counts, edges = draw(graded_candidates())
    counts_line = [str(c) for c in counts]
    tokens = [f"{d}:{u}-{v}" for d, u, v in edges]
    kinds = ["malformed", "odd", "depth", "index", "counts-length", "count-value"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2)):
        if kind == "counts-length":
            if len(counts_line) > 1 and draw(st.booleans()):
                counts_line.pop(draw(st.integers(0, len(counts_line) - 1)))
            else:
                counts_line.insert(draw(st.integers(0, len(counts_line))), "1")
            continue
        if kind == "count-value":
            counts_line[draw(st.integers(0, len(counts_line) - 1))] = draw(
                st.sampled_from(["0", "2", "-1"])
            )
            continue
        if kind == "malformed":
            token = draw(st.sampled_from(MALFORMED_TOKENS))
        elif kind == "odd":
            token = draw(st.sampled_from(ODD_TOKENS))
        elif kind == "depth" or len(counts) == 1:
            token = f"{len(counts) - 1 + draw(st.integers(0, 2))}:0-0"
        else:
            d = draw(st.integers(0, len(counts) - 2))
            token = draw(st.sampled_from([f"{d}:{counts[d]}-0", f"{d}:0-{counts[d + 1]}"]))
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    blank = draw(st.sampled_from(["", "# a comment\n", "\n  \n"]))
    return block_text(counts, edges, " ".join(counts_line), tokens, blank)


@settings(max_examples=500, deadline=None)
@given(text=corrupted_blocks())
def test_parser_matches_token_by_token_reference(text):
    """The line-at-once parser gives the old parser's graph, or its error type, message and line."""
    expected = outcome(helpers.reference_parse_graph, text)
    if isinstance(expected, GradedBigraph):
        event("outcome: graph")
    else:
        message = expected[1]
        event("outcome: " + ("range misfit" if "out of range" in message
                             else "bad token" if "bad edge token" in message else "other error"))
    assert outcome(parse_graph, text) == expected
    if isinstance(expected, GradedBigraph):
        assert parse_graph(helpers.serialize_graph(expected)) == expected


@pytest.mark.parametrize(
    "tokens, message",
    [
        ("0:0-0 1:5-0 0:0->0", "line 3: edge '1:5-0': vertex index out of range"),
        ("0:0-0 0:0->0 1:5-0", "line 3: bad edge token '0:0->0' (expected d:u-v)"),
        ("0:0-0 7:0-0 x", "line 3: edge '7:0-0': depth 7 out of range for 3 depths"),
        ("x 7:0-0 0:0-0", "line 3: bad edge token 'x' (expected d:u-v)"),
    ],
    ids=["range-then-malformed", "malformed-then-range", "depth-then-malformed", "malformed-first"],
)
def test_first_bad_edge_token_in_line_order_wins(tokens, message):
    text = f"depths: 3\ncounts: 1 1 1\nedges: {tokens}"
    with pytest.raises(ParseError) as excinfo:
        parse_graph(text)
    assert str(excinfo.value) == message
    assert outcome(helpers.reference_parse_graph, text) == (ParseError, message, 3)


#: More digits than ``int()`` converts by default (4,300).
HUGE = "9" * 5000

#: Blocks whose numbers are too long for ``int()``, and the one error each gives.
HUGE_NUMBER_BLOCKS = {
    "depths": (f"depths: {HUGE}\ncounts: 1\nedges:", "line 1: 'depths:' has a number too long to convert"),
    "counts": (f"depths: 2\ncounts: 1 {HUGE}\nedges: 0:0-0", "line 2: 'counts:' has a number too long to convert"),
    "edge-depth": (
        f"depths: 3\ncounts: 1 1 1\nedges: 0:0-0 {HUGE}:0-0",
        f"line 3: edge '{HUGE}:0-0': depth {HUGE} out of range for 3 depths",
    ),
    "edge-index": (
        f"depths: 3\ncounts: 1 1 1\nedges: 0:0-0 1:0-{HUGE}",
        f"line 3: edge '1:0-{HUGE}': vertex index out of range",
    ),
    "range-then-huge": (
        f"depths: 3\ncounts: 1 1 1\nedges: 0:0-0 1:5-0 {HUGE}:0-0",
        "line 3: edge '1:5-0': vertex index out of range",
    ),
    "huge-then-malformed": (
        f"depths: 3\ncounts: 1 1 1\nedges: 0:0-0 1:{HUGE}-0 0:0->0",
        f"line 3: edge '1:{HUGE}-0': vertex index out of range",
    ),
    "malformed-then-huge": (
        f"depths: 3\ncounts: 1 1 1\nedges: 0:0-0 0:0->0 1:{HUGE}-0",
        "line 3: bad edge token '0:0->0' (expected d:u-v)",
    ),
}


@pytest.mark.parametrize("name", HUGE_NUMBER_BLOCKS)
def test_numbers_too_long_for_int_are_parse_errors(name):
    text, message = HUGE_NUMBER_BLOCKS[name]
    with pytest.raises(ParseError) as excinfo:
        parse_graph(text)
    assert str(excinfo.value) == message


def test_counts_malformed_or_not_decimal_say_so():
    for counts in (f"1 x {HUGE}", f"1 {HUGE} x"):
        with pytest.raises(ParseError, match="'counts:' entries must be integers"):
            parse_graph(f"depths: 3\ncounts: {counts}\nedges: 0:0-0 1:0-0")
    # isdigit() accepts superscripts, which int() refuses
    with pytest.raises(ParseError, match="'depths:' needs a single positive integer"):
        parse_graph("depths: \u00b2\ncounts: 1 1\nedges: 0:0-0")
    # so no graph has zero depths
    with pytest.raises(ParseError, match="'depths:' needs a single positive integer"):
        parse_graph("depths: 0\ncounts:\nedges:")


def test_tokens_outside_the_number_table_parse_as_int_reads_them():
    """Numbers from 512 up, leading zeros, ``+``, non-ASCII digits and huge numbers.

    The parser looks ``counts:`` and edge numbers up in a table of 0..511 and
    falls back to ``int()`` for a line with any other token; these are the
    graphs and errors that ``int()`` alone gave.
    """
    star = " ".join(f"0:0-{v}" for v in range(520))
    cases = [
        (f"depths: 2\ncounts: 1 520\nedges: {star}", f"depths: 2\ncounts: 1 520\nedges: {star}\n"),
        (
            "depths: 2\ncounts: 1 2\nedges: 0:0-0 0:0-1 0:0-512",
            (ParseError, "line 3: edge '0:0-512': vertex index out of range", 3),
        ),
        (
            "depths: 2\ncounts: 1 2\nedges: 0:0-0 600:0-1",
            (ParseError, "line 3: edge '600:0-1': depth 600 out of range for 2 depths", 3),
        ),
        (
            "depths: 3\ncounts: 001 +2 007\nedges: 0:0-0 0:0-1 1:1-0 1:1-1 1:1-2 1:1-3 1:1-4 1:1-5 1:1-6",
            "depths: 3\ncounts: 1 2 7\nedges: 0:0-0 0:0-1 1:1-0 1:1-1 1:1-2 1:1-3 1:1-4 1:1-5 1:1-6\n",
        ),
        (
            "depths: ٢\ncounts: 1 ٣\nedges: 0:0-٠ 0:0-١ 0:0-٢",
            "depths: 2\ncounts: 1 3\nedges: 0:0-0 0:0-1 0:0-2\n",
        ),
        (
            f"depths: {HUGE}\ncounts: 1\nedges:",
            (ParseError, "line 1: 'depths:' has a number too long to convert", 1),
        ),
        (
            f"depths: 2\ncounts: 1 {HUGE}\nedges: 0:0-0",
            (ParseError, "line 2: 'counts:' has a number too long to convert", 2),
        ),
        (
            f"depths: 2\ncounts: 1 -{HUGE}\nedges: 0:0-0",
            (ParseError, "line 2: 'counts:' has a number too long to convert", 2),
        ),
        (
            f"depths: 2\ncounts: 1 1\nedges: 0:0-0 {HUGE}:0-0",
            (ParseError, f"line 3: edge '{HUGE}:0-0': depth {HUGE} out of range for 2 depths", 3),
        ),
        (
            f"depths: 2\ncounts: 1 1\nedges: 0:0-0 0:0-{HUGE}",
            (ParseError, f"line 3: edge '0:0-{HUGE}': vertex index out of range", 3),
        ),
    ]
    for text, expected in cases:
        got = outcome(parse_graph, text)
        assert (helpers.serialize_graph(got) if isinstance(got, GradedBigraph) else got) == expected


def test_counts_the_edges_cannot_cover_fail_before_allocating():
    message = "vertex 1 at depth 1 has no edge to depth 0"
    with pytest.raises(InvalidGraph, match=message):
        parse_graph("depths: 2\ncounts: 1 1000000000000000\nedges: 0:0-0")
    tracemalloc.start()
    try:
        with pytest.raises(InvalidGraph, match="vertex 2 at depth 2 has no edge to depth 1"):
            parse_graph("depths: 3\ncounts: 1 2 1000000\nedges: 0:0-0 0:0-1 1:1-0 1:0-1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # three per-vertex lists would take 24 MB


def test_equal_graphs_hash_equal_whatever_their_edge_order():
    edges = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (3, 0, 1))
    g = GradedBigraph((1, 1, 1, 1, 2), edges)
    shuffled = GradedBigraph((1, 1, 1, 1, 2), list(reversed(edges)))
    assert g.edges == shuffled.edges == edges
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
    the only solver for graphs with a cycle; there the norm and every
    dimension must match a dense eigensolve of the full adjacency matrix.
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
    if g._tree is None:
        expected_delta, expected_vec = eigh_perron(g)
        assert graph_norm(g) == pytest.approx(expected_delta, rel=1e-13)
        assert list(helpers.dimension_vector(g).values()) == pytest.approx(list(expected_vec), rel=1e-10)
        return
    if g.vertex_count == 1:
        return
    dense_delta = dense._dense_norm(g)[0]
    assert graph_norm(g) == pytest.approx(dense_delta, rel=1e-14)
    dense_vec = dense._dense_vector(g, dense_delta * (1 + 4 * sys.float_info.epsilon))
    scale = math.copysign(math.hypot(*dense_vec), math.fsum(dense_vec))
    assert list(g._vector) == pytest.approx([x / scale for x in dense_vec], abs=1e-12)


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
        assert parse_graph(helpers.serialize_graph(g)) == g


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
        star = helpers.make_graph((1, leaves), [(0, 0, v) for v in range(leaves)])
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
            w, v = mpmath.eigsy(mpmath.matrix(helpers.adjacency(g).tolist()))
            top = g.vertex_count - 1
            norm = graph_norm(g)
            assert abs(norm - w[top]) <= 1e-12, name
            dims = helpers.dimension_vector(g)
            got = list(dims.values())
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
        a = mpmath.matrix(helpers.adjacency(g).tolist())
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


@pytest.mark.parametrize("tail", [10, 20, 30, 50, 58, 62])
def test_branch_dimensions_match_50_digit_inverse_iteration(tail):
    """Long doubled tails: the solver keeps the branch dimensions to 1e-12.

    The Perron vector of these graphs is concentrated at the far end of the
    tail, so the root entry is small.  A dense eigensolver gives that entry
    an absolute error of about eps, which root normalization turns into a
    relative error of 8.6e-6 in p at tail 50; a single inverse-iteration step
    is off by 9e-3 there.  So this pins the solver, not only the code around
    it.  Tail 62 is the longest that root-normalizes; there the root entry
    is off by about 195 eps and p and q by 3e-14 relative.
    """
    g = helpers.grade_tree(helpers.branched_tree(3, (), (tail,), doubled_tail=True), "p0")
    exact = mpmath_perron(g)
    dims = helpers.dimension_vector(g)
    for d in (3, 4):  # the branch vertex, then p and q
        for i in range(g.vertex_counts[d]):
            expected = float(exact[g.vertex_offset(d) + i])
            assert dims[(d, i)] == pytest.approx(expected, rel=1e-12), (tail, d, i)


@pytest.mark.parametrize("tail", [10, 20, 30])
def test_dense_solve_matches_50_digit_inverse_iteration_everywhere(tail):
    """A graph with a cycle and its Perron vector far from the root: every entry to 1e-14.

    Eight leaves on the last tail vertex put the largest dimension at 7.5e5
    (tail 10) to 2.1e14 (tail 30), so the root entry is that much smaller
    than the largest.  These graphs take the dense half-size solve, whose
    inverse-iteration steps must keep every entry, the root's included, to
    a few ulps relative: the worst root-normalized entry is off by 2.3, 6.5
    and 3.0 eps at tails 10, 20 and 30, and the bound, 1e-14, is 45 eps.
    """
    edges = helpers.reconverging_arms(3, tail) + [(f"t{tail - 1}", f"leaf{i}") for i in range(8)]
    g = helpers.grade_tree(edges, "s0")
    assert g._tree is None
    exact = mpmath_perron(g)
    dims = helpers.dimension_vector(g)
    got = list(dims.values())
    assert max(got) > 7e5
    for k, value in enumerate(got):
        assert value == pytest.approx(float(exact[k]), rel=1e-14), (tail, k)


def test_dense_solve_allocates_no_vertex_by_vertex_matrix():
    """Edges are counted straight into the even-by-odd block B.

    On this 1,999-vertex two-wide ladder the norm and vector solves
    together peak at 24.06 MB under numpy 2.4.6, 3.01 times B (999 x 1,000
    doubles, 7.99 MB): B, its Gram matrix and the Schur complement, each
    about 1,000 x 1,000 doubles, and the solvers' working copies.  The
    bound is one V x V matrix of doubles, 31.97 MB or 4 times B, so that
    matrix alone would cross it; a bound in multiples of B with more room
    would let it through.  ``tripoint.dense`` is imported with this test
    module, before the trace starts, so the window holds the two solves and
    no compile.
    """
    ladder = [(0, 0, 0), (0, 0, 1)]
    ladder += [edge for d in range(1, 999) for edge in ((d, 0, 0), (d, 1, 1), (d, 0, 1))]
    g = GradedBigraph((1,) + (2,) * 999, ladder)
    assert g._tree is None and g.vertex_count == 1999
    tracemalloc.start()
    try:
        delta, vec = graph_norm(g), g._vector
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.vertex_count ** 2
    image = [delta * x for x in vec]  # A x = delta x, edge by edge
    for d, u, v in g.edges:
        top, bottom = g.vertex_offset(d) + u, g.vertex_offset(d + 1) + v
        image[top] -= vec[bottom]
        image[bottom] -= vec[top]
    assert max(map(abs, image)) < 1e-12


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
        assert abs(norm - tree_pivot_norm(g)) <= math.ulp(norm), helpers.serialize_graph(g)


@st.composite
def graded_multi_trees(draw, max_vertices: int = 120):
    """A random tree graded from its first vertex, about one edge in seven doubled or tripled.

    Each vertex hangs below one of the ``span`` vertices before it, so a span
    of 1 gives a path and a span as large as the tree a random recursive tree.
    """
    size = draw(st.integers(2, max_vertices))
    span = draw(st.integers(1, size))
    edges = []
    for k in range(1, size):
        parent = draw(st.integers(max(0, k - span), k - 1))
        edges += [(f"v{parent}", f"v{k}")] * draw(st.sampled_from((1,) * 12 + (2, 3)))
    return helpers.grade_tree(edges, "v0")


#: A root pivot whose nearest pole stopped plain Newton 92.6 ulps short of the norm.
POLE_BELOW_NORM = parse_graph(
    "depths: 36\n"
    "counts: 1 3 2 5 4 4 4 5 4 5 5 6 7 6 6 5 1 2 1 1 2 2 2 2 3 2 1 2 1 1 1 1 1 1 1 1\n"
    "edges: 0:0-0 0:0-1 0:0-2 1:0-0 1:0-0 1:0-0 1:2-1 2:0-0 2:0-3 2:1-1 2:1-2 2:1-2 2:1-4"
    " 3:0-0 3:0-0 3:2-1 3:3-2 3:3-3 4:0-0 4:0-1 4:1-2 4:2-3 5:0-0 5:0-3 5:2-1 5:3-2 6:0-0"
    " 6:2-1 6:2-2 6:2-3 6:3-4 7:0-0 7:2-1 7:2-1 7:3-2 7:4-3 8:0-0 8:0-1 8:0-2 8:3-3 8:3-3"
    " 8:3-3 8:3-4 9:0-0 9:1-1 9:1-2 9:3-3 9:3-4 10:0-0 10:0-5 10:0-5 10:1-4 10:2-1 10:4-2"
    " 10:4-3 11:0-0 11:0-2 11:1-3 11:3-1 11:4-4 11:5-5 11:5-6 12:0-0 12:0-0 12:0-1 12:0-2"
    " 12:2-3 12:2-3 12:5-4 12:6-5 12:6-5 13:1-0 13:1-1 13:2-2 13:4-3 13:4-4 13:5-5 14:4-0"
    " 14:4-1 14:4-2 14:5-3 14:5-4 15:4-0 16:0-0 16:0-1 17:0-0 18:0-0 19:0-0 19:0-0 19:0-0"
    " 19:0-1 20:0-0 20:1-1 21:0-0 21:0-0 21:0-1 22:0-0 22:1-1 23:0-0 23:0-0 23:0-1 23:0-2"
    " 24:0-0 24:2-1 25:0-0 26:0-0 26:0-1 27:0-0 28:0-0 29:0-0 30:0-0 31:0-0 32:0-0 33:0-0"
    " 34:0-0"
)


#: 39 legs from the root, 14 of length 3 and 25 of length 2, whose root
#: pivot summed child by child put the norm 2.3 ulps off.
SPIDER_OF_39_LEGS = GradedBigraph(
    (1, 39, 39, 14),
    [(0, 0, i) for i in range(39)] + [(1, i, i) for i in range(39)]
    + [(2, u, v) for v, u in enumerate((0, 1, 2, 3, 4, 5, 11, 22, 33, 34, 35, 36, 37, 38))],
)


@settings(max_examples=60, deadline=None)
@given(g=graded_multi_trees())
@example(g=POLE_BELOW_NORM)
@example(g=SPIDER_OF_39_LEGS)
def test_tree_norm_is_within_two_ulps_on_random_multi_edge_trees(g):
    """Random trees with multiple edges: the norm lies within two ulps of its exact value.

    A multiple edge near the elimination root can put a pole of the root
    pivot a few ulps below the norm, where a plain Newton step stalls; the
    first example tree stopped 92.6 ulps short that way.  The second has a
    39-child root, whose pivot, rounded child by child, ended 2.3 ulps off.
    Over each of four draws of 4,000 random trees the worst error was
    0.84 to 1.15 ulps.  20 digits resolve an ulp here.
    """
    norm = graph_norm(g)
    assert abs(norm - tree_pivot_norm(g, 20)) <= 2 * math.ulp(norm), helpers.serialize_graph(g)


def test_tree_norm_needs_at_most_six_passes_on_the_corpus(monkeypatch):
    """Every battery-corpus tree and doubled tails up to 62 solve within six passes."""
    monkeypatch.setattr(graph_module, "TREE_PASSES", 6)
    graphs = {g for _, principal, dual in helpers.battery_corpus() for g in (principal, dual)}
    graphs |= {
        helpers.grade_tree(helpers.branched_tree(3, (), (t,), doubled_tail=True), "p0")
        for t in (10, 30, 50, 62)
    }
    for g in graphs:
        assert g._tree is not None
        assert graph_module._tree_norm(g._tree) > 0, helpers.serialize_graph(g)


def test_tree_solve_stops_at_its_pass_cap(monkeypatch):
    monkeypatch.setattr(graph_module, "TREE_PASSES", 2)
    g = helpers.grade_tree(helpers.branched_tree(3, (), (4,)), "p0")
    with pytest.raises(UnsupportedIndex, match="Perron solve failed: no convergence in 2 passes"):
        graph_norm(g)


def test_tree_solve_refuses_a_vector_that_is_not_one_signed(monkeypatch):
    """A shift inside the spectrum makes inverse iteration find a sign-changing vector.

    The norm alone solves no vector, so only the dimensions see it.
    """
    tree_norm = graph_module._tree_norm
    monkeypatch.setattr(graph_module, "_tree_norm", lambda tree: tree_norm(tree) / 2)
    g = helpers.grade_tree(helpers.branched_tree(3, (), (4,)), "p0")
    assert graph_norm(g) > 0
    with pytest.raises(UnsupportedIndex, match="not strictly positive"):
        helpers.dimension_vector(g)


def test_tree_solve_refuses_a_zero_pivot(monkeypatch):
    monkeypatch.setattr(graph_module, "_tree_norm", lambda tree: 0.0)
    g = path_graph(5)
    assert graph_norm(g) == 0.0
    with pytest.raises(UnsupportedIndex, match="Perron solve failed: zero pivot"):
        helpers.dimension_vector(g)


def test_exact_norm_test_stops_at_a_zero_subtree_pivot():
    """An affine E6 hung below a 5-leaf star: the E6 centre's pivot of 2I - A is 0.

    That centre is not the root, so the tree's norm is above 2 and the exact
    test says so from that pivot, before reaching the root.
    """
    edges = [("h", f"l{i}") for i in range(5)] + [("h", "p1"), ("p1", "c")]
    for arm in "abc":
        edges += [("c", f"{arm}1"), (f"{arm}1", f"{arm}2")]
    g = helpers.grade_tree(edges, "l0")
    assert graph_norm(g) > 2.0
    assert graph_module._norm_is_two(g._tree) is False


@pytest.mark.parametrize("routine", ["eigvalsh", "solve"])
def test_solver_linalg_error_is_unsupported_index(monkeypatch, routine):
    """``eigvalsh`` gives the norm and ``solve`` the vector; reading dimensions needs both."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, routine, fail)
    graph = helpers.grade_tree(helpers.reconverging_arms(3), "s0")  # nothing solved yet
    with pytest.raises(UnsupportedIndex, match="Perron solve failed: Singular matrix"):
        helpers.dimension_vector(graph)


def test_solver_refuses_a_vector_that_is_not_one_signed(monkeypatch):
    """A shift inside the spectrum makes inverse iteration find a sign-changing vector."""
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: eigvalsh(g) / 2)
    graph = helpers.grade_tree(helpers.reconverging_arms(3), "s0")
    assert graph_norm(graph) > 0
    with pytest.raises(UnsupportedIndex, match="not strictly positive"):
        helpers.dimension_vector(graph)


def test_dimension_vector_root_is_one():
    g = helpers.grade_tree(helpers.branched_tree(3, (), (4,)), "p0")
    dims = helpers.dimension_vector(g)
    assert dims[(0, 0)] == 1.0


def test_dimension_vector_path_closed_form():
    for m in range(2, 13):
        g = path_graph(m)
        dims = helpers.dimension_vector(g)
        scale = math.sin(math.pi / (m + 1))
        for d in range(m):
            expected = math.sin((d + 1) * math.pi / (m + 1)) / scale
            assert dims[(d, 0)] == pytest.approx(expected, abs=1e-9)


def test_dimension_vector_initial_string_is_quantum_integers():
    g = helpers.grade_tree(helpers.branched_tree(3, (), (4,)), "p0")
    delta = graph_norm(g)
    ctx = QuantumContext(delta)
    dims = helpers.dimension_vector(g)
    for d in range(4):
        assert dims[(d, 0)] == pytest.approx(ctx.qint(d + 1), abs=1e-8)


def test_dimension_vector_satisfies_eigen_relation_everywhere():
    """Every dimension of every corpus graph is finite, positive and satisfies A v = delta v."""
    for name, principal, dual in helpers.battery_corpus():
        for g in (principal, dual):
            delta = graph_norm(g)
            dims = helpers.dimension_vector(g)
            a = helpers.adjacency(g)
            vec = np.array(list(dims.values()))
            assert np.all(np.isfinite(vec)) and np.all(vec > 0), name
            residual = a @ vec - delta * vec
            assert np.all(np.abs(residual) <= 1e-9 * delta * np.maximum(vec, 1.0)), name


def test_dimension_vector_rejects_root_below_double_resolution():
    """A tail of 120 puts the root entry of the unit Perron vector near 1e-29 of its largest."""
    g = helpers.grade_tree(helpers.branched_tree(3, (), (120,), doubled_tail=True), "p0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedIndex, match="exceed double precision"):
            helpers.dimension_vector(g)


def test_supertransitivity_path():
    assert supertransitivity(path_graph(6)) == (5, False)


def test_supertransitivity_single_vertex():
    assert supertransitivity(helpers.make_graph((1,), ())) == (0, False)


def test_single_vertex_spectrum():
    g = helpers.make_graph((1,), ())
    assert graph_norm(g) == 0.0
    assert helpers.dimension_vector(g) == {(0, 0): 1.0}


def test_supertransitivity_double_edge_counts_as_branch():
    g = helpers.make_graph((1, 1, 1), [(0, 0, 0), (1, 0, 0), (1, 0, 0)])
    assert supertransitivity(g) == (1, True)


# ---------------------------------------------------------------------------
# triple point extraction

def test_extract_flags_and_sum():
    edges = helpers.branched_tree(3, (), (4,))
    principal, dual = helpers.self_paired(edges)
    delta = graph_norm(principal)
    ctx = QuantumContext(delta)
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


def test_extract_refuses_a_norm_just_below_two(monkeypatch):
    """Affine D5 graded from a leaf has norm exactly 2; a norm a hair under 2 is index < 4."""
    edges = [("a", "b"), ("a2", "b"), ("b", "c"), ("c", "d"), ("c", "d2")]
    g = helpers.grade_tree(edges, "a")
    tp = extract_triple_point(g, g)
    assert tp.ctx.delta == 2.0
    assert (tp.n, tp.p, tp.q) == (2, pytest.approx(2.0), pytest.approx(1.0))
    monkeypatch.setattr(graph_module, "graph_norm", lambda g: 2.0 - 1e-12)
    with pytest.raises(UnsupportedIndex) as exc:
        extract_triple_point(g, g)
    assert str(exc.value) == f"delta = {2.0 - 1e-12!r} < 2 means index < 4, outside the supported regime"


def test_extract_reads_a_self_dual_graph_once(monkeypatch):
    """A graph passed as both sides: one norm and one vector solve, two entries root-normalized."""
    principal, dual = helpers.self_paired(helpers.branched_tree(3, (), (4,)))
    solves = []
    for name in ("_tree_norm", "_tree_vector"):
        solve = getattr(graph_module, name)
        monkeypatch.setattr(
            graph_module, name,
            lambda *args, name=name, solve=solve: solves.append(name) or solve(*args),
        )
    normalized = []
    dimensions = graph_module._dimensions
    monkeypatch.setattr(
        graph_module,
        "_dimensions",
        lambda g, first, stop: normalized.append(stop - first) or dimensions(g, first, stop),
    )
    tp = extract_triple_point(principal, dual)
    assert solves == ["_tree_norm", "_tree_vector"]
    assert normalized == [2]
    assert tp.gamma3_univalent


def test_extract_sum_matches_quantum_integer_across_corpus():
    for name, principal, dual in helpers.battery_corpus():
        ctx = QuantumContext(graph_norm(principal))
        tp = extract_triple_point(principal, dual)
        expected = ctx.qint(tp.n + 1)
        assert tp.p + tp.q == pytest.approx(expected, abs=1e-8 * max(1.0, expected)), name


def test_extract_univalent_dual_dimensions():
    """With a 1-valent gamma3: dim gamma3 = [n]/[2] and dim gamma2 = [n+2]/[2].

    Extraction names gamma3 by shape; the dual's own vector must agree.
    """
    edges = helpers.branched_tree(3, (), (4,))
    principal, dual = helpers.self_paired(edges)
    ctx = QuantumContext(graph_norm(principal))
    tp = extract_triple_point(principal, dual)
    assert tp.gamma3_univalent
    dims = helpers.dimension_vector(dual)
    g3_index = next(i for i in (0, 1) if dual.valence(tp.n, i) == 1)
    g3, g2 = dims[(tp.n, g3_index)], dims[(tp.n, 1 - g3_index)]
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


def test_extract_dimension_tie():
    """The two-rooted pair's depth-n dimensions tie."""
    principal, dual = helpers.two_rooted_pair(0)
    tp = extract_triple_point(principal, dual)
    assert tp.p == pytest.approx(tp.q, rel=1e-12)


def test_extract_orders_positive_dimensions_across_corpus():
    """Extraction sets up p >= q > 0; ``TriplePointData`` does not re-check it.

    Its structural flags agree with the order of the dual's depth-n entries
    from a dense eigensolve.
    """
    for name, principal, dual in helpers.battery_corpus():
        tp = extract_triple_point(principal, dual)
        assert tp.p >= tp.q > 0, name
        assert (tp.gamma3_univalent, tp.gamma2_trivalent) == helpers.eigh_flags(dual, tp.n), name


def test_triple_point_data_has_exactly_its_six_fields():
    ctx = QuantumContext(2.5)
    tp = TriplePointData(ctx, 4, 2.0, 1.0, True, False)
    assert tp._fields == ("ctx", "n", "p", "q", "gamma3_univalent", "gamma2_trivalent")
    assert TriplePointData._field_defaults == {}


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


def test_extract_refuses_a_shape_mismatch_before_a_norm_mismatch():
    """Supertransitivities 3 and 2, and norms far apart: the shape is the one reported."""
    principal = helpers.grade_tree(helpers.branched_tree(3, (), (4,)), "p0")
    dual = helpers.grade_tree(helpers.branched_tree(2, (), (5,)), "p0")
    assert abs(graph_norm(principal) - graph_norm(dual)) > 1e-3
    with pytest.raises(SupertransitivityMismatch, match="supertransitivities differ: 3 vs 2"):
        extract_triple_point(principal, dual)


def test_extract_rejects_pure_path():
    """D5 graded from its long end has a simple triple point, and norm 2cos(pi/8) < 2."""
    g = helpers.grade_tree(helpers.branched_tree(2), "p0")
    assert g.vertex_counts == (1, 1, 1, 2)
    assert graph_norm(g) == pytest.approx(2 * math.cos(math.pi / 8), rel=1e-14)
    with pytest.raises(UnsupportedIndex, match="index < 4"):
        extract_triple_point(g, g)


def test_extract_rejects_a_path_of_norm_two():
    """A path has no branch point, and is refused for that before its norm is solved."""
    g = path_graph(5)
    with pytest.raises(NotATriplePoint, match="graph has no initial branch point"):
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
