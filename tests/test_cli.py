"""Command line interface: exit codes, output formats, round-trips."""

import ast
import contextlib
import errno
import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import helpers
import tripoint
from tripoint import graph as graph_module
from tripoint import branch, cli, common, obstruct, workers
from tripoint.branch import build_branch_matrix
from tripoint.cli import SIZE_LIMIT, main
from tripoint.errors import NoUnitaryPhase, TripointError
from tripoint.graph import extract_triple_point, parse_pair
from tripoint.obstruct import allowed_ratios, run_battery
from tripoint.qnum import QuantumContext


@pytest.fixture
def passing_file(tmp_path):
    path = tmp_path / "passing.pair"
    path.write_text(helpers.pair_text(*helpers.two_rooted_pair(0)))
    return str(path)


@pytest.fixture
def even_depth_file(tmp_path):
    principal, dual = helpers.self_paired(helpers.branched_tree(4, (), (3,)))
    path = tmp_path / "even.pair"
    path.write_text(helpers.pair_text(principal, dual))
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    """Two distinct graphs with a cycle and one spectrum: the arms' vertices swap indices."""
    edges = helpers.reconverging_arms(3)
    swapped = [tuple({"a": "b", "b": "a"}.get(x, x) for x in edge) for edge in edges]
    principal, dual = helpers.grade_tree(edges, "s0"), helpers.grade_tree(swapped, "s0")
    assert principal != dual
    path = tmp_path / "cycle.pair"
    path.write_text(helpers.pair_text(principal, dual))
    return str(path)


@pytest.fixture
def malformed_file(tmp_path):
    path = tmp_path / "broken.pair"
    path.write_text("[principal]\ndepths: 2\ncounts: 1 1\nedges: 9:0-0\n[dual]\n")
    return str(path)


#: files in ``batch_files``, in a cycle of pass, fail, malformed, missing and not UTF-8
BATCH_SIZE = 30


@pytest.fixture
def batch_files(tmp_path, passing_file, even_depth_file, malformed_file):
    """A ``check`` batch of ``4 * FORK_MIN_BYTES``, so ``run`` shares it with workers.

    Each file that exists starts with a comment line that pads it to its
    share of the bytes, so the batch is large yet quick to check.
    """
    texts = [Path(path).read_bytes() for path in (passing_file, even_depth_file, malformed_file)]
    texts += [None, b"\xff\xfe[principal]\n"]
    existing = BATCH_SIZE - BATCH_SIZE // len(texts)
    pad = b"#" + b"." * (4 * workers.FORK_MIN_BYTES // existing) + b"\n"
    paths = []
    for i in range(BATCH_SIZE):
        path = tmp_path / f"batch-{i:02d}.pair"
        text = texts[i % len(texts)]
        if text is not None:
            path.write_bytes(pad + text)
        paths.append(str(path))
    return paths


# ---------------------------------------------------------------------------
# check

def test_check_passing_pair_exits_zero(passing_file, capsys):
    assert main(["check", passing_file]) == 0
    out = capsys.readouterr().out
    assert "rotational" in out
    assert "Pass" in out


def test_check_reports_half_turn_root(passing_file, capsys):
    assert main(["check", passing_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdicts"]["rotational"] == "Pass"
    assert payload["root_candidates"][0]["k"] == payload["n"] // 2
    assert payload["lambda_trace"] == pytest.approx(-2.0, abs=1e-9)


def test_check_even_branch_depth_exits_one(even_depth_file, capsys):
    assert main(["check", even_depth_file]) == 1
    out = capsys.readouterr().out
    assert "Fail" in out


@pytest.mark.parametrize("n", [49000, 50000])
def test_check_refuses_a_long_d_n_as_index_below_four(tmp_path, n, capsys):
    """D_n graded from the end of its long arm has norm 2cos(pi/(2n - 2)), below 2.

    From about 49,700 vertices that norm lies within 1e-9 of 2, and every
    such delta must still be refused as index < 4, not taken as 2.
    """
    counts = [1] * (n - 2) + [2]
    edges = [(d, 0, 0) for d in range(n - 2)] + [(n - 3, 0, 1)]
    graph = helpers.graph_text(counts, edges)
    path = tmp_path / f"d{n}.pair"
    path.write_text(f"[principal]\n{graph}[dual]\n{graph}")
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    match = re.fullmatch(
        rf"{re.escape(str(path))}: delta = (\S+) < 2 means index < 4, outside the supported regime\n", err
    )
    assert out == "" and match
    assert float(match[1]) == pytest.approx(2.0 * math.cos(math.pi / (2 * n - 2)), rel=1e-15)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_check_reads_every_newline_convention_alike(tmp_path, newline, capsys):
    text = helpers.pair_text(*helpers.two_rooted_pair(1)).replace("[dual]", "# note\n[dual]")
    paths = [tmp_path / "lf.pair", tmp_path / "other.pair"]
    paths[0].write_bytes(text.encode())
    paths[1].write_bytes(text.replace("\n", newline).encode())
    outputs = []
    for path in paths:
        assert main(["check", "--format", "json", str(path)]) == 1
        outputs.append(json.loads(capsys.readouterr().out))
        del outputs[-1]["file"]
    assert outputs[0] == outputs[1]
    paths[1].write_bytes(text.replace("edges: 0:0-0", "edges: 0:0-9").replace("\n", newline).encode())
    assert main(["check", str(paths[1])]) == 2
    assert capsys.readouterr().err == f"{paths[1]}: line 4: edge '0:0-9': vertex index out of range\n"


def test_check_error_wins_over_failure(even_depth_file, malformed_file):
    assert main(["check", even_depth_file, malformed_file]) == 2


def test_check_json_round_trips(passing_file, capsys):
    assert main(["check", passing_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)

    principal, dual = helpers.two_rooted_pair(0)
    report = run_battery(principal, dual)

    assert payload["file"] == passing_file
    assert payload["n"] == report.n
    assert payload["tol"] == pytest.approx(report.tol, rel=1e-11)
    for key in ("delta", "p", "q", "r", "lambda_trace"):
        assert payload[key] == pytest.approx(getattr(report, key), rel=1e-11), key
    assert payload["verdicts"] == {k: v.value for k, v in report.verdicts.items()}
    assert len(payload["root_candidates"]) == len(report.root_candidates)
    for got, expected in zip(payload["root_candidates"], report.root_candidates):
        assert got["k"] == expected.k
        assert got["distance"] == pytest.approx(expected.distance, rel=1e-11, abs=1e-11)


def printed(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``; usable inside hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reference_json(payload: dict) -> str:
    return json.dumps(helpers.reference_rounded(payload), allow_nan=False) + "\n"


JSON_PAIRS = [pair for _, *pair in helpers.battery_corpus()] + [
    helpers.self_paired(helpers.reconverging_arms(3), "s0"),
    helpers.self_paired(helpers.branched_tree(3, (), (30,), doubled_tail=True)),
]


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(JSON_PAIRS), tol=st.sampled_from([1e-6, 1e-3, 0.7]))
def test_check_json_bytes_match_the_recursive_rounding(tmp_path_factory, pair, tol):
    path = tmp_path_factory.getbasetemp() / "json.pair"
    path.write_text(helpers.pair_text(*pair))
    report = run_battery(*pair, tol=tol)
    payload = {
        "file": str(path),
        "n": report.n,
        "delta": report.delta,
        "p": report.p,
        "q": report.q,
        "r": report.r,
        "lambda_trace": report.lambda_trace,
        "verdicts": {name: v.value for name, v in report.verdicts.items()},
        "root_candidates": [{"k": c.k, "distance": c.distance} for c in report.root_candidates],
        "tol": report.tol,
    }
    code, out, err = printed(["check", "--format", "json", "--tol", repr(tol), str(path)])
    assert (code, err) == (int(report.has_failure), "")
    assert out == reference_json(payload)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30).map(lambda k: 2 * k), delta=st.floats(2.0, 3.0))
def test_ratios_json_bytes_match_the_recursive_rounding(n, delta):
    ctx = QuantumContext(delta)
    try:
        rows = allowed_ratios(ctx, n)
    except TripointError:
        return
    payload = {"n": n, "delta": ctx.delta, "rows": [row._asdict() for row in rows]}
    code, out, err = printed(["ratios", "--n", str(n), "--delta", repr(delta), "--format", "json"])
    assert (code, err) == (0, "")
    assert out == reference_json(payload)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 20), delta=st.floats(2.0, 3.0), gap=st.floats(0.0, 1.5))
def test_matrix_json_bytes_match_the_recursive_rounding(n, delta, gap):
    ctx = QuantumContext(delta)
    total = ctx.qint(n + 1)
    p, q = (total + gap) / 2.0, (total - gap) / 2.0
    try:
        matrix = build_branch_matrix(ctx, n, p, q)
    except TripointError:
        return

    def parts(z):
        return {"re": z.real, "im": z.imag}

    payload = {
        "n": n,
        "delta": ctx.delta,
        "p": p,
        "q": q,
        "entries": [[None if z is None else parts(z) for z in row] for row in matrix.entries],
        "sigma": parts(matrix.sigma),
        "tau": parts(matrix.tau),
        "lambda": parts(matrix.lam),
        "lambda_trace": 2.0 * matrix.lam.real,
    }
    argv = ["matrix", "--n", str(n), "--delta", repr(delta), "--p", repr(p), "--q", repr(q)]
    code, out, err = printed([*argv, "--format", "json"])
    assert (code, err) == (0, "")
    assert out == reference_json(payload)


@settings(max_examples=100, deadline=None)
@given(delta=st.floats(2.0, 50.0), max_k=st.integers(0, 60))
def test_qnum_json_bytes_match_the_recursive_rounding(delta, max_k):
    ctx = QuantumContext(delta)
    payload = {"delta": ctx.delta, "values": ctx.qints(max_k)}
    code, out, err = printed(["qnum", "--delta", repr(delta), "--max", str(max_k), "--format", "json"])
    assert (code, err) == (0, "")
    assert out == reference_json(payload)


#: characters that ``json.dumps`` escapes, or must not: quotes, backslashes, every
#: control character, DEL, non-ASCII, astral and a lone surrogate from a name that is not UTF-8
JSON_EDGE_CHARACTERS = ['"', "\\", "/", " ", "~", "\x7f", "\x80", "\xe9", "\u2028", "\uffff",
                        "\U0001f600", "\U0010ffff", "\udcff", "\ud800", *map(chr, range(32))]
JSON_TEXT = st.text(st.one_of(st.sampled_from(JSON_EDGE_CHARACTERS), st.characters(exclude_categories=())))
#: zeros, subnormals, the largest floats and values next to a 12-digit rounding edge
JSON_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
                    -1.7976931348623157e308, 999999999999.5, 9.9999999999949996, 9.9999999999950004,
                    1.0000000000005, 0.1 + 0.2, 1e16, 123456789012345.0, 1e-7, 2.5e-5]
JSON_FLOATS = st.one_of(st.sampled_from(JSON_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
JSON_INTS = st.one_of(st.integers(), st.integers(-(10 ** 400), 10 ** 400))


@settings(max_examples=500, deadline=None)
@given(text=JSON_TEXT)
def test_json_strings_match_json_dumps(text):
    assert common._json_str(text) == json.dumps(text)


@settings(max_examples=500, deadline=None)
@given(x=JSON_FLOATS)
def test_json_numbers_match_json_dumps_of_the_rounded_float(x):
    assert common._json_num(x) == json.dumps(helpers.reference_rounded(x), allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(value=st.recursive(
    st.one_of(st.none(), JSON_INTS, JSON_FLOATS, JSON_TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=20,
))
def test_json_writer_matches_json_dumps_of_the_rounded_payload(value):
    assert common._json(value) == json.dumps(helpers.reference_rounded(value), allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf])
def test_json_writer_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError, match="not JSON compliant"):
        json.dumps(bad, allow_nan=False)
    for write in (common._json_num, common._json, lambda x: common._json({"values": [0.0, x]})):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("command", ["check", "ratios", "matrix", "qnum"])
def test_json_refuses_a_non_finite_float_in_any_payload(passing_file, monkeypatch, command, bad):
    if command == "check":
        battery = obstruct.run_battery
        monkeypatch.setattr(obstruct, "run_battery", lambda *a, **k: battery(*a, **k)._replace(r=bad))
        argv = ["check", passing_file]
    elif command == "ratios":
        table = obstruct.allowed_ratios
        monkeypatch.setattr(
            obstruct, "allowed_ratios", lambda ctx, n: [*table(ctx, n)[:-1], table(ctx, n)[-1]._replace(q=bad)]
        )
        argv = ["ratios", "--n", "4", "--delta", "2.2"]
    elif command == "matrix":
        build = branch.build_branch_matrix
        monkeypatch.setattr(
            branch, "build_branch_matrix", lambda *a: build(*a)._replace(lam=complex(1.0, bad))
        )
        argv = ["matrix", "--n", "4", "--delta", "2.2", "--p", "5.2028", "--q", "4.7028"]
    else:
        monkeypatch.setattr(QuantumContext, "qints", lambda self, k: [0.0, bad])
        argv = ["qnum", "--delta", "2.2", "--max", "1"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(ValueError, match="not JSON compliant"):
        main([*argv, "--format", "json"])
    assert out.getvalue() == ""


def test_check_text_and_json_verdicts_agree(passing_file, even_depth_file, capsys):
    for path, expected_code in ((passing_file, 0), (even_depth_file, 1)):
        assert main(["check", path, "--format", "json"]) == expected_code
        payload = json.loads(capsys.readouterr().out)
        assert main(["check", path]) == expected_code
        text = capsys.readouterr().out
        for name, verdict in payload["verdicts"].items():
            assert f"{name:<18} {verdict}" in text


def test_check_multiple_files_in_input_order(passing_file, even_depth_file, capsys):
    assert main(["check", passing_file, even_depth_file, "--format", "json"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(line)["file"] for line in lines] == [passing_file, even_depth_file]


def test_check_tiny_tol_never_exits_two(tmp_path, capsys):
    # the lambda cross-check must not inherit a verdict tolerance below rounding
    paths = []
    for name, principal, dual in helpers.battery_corpus():
        path = tmp_path / f"{name}.pair"
        path.write_text(helpers.pair_text(principal, dual))
        paths.append(str(path))
    assert main(["check", *paths, "--tol", "1e-15"]) in (0, 1)
    assert capsys.readouterr().err == ""


FUZZ_BASES = [
    helpers.pair_text(*helpers.two_rooted_pair(1)),
    helpers.pair_text(*helpers.self_paired(helpers.branched_tree(3, (), (2, 1)))),
]


@st.composite
def mutated_pair_text(draw):
    """A valid pair file with one to three token-level mutations."""
    lines = [line.split(" ") for line in draw(st.sampled_from(FUZZ_BASES)).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        tokens = draw(st.sampled_from(lines))
        if not tokens:
            continue
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "integer", "flip")))
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        elif op == "integer":
            tokens[i] = str(draw(st.integers(0, 9)))
        elif tokens[i]:
            j = draw(st.integers(0, len(tokens[i]) - 1))
            char = draw(st.characters(min_codepoint=32, max_codepoint=126))
            tokens[i] = tokens[i][:j] + char + tokens[i][j + 1 :]
    return "\n".join(" ".join(tokens) for tokens in lines).encode()


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=2048), mutated_pair_text()))
def test_check_exit_contract_fuzz(tmp_path_factory, data):
    """A report prints nothing on stderr; a refusal prints nothing on stdout and one line naming the file."""
    path = tmp_path_factory.getbasetemp() / "fuzz.pair"
    path.write_bytes(data)
    for fmt in ("text", "json"):
        code, out, err = printed(["check", "--format", fmt, str(path)])
        if code == 2:
            assert out == "" and err.startswith(f"{path}: ") and err.count("\n") == 1 and err.endswith("\n")
        else:
            assert code in (0, 1) and err == ""


@st.composite
def branched_pair_text(draw):
    """A self-paired tree from ``helpers.branched_tree``, or a two-rooted pair, as pair-file bytes."""
    if draw(st.booleans()):
        return helpers.pair_text(*helpers.two_rooted_pair(draw(st.integers(0, 6)))).encode()
    arm = st.lists(st.integers(1, 6), max_size=2).map(tuple)
    edges = helpers.branched_tree(
        draw(st.integers(1, 8)), draw(arm), draw(arm), doubled_tail=draw(st.booleans())
    )
    return helpers.pair_text(*helpers.self_paired(edges)).encode()


@st.composite
def two_rooted_random_pair_text(draw):
    """One random tree graded from two roots, as pair-file bytes: the dual mostly differs.

    Two new vertices ``u`` and ``v`` each split an edge of a random tree, and
    each carries an initial string of the same length, ending in the root
    ``A`` or ``B``.  Graded from either root, the tree branches into a simple
    triple point at the end of its string, with the same norm and the same
    supertransitivity.
    """
    edges = [(f"t{draw(st.integers(0, i - 1))}", f"t{i}") for i in range(1, draw(st.integers(2, 16)))]
    for vertex in ("u", "v"):
        a, b = edges.pop(draw(st.integers(0, len(edges) - 1)))
        edges += [(a, vertex), (vertex, b)]
    length = draw(st.integers(1, 7))
    for vertex, root in (("u", "A"), ("v", "B")):
        string = [vertex, *(f"{root}{i}" for i in range(length - 1)), root]
        edges += zip(string, string[1:])
    return helpers.pair_text(helpers.grade_tree(edges, "A"), helpers.grade_tree(edges, "B")).encode()


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(mutated_pair_text(), branched_pair_text(), two_rooted_random_pair_text()))
def test_extract_orders_positive_dimensions_on_drawn_pairs(data):
    """Every pair that extracts has p >= q > 0, and its dual flags follow its dual's order.

    gamma3 and gamma2 are read from the dual's valences, with no vector
    solved for it; the oracle orders the dual's depth-n vertices by a dense
    ``eigh`` of its full adjacency matrix (``helpers.eigh_flags``).
    ``--hypothesis-show-statistics`` shows how many drawn pairs had a dual
    distinct from the principal graph.
    """
    try:
        principal, dual = parse_pair(data.decode())
        tp = extract_triple_point(principal, dual)
    except TripointError:
        event("refused")
        return
    event("self-paired" if dual == principal else "distinct dual")
    assert tp.p >= tp.q > 0
    assert (tp.gamma3_univalent, tp.gamma2_trivalent) == helpers.eigh_flags(dual, tp.n)


def count_solves(monkeypatch) -> dict[str, list]:
    """Record each solve: tree norms and vectors by vertex count, numpy routines by shape.

    ``eigvalsh`` gives a norm of a graph with a cycle and ``solve`` runs
    twice for its vector, once per inverse-iteration step.
    """
    calls: dict[str, list] = {name: [] for name in ("norm", "vector", "eigvalsh", "eigh", "solve")}

    def counting(module, name, key, size):
        real = getattr(module, name)

        def call(a, *args, **kwargs):
            calls[key].append(size(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counting(graph_module, "_tree_norm", "norm", lambda tree: tree.n)
    counting(graph_module, "_tree_vector", "vector", lambda tree: tree.n)
    for name in ("eigvalsh", "eigh", "solve"):
        counting(np.linalg, name, name, lambda a: a.shape)
    return calls


def test_check_solves_each_graph_once(passing_file, monkeypatch):
    """A distinct tree dual is solved for its norm alone; the principal for its vector too."""
    principal, dual = helpers.two_rooted_pair(0)
    calls = count_solves(monkeypatch)
    assert main(["check", passing_file]) == 0
    assert calls == {
        "norm": [principal.vertex_count, dual.vertex_count],
        "vector": [principal.vertex_count],
        "eigvalsh": [], "eigh": [], "solve": [],
    }


def test_check_solves_a_self_dual_graph_once(tmp_path, monkeypatch):
    graph = helpers.grade_tree(helpers.branched_tree(3, (1,), (2,)), "p0")
    path = tmp_path / "self_dual.pair"
    path.write_text(helpers.pair_text(graph, graph))
    calls = count_solves(monkeypatch)
    assert main(["check", str(path)]) == 0
    assert calls == {
        "norm": [graph.vertex_count], "vector": [graph.vertex_count],
        "eigvalsh": [], "eigh": [], "solve": [],
    }


def test_check_solves_no_norm_for_a_pair_refused_for_its_shape(tmp_path, monkeypatch, capsys):
    """One tree graded with strings of 3 and 1 edges: refused on shape, with nothing solved."""
    edges = helpers.two_rooted_tree()
    principal, dual = helpers.grade_tree(edges, "a"), helpers.grade_tree(edges, "L")
    path = tmp_path / "shape.pair"
    path.write_text(helpers.pair_text(principal, dual))
    calls = count_solves(monkeypatch)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}: supertransitivities differ: 3 vs 1\n")
    assert calls == {"norm": [], "vector": [], "eigvalsh": [], "eigh": [], "solve": []}


def test_check_solves_each_graph_with_a_cycle_once_on_its_even_side(cycle_file, monkeypatch):
    """One ``eigvalsh`` per graph; the two inverse-iteration solves are the principal's alone."""
    calls = count_solves(monkeypatch)
    assert main(["check", cycle_file]) == 0
    graph = helpers.grade_tree(helpers.reconverging_arms(3), "s0")
    even = (sum(graph.vertex_counts[::2]),) * 2
    assert calls == {
        "norm": [], "vector": [], "eigvalsh": [even] * 2, "eigh": [], "solve": [even] * 2,
    }


def test_check_solves_a_self_dual_graph_with_a_cycle_once(tmp_path, monkeypatch):
    graph = helpers.grade_tree(helpers.reconverging_arms(3), "s0")
    path = tmp_path / "cycle_self_dual.pair"
    path.write_text(helpers.pair_text(graph, graph))
    calls = count_solves(monkeypatch)
    assert main(["check", str(path)]) == 0
    even = (sum(graph.vertex_counts[::2]),) * 2
    assert calls == {"norm": [], "vector": [], "eigvalsh": [even], "eigh": [], "solve": [even] * 2}


def subprocess_env() -> dict:
    """Environment in which a child interpreter imports this tripoint."""
    src = str(Path(tripoint.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m tripoint.cli`` in a fresh process, so numpy warnings reach stderr."""
    return subprocess.run(
        [sys.executable, "-m", "tripoint.cli", *argv],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )


def test_check_dimensions_beyond_double_precision_exit_two(tmp_path):
    principal, dual = helpers.self_paired(
        helpers.branched_tree(3, (), (120,), doubled_tail=True)
    )
    path = tmp_path / "deep.pair"
    path.write_text(helpers.pair_text(principal, dual))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"{path}: root-normalized dimensions exceed double precision"
        " (the root entry of the Perron vector is below its resolution)"
    ]
    message = proc.stderr.replace(str(path), "")
    assert "RuntimeWarning" not in message and "inf" not in message


def test_check_long_doubled_tail_prints_exact_dimensions(tmp_path, capsys):
    """At tail 58 p and q must print at their limits 91/9 and 10/3, not drift by 6e-4."""
    principal, dual = helpers.self_paired(
        helpers.branched_tree(3, (), (58,), doubled_tail=True)
    )
    path = tmp_path / "tail58.pair"
    path.write_text(helpers.pair_text(principal, dual))
    assert main(["check", str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == pytest.approx(91 / 9, rel=1e-11)
    assert payload["q"] == pytest.approx(10 / 3, rel=1e-11)


def test_check_solver_failure_exits_two(cycle_file, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", fail)
    assert main(["check", cycle_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{cycle_file}: Perron solve failed: Singular matrix"]


def test_check_tree_solve_at_its_pass_cap_exits_two(passing_file, monkeypatch, capsys):
    monkeypatch.setattr(graph_module, "TREE_PASSES", 2)
    assert main(["check", passing_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{passing_file}: Perron solve failed: no convergence in 2 passes"
    ]


def test_check_tree_vector_that_is_not_one_signed_exits_two(passing_file, monkeypatch, capsys):
    """The vector solve's shift, halved, lies inside the spectrum; the norm stays right."""
    tree_vector = graph_module._tree_vector
    monkeypatch.setattr(
        graph_module, "_tree_vector", lambda tree, sigma: tree_vector(tree, sigma / 2)
    )
    assert main(["check", passing_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{passing_file}: Perron vector is not strictly positive in double precision"
    ]


# ---------------------------------------------------------------------------
# ratios

def test_ratios_row_count_and_monotonicity(capsys):
    assert main(["ratios", "--n", "4", "--index", "4.41"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    rows = [line.split() for line in out if line.strip()[0].isdigit()]
    assert len(rows) == 3
    gaps = [float(row[-1]) for row in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] == pytest.approx(1.0, abs=1e-9)
    assert gaps[2] == pytest.approx(0.0, abs=1e-9)


def test_only_the_product_overflows_at_n_600():
    """[602] is finite at delta 2.5, so REFUSALS' ``ratios-product-overflow`` refuses [600][602]."""
    assert math.isfinite(QuantumContext(2.5).qint(602))


def test_ratios_json(capsys):
    assert main(["ratios", "--n", "6", "--delta", "2.1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 6
    assert len(payload["rows"]) == 4
    assert payload["rows"][0]["lambda_trace"] == pytest.approx(2.0)


def test_ratios_requires_exactly_one_of_delta_index(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ratios", "--n", "4", "--delta", "2.1", "--index", "4.41"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# matrix

def test_matrix_equal_dims_prints_minus_one(capsys):
    ctx = QuantumContext(2.1)
    half = ctx.qint(5) / 2.0
    code = main(
        ["matrix", "--n", "4", "--delta", "2.1", "--p", str(half), "--q", str(half),
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"]["re"] == pytest.approx(-1.0, abs=1e-9)
    assert payload["lambda"]["im"] == pytest.approx(0.0, abs=1e-9)
    assert payload["lambda_trace"] == pytest.approx(-2.0, abs=1e-9)
    assert payload["entries"][0][0]["re"] == pytest.approx(1.0 / ctx.qint(4), rel=1e-9)
    assert payload["entries"][2][1] is None
    assert payload["entries"][2][2] is None


def test_matrix_text_marks_unknown_entries(capsys):
    ctx = QuantumContext(2.1)
    half = ctx.qint(5) / 2.0
    assert main(["matrix", "--n", "4", "--delta", "2.1", "--p", str(half), "--q", str(half)]) == 0
    out = capsys.readouterr().out
    assert "?" in out
    assert "sigma" in out and "tau" in out and "lambda" in out


@settings(max_examples=100, deadline=None)
@given(delta=st.floats(2.0, 3.0), n=st.integers(2, 40), gap=st.floats(0.0, 1.0))
@example(delta=2.1, n=4, gap=1.0 - 1e-12)
@example(delta=2.1, n=4, gap=1.0 + 1e-12)
@example(delta=2.0, n=2, gap=1.0 - 1e-12)
def test_matrix_text_prints_exactly_the_real_entries_as_reals(delta, n, gap):
    """A text cell ends in ``i`` exactly when its entry's imaginary part is nonzero.

    Within ``NUMERIC_TOL`` of p - q = 1 the Re(tau) snap makes sigma and tau
    real; outside it the imaginary parts stay well clear of zero.
    """
    ctx = QuantumContext(delta)
    total = ctx.qint(n + 1)
    p, q = (total + gap) / 2.0, (total - gap) / 2.0
    try:
        matrix = build_branch_matrix(ctx, n, p, q)
    except NoUnitaryPhase:  # rounding widened the gap past 1
        return
    argv = ["matrix", "--n", str(n), "--delta", repr(delta), "--p", repr(p), "--q", repr(q)]
    code, out, err = printed(argv)
    assert (code, err) == (0, "")
    rows = [line.strip().removeprefix("[").removesuffix("]").split() for line in out.splitlines()[1:4]]
    for row, entries in zip(rows, matrix.entries, strict=True):
        for cell, z in zip(row, entries, strict=True):
            if z is None:
                assert cell == "?"
            else:
                assert cell.endswith("i") == (z.imag != 0), (cell, z)
                assert z.imag == 0 or abs(z.imag) >= 1e-5, z


def test_matrix_without_unitary_phase_exits_one(capsys):
    ctx = QuantumContext(2.1)
    total = ctx.qint(5)
    p, q = (total + 1.5) / 2.0, (total - 1.5) / 2.0
    code = main(["matrix", "--n", "4", "--delta", "2.1", "--p", str(p), "--q", str(q)])
    assert code == 1
    assert "no unitary phase: p - q > 1" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_matrix_keeps_the_digits_of_a_small_gap(fmt, capsys):
    """p - q = 0.5 and p + q = [31] at delta 3, about 4e12: the trace formula gives -1.

    p^2 - q^2 would lose about twelve digits of p - q here; (p - q)(p + q)
    keeps them, so the branch matrix agrees with ``check``'s trace formula.
    """
    argv = ["matrix", "--n", "30", "--delta", "3", "--p", "2026369768940.75",
            "--q", "2026369768940.25", "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["lambda_trace"] == -1.0
    else:
        assert out.splitlines()[-1] == "lambda + 1/lambda = -1"


# ---------------------------------------------------------------------------
# qnum

def test_qnum_integer_delta(capsys):
    """At delta 2, [k] = k, from ``--max 0`` up to ``SIZE_LIMIT``."""
    for max_k in (0, 5, SIZE_LIMIT):
        assert main(["qnum", "--delta", "2", "--max", str(max_k)]) == 0
        assert capsys.readouterr().out == " ".join(map(str, range(max_k + 1))) + "\n"


def test_qnum_fractional_delta(capsys):
    assert main(["qnum", "--delta", "2.5", "--max", "3"]) == 0
    assert capsys.readouterr().out.split() == ["0", "1", "2.5", "5.25"]


def test_qnum_huge_finite_delta(capsys):
    assert main(["qnum", "--delta", "1e200", "--max", "2"]) == 0
    assert capsys.readouterr().out == "0 1 1e+200\n"


def test_qnum_json(capsys):
    assert main(["qnum", "--delta", "2.5", "--max", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"] == [0.0, 1.0, 2.5, 5.25]


# ---------------------------------------------------------------------------
# global flags

@pytest.mark.parametrize("argv", [
    ["ratios", "--n", "4", "--delta", "2.1"],
    ["matrix", "--n", "4", "--delta", "2.1", "--p", "3.609", "--q", "3.609"],
    ["qnum", "--delta", "2.5", "--max", "3"],
])
def test_tol_is_a_check_option(argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-3"])
    assert exc.value.code == 2


def test_tol_changes_verdict(tmp_path, capsys):
    principal, dual = helpers.two_rooted_pair(1)
    path = tmp_path / "skewed.pair"
    path.write_text(helpers.pair_text(principal, dual))
    assert main(["check", str(path), "--format", "json"]) == 1
    strict = json.loads(capsys.readouterr().out)
    assert strict["verdicts"]["rotational"] == "Fail"
    # a huge tolerance accepts the same trace
    assert main(["check", str(path), "--format", "json", "--tol", "1.0"]) == 0
    loose = json.loads(capsys.readouterr().out)
    assert loose["verdicts"]["rotational"] == "Pass"


# ---------------------------------------------------------------------------
# the grammar: the direct parse of the plain form, and argparse for the rest

def option_value(option: cli._Option) -> st.SearchStrategy[str]:
    """A value for ``option`` that its type converts and its choices hold."""
    if option.choices is not None:
        return st.sampled_from(option.choices)
    if option.type is int:
        return st.integers(0, SIZE_LIMIT).map(str)
    return st.floats(min_value=0.0).map(repr) | st.sampled_from(["nan", "1e-3", "2.", " 2 ", "2_0"])


#: values that are wrong for some option, or that start with ``-``
ODD_VALUES = ["", "-1", "-1.5", "-inf", "-", "--", "x", "xml", "1.5", "check", "--n", "-h"]
#: tokens that are no option of any command
ODD_FLAGS = ["-h", "--help", "--", "-", "--bogus", "--bogus=1", "-n", "--Format"]
FILES = ["a.pair", "b.pair", "", "check", "4", " c", "-a.pair", "--tol"]
ALL_OPTIONS = [o for command in cli._COMMANDS.values() for o in (*command.options, *command.one_of)]


def plain_pieces(data, name: str) -> list[list[str]]:
    """A well-formed request of command ``name`` after the command, as a list of pieces.

    Each option is a ``[flag, value]`` piece, in any order and some repeated;
    ``check``'s files are one piece of one to three names, anywhere between them.
    """
    command = cli._COMMANDS[name]
    chosen = [o for o in command.options if o.required or data.draw(st.booleans())]
    if command.one_of:
        chosen.append(data.draw(st.sampled_from(command.one_of)))
    if chosen:  # some repeated; the last one given wins
        chosen += data.draw(st.lists(st.sampled_from(chosen), max_size=2))
    pieces = [[o.flag, data.draw(option_value(o))] for o in data.draw(st.permutations(chosen))]
    if command.files:
        plain_files = st.sampled_from([f for f in FILES if not f.startswith("-")])
        at = data.draw(st.integers(0, len(pieces)))
        pieces.insert(at, data.draw(st.lists(plain_files, min_size=1, max_size=3)))
    return pieces


def plain_request(data, name: str) -> list[str]:
    return [name, *(token for piece in plain_pieces(data, name) for token in piece)]


def spoil(data, pieces: list[list[str]]) -> None:
    """Change one piece of a request in one of the ways that argparse reads, or refuses."""
    at = data.draw(st.integers(0, len(pieces)))
    kind = data.draw(st.sampled_from(
        ["insert option", "insert token", "insert file", "drop", "no value", "odd value",
         "abbreviate", "equals"]))
    if kind == "insert option":  # repeated, from the one-of group, or another command's
        option = data.draw(st.sampled_from(ALL_OPTIONS))
        pieces.insert(at, [option.flag, data.draw(option_value(option))])
    elif kind == "insert token":
        pieces.insert(at, [data.draw(st.sampled_from(ODD_FLAGS))])
    elif kind == "insert file":  # it may split check's files around an option
        pieces.insert(at, [data.draw(st.sampled_from(FILES))])
    elif at < len(pieces):
        piece = pieces[at]
        flag = piece[0]
        if kind == "drop":  # a required option, the group's option or the files
            del pieces[at]
        elif not flag.startswith("--") or len(piece) != 2:
            pass  # a file or a token: the next kinds change an option
        elif kind == "no value":
            pieces[at] = [flag]
        elif kind == "odd value":
            pieces[at] = [flag, data.draw(st.sampled_from(ODD_VALUES))]
        elif kind == "abbreviate" and len(flag) > 3:
            pieces[at] = [flag[: data.draw(st.integers(3, len(flag) - 1))], piece[1]]
        elif kind == "equals":
            pieces[at] = [f"{flag}={piece[1]}"]


def any_request(data) -> list[str]:
    """A well-formed request with one to three pieces changed, or with no command first."""
    name = data.draw(st.sampled_from([*cli._COMMANDS, "bogus", "-h", "--help", ""]))
    pieces = plain_pieces(data, name if name in cli._COMMANDS else "check")
    for _ in range(data.draw(st.integers(1, 3))):
        spoil(data, pieces)
    return [name, *(token for piece in pieces for token in piece)]


#: one argparse parser for every example; parsing leaves it as it was
PARSER = cli.build_parser()


def reprs(namespace) -> dict[str, str]:
    """``vars(namespace)`` by ``repr``, so that NaN equals NaN, and 1 differs from 1.0."""
    return {key: repr(value) for key, value in vars(namespace).items()}


def argparse_reprs(argv: list[str]) -> dict[str, str] | None:
    """``reprs`` of argparse's namespace for ``argv``, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return reprs(PARSER.parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_direct_parse_reads_every_plain_request_as_argparse_does(data):
    argv = plain_request(data, data.draw(st.sampled_from(list(cli._COMMANDS))))
    plain = cli._parse_plain(argv)
    assert plain is not None, argv
    assert reprs(plain) == argparse_reprs(argv), argv


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_direct_parse_agrees_with_argparse_or_declines(data):
    """Where argparse exits, with help or a usage error, the direct parse declines."""
    argv = any_request(data)
    plain = cli._parse_plain(argv)
    if plain is not None:
        assert reprs(plain) == argparse_reprs(argv), argv


QNUM = ["qnum", "--delta", "2", "--max", "3"]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["check"], ["check", "a", "-h"],
    ["ratios", "--n", "4"],  # neither of the one-of group
    ["ratios", "--n", "4", "--delta", "2.1", "--index", "4.41"],  # both
    QNUM[:3], QNUM[:4],  # a required option, a value missing
    ["qnum", "--delta=2", *QNUM[3:]], ["qnum", "--del", "2", *QNUM[3:]],
    ["qnum", "--delta", "-1", *QNUM[3:]], ["qnum", "--delta", "-inf", *QNUM[3:]],
    ["qnum", "--delta", "", *QNUM[3:]], ["qnum", "--delta", "two", *QNUM[3:]],
    [*QNUM, "--format", "xml"], [*QNUM, "--tol", "1e-3"], [*QNUM, "--bogus", "text"],
    [*QNUM, "--", "x"], [*QNUM, "extra"],
    ["check", "a", "--tol", "1e-3", "b"],  # files split around an option
    ["check", "-a.pair"], ["check", "a", "--", "b"], ["check", "--tol", "1e-3"],
])
def test_the_direct_parse_declines_all_but_the_plain_form(argv):
    """Help, usage errors and every other spelling that argparse reads are argparse's."""
    assert cli._parse_plain(argv) is None


def help_of(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        PARSER.parse_args([*argv, "--help"])
    assert exc.value.code == 0
    return out.getvalue()


def test_build_parser_prints_the_grammar():
    """``build_parser`` is argparse's parser of the table: each command, option and help text."""
    top = help_of()
    assert top.startswith("usage: tripoint [-h] {check,ratios,matrix,qnum} ...\n")
    for name, command in cli._COMMANDS.items():
        assert top.count(command.help) == 1
        text = help_of(name)
        for option in (*command.options, *command.one_of):
            assert f"{option.flag} {option.dest.upper()}" in text or option.choices
            assert option.help is None or option.help % option._asdict() in text
    assert "--n N (--delta DELTA |" in " ".join(help_of("ratios").split())
    assert "[--tol TOL] FILE [FILE ...]" in help_of("check")


# ---------------------------------------------------------------------------
# process entry: ``run``, behind ``python -m tripoint.cli`` and the console script

#: one request of each command; ``{pair}`` stands for a passing pair file
OUTPUT_REQUESTS = {
    "check": ["check", "{pair}"],
    "ratios": ["ratios", "--n", "4", "--index", "4.41"],
    "matrix": ["matrix", "--n", "4", "--delta", "2.1", "--p", "3.60905", "--q", "3.60905"],
    "qnum": ["qnum", "--delta", "2", "--max", "5", "--format", "json"],
    # about 170 kB of text, far past the stdout buffer, so the write fails inside ``main``
    "long-qnum": ["qnum", "--delta", "2.0001", "--max", "10000"],
}


def run_into(stdout, name: str, pair: str) -> subprocess.CompletedProcess:
    """``OUTPUT_REQUESTS[name]`` through ``python -m tripoint.cli`` into ``stdout``."""
    argv = [arg.format(pair=pair) for arg in OUTPUT_REQUESTS[name]]
    return subprocess.run(
        [sys.executable, "-m", "tripoint.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
        text=True, env=subprocess_env(), timeout=60,
    )


@pytest.mark.parametrize("name", OUTPUT_REQUESTS)
def test_a_closed_stdout_exits_two_silently(passing_file, name):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_into(write_end, name, passing_file)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", OUTPUT_REQUESTS)
def test_a_full_disk_exits_two_with_one_line(passing_file, name):
    with open("/dev/full", "w") as full:
        proc = run_into(full, name, passing_file)
    assert proc.returncode == 2
    no_space = os.strerror(errno.ENOSPC)
    assert proc.stderr.splitlines() == [f"cannot write output: [Errno {errno.ENOSPC}] {no_space}"]


@pytest.mark.parametrize("redirect", [">&-", "2>&-"])
def test_a_stream_closed_at_start_is_left_alone(passing_file, capsys, redirect):
    """With fd 1 or fd 2 closed, Python has no such stream; the status stays ``main``'s."""
    argv = ["check", passing_file]
    assert main(argv) == 0
    printed = "" if redirect == ">&-" else capsys.readouterr().out
    proc = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "tripoint.cli", *argv],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, printed, "")


#: the README's candidate pair, which ``check`` excludes
README_PAIR = re.search(
    r"^```\n(\[principal\]\n.*?)^```$",
    (Path(__file__).resolve().parent.parent / "README.md").read_text(),
    flags=re.MULTILINE | re.DOTALL,
).group(1)


def test_check_prints_a_file_name_that_is_not_utf8_as_its_bytes(tmp_path):
    bad = os.path.join(os.fsencode(tmp_path), b"bad\xff.pair")
    plain = tmp_path / "plain.pair"
    try:
        with open(bad, "w") as fh:
            fh.write(README_PAIR)
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    plain.write_text(README_PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "tripoint.cli", "check", bad, os.fsencode(plain)],
        capture_output=True, env=dict(subprocess_env(), PYTHONIOENCODING="utf-8"), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (1, b"")
    names = [line for line in proc.stdout.splitlines() if line.startswith(b"file: ")]
    assert names == [b"file: " + bad, b"file: " + os.fsencode(plain)]


#: ``python -m tripoint.cli`` as if on the number of CPUs in ``sys.argv[1]``;
#: each fork is announced on stderr, before any file is read
ENTRY_ON_CPUS = """
import os
import runpy
import sys

fork = os.fork
os.fork = lambda: os.write(2, b"fork\\n") and fork()
cpus = set(range(int(sys.argv[1])))
os.sched_getaffinity = lambda pid: cpus
sys.argv = ["tripoint", *sys.argv[2:]]
runpy.run_module("tripoint.cli", run_name="__main__")
"""


@pytest.mark.parametrize("forked", [False, True])
def test_text_output_prints_a_name_the_output_encoding_cannot_encode(tmp_path, forked):
    """Under an ASCII output encoding ``café.pair`` prints as its UTF-8 bytes, as under UTF-8.

    The forked batch puts the file in the last of three chunks, so a worker
    renders it; the comment line pads each file to ``FORK_MIN_BYTES``.
    """
    pad = "#" + "." * workers.FORK_MIN_BYTES + "\n" if forked else ""
    paths = [tmp_path / f"{i}.pair" for i in range(5 if forked else 0)] + [tmp_path / "café.pair"]
    for path in paths:
        path.write_text(pad + README_PAIR)
    entry = ["-c", ENTRY_ON_CPUS, "3"] if forked else ["-m", "tripoint.cli"]
    outputs = []
    for encoding in ("ascii", "utf-8"):
        proc = subprocess.run(
            [sys.executable, *entry, "check", *map(os.fsencode, paths)],
            capture_output=True, env=dict(subprocess_env(), PYTHONIOENCODING=encoding), timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (1, b"fork\n" * 2 if forked else b""), encoding
        outputs.append(proc.stdout)
    names = [line for line in outputs[0].splitlines() if line.startswith(b"file: ")]
    assert names == [b"file: " + os.fsencode(path) for path in paths]
    assert names[-1].endswith(b"/caf\xc3\xa9.pair")
    assert outputs[0] == outputs[1]


def test_the_entry_prints_names_as_their_bytes_on_both_streams_forked_or_not(tmp_path):
    """``python -m tripoint.cli check`` on a batch that forks on three CPUs, and on one CPU.

    Each of the six files is padded to ``FORK_MIN_BYTES``, so the three
    chunks are two files each: the failing ``café.pair`` and ``naïve.pair``,
    which quotes a token ``'é'``, go to the first worker, the malformed
    ``bad\\xff.pair`` to the second.  Both runs print the same bytes and exit alike under
    each output encoding.  An error line shows its file name as the name's
    bytes, as a report does, and the rest of its message as stderr writes
    it; a JSON report writes the name as the same escapes under either
    encoding.
    """
    pad = b"#" + b"." * workers.FORK_MIN_BYTES + b"\n"
    malformed = b"[principal]\n"
    token = b"[principal]\ndepths: 2\ncounts: 1 1\nedges: \xc3\xa9\n[dual]\n"
    root = os.fsencode(tmp_path)
    files = [(b"0.pair", README_PAIR.encode()), (b"1.pair", README_PAIR.encode()),
             ("café.pair".encode(), README_PAIR.encode()), ("naïve.pair".encode(), token),
             (b"4.pair", README_PAIR.encode()), (b"bad\xff.pair", malformed)]
    paths = [os.path.join(root, name) for name, _ in files]
    try:
        for path, (_, text) in zip(paths, files):
            with open(path, "wb") as fh:
                fh.write(pad + text)
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    errors = []
    for path, text in ((paths[3], token), (paths[5], malformed)):
        with pytest.raises(TripointError) as excinfo:
            parse_pair((pad + text).decode())
        errors.append((path, str(excinfo.value)))
    outputs = {}
    for fmt in ("text", "json"):
        for encoding in ("utf-8", "ascii"):
            for cpus in (1, 3):
                proc = subprocess.run(
                    [sys.executable, "-c", ENTRY_ON_CPUS, str(cpus), "check", "--format", fmt, *paths],
                    capture_output=True, env=dict(subprocess_env(), PYTHONIOENCODING=encoding), timeout=60,
                )
                forks = b"fork\n" * 2 if cpus == 3 else b""
                assert proc.stderr.startswith(forks), (fmt, encoding, cpus)
                outputs[fmt, encoding, cpus] = proc.returncode, proc.stdout, proc.stderr[len(forks):]
            assert outputs[fmt, encoding, 1] == outputs[fmt, encoding, 3], (fmt, encoding)
            status, stdout, stderr = outputs[fmt, encoding, 1]
            assert status == 2
            assert stderr == b"".join(
                path + b": " + message.encode(encoding, "backslashreplace") + b"\n" for path, message in errors
            )
            reported = [path for path in paths if path not in dict(errors)]
            if fmt == "text":
                names = [line for line in stdout.splitlines() if line.startswith(b"file: ")]
                assert names == [b"file: " + path for path in reported]
            else:
                assert [json.loads(line)["file"] for line in stdout.splitlines()] == list(map(os.fsdecode, reported))
    assert b"\\xe9" in outputs["text", "ascii", 1][2] and b"'\xc3\xa9'" in outputs["text", "utf-8", 1][2]
    assert outputs["json", "utf-8", 1][1] == outputs["json", "ascii", 1][1]


def test_an_encoding_that_is_no_superset_of_ascii_prints_names_with_no_traceback(tmp_path):
    """Under UTF-16 a name prints as its characters, its stray bytes escaped.

    Names of each length parity, so that the test does not depend on the
    length of the temporary path: a UTF-16 decode of an even number of
    bytes succeeds, into unrelated characters.
    """
    root = os.fsencode(tmp_path)
    files = [(b"bad\xff.pair", b"[principal]\n"), (b"bad\xff.pairs", b"[principal]\n"),
             (b"bad.pair", b"[principal]\n"), (b"bad.pairs", b"[principal]\n"),
             (b"ok.pair", README_PAIR.encode()), (b"ok.pairs", README_PAIR.encode())]
    paths = [os.path.join(root, name) for name, _ in files]
    try:
        for path, (_, text) in zip(paths, files):
            with open(path, "wb") as fh:
                fh.write(text)
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    proc = subprocess.run(
        [sys.executable, "-m", "tripoint.cli", "check", *paths],
        capture_output=True, env=dict(subprocess_env(), PYTHONIOENCODING="utf-16"), timeout=60,
    )
    shown = [os.fsdecode(path).encode("utf-8", "backslashreplace").decode() for path in paths]
    assert proc.returncode == 2
    assert proc.stderr.decode("utf-16") == "".join(f"{name}: missing [dual] section\n" for name in shown[:4])
    names = [line for line in proc.stdout.decode("utf-16").splitlines() if line.startswith("file: ")]
    assert names == [f"file: {name}" for name in shown[4:]]


def strict_utf8() -> io.TextIOWrapper:
    """A text stream that refuses what UTF-8 cannot encode, as pytest's ``capsys`` does."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")


def test_a_strict_stderr_gets_an_escaped_error_line_and_the_batch_goes_on(tmp_path, passing_file,
                                                                          monkeypatch, capsys):
    """An in-process caller's strict stderr cannot encode a name that is not UTF-8.

    Only ``run`` sets the error handler that writes such a name's bytes;
    here the writer prints the line again, backslash-escaped, and goes on
    to the next file.
    """
    monkeypatch.chdir(tmp_path)
    try:
        with open(b"bad\xff.pair", "wb") as fh:
            fh.write(b"[principal]\n")
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    stderr = strict_utf8()
    with contextlib.redirect_stderr(stderr):
        assert main(["check", os.fsdecode(b"bad\xff.pair"), passing_file]) == 2
    stderr.flush()
    assert stderr.buffer.getvalue() == b"bad\\udcff.pair: missing [dual] section\n"
    assert capsys.readouterr().out.startswith(f"file: {passing_file}\n")


def test_a_strict_stdout_gets_a_report_whose_name_it_cannot_encode_escaped(tmp_path, monkeypatch):
    """The byte 0xff of a name is escaped; the character U+00FF of the next one is not."""
    monkeypatch.chdir(tmp_path)
    try:
        for name in (b"ok\xff.pair", "ok\xff.pair".encode()):
            with open(name, "wb") as fh:
                fh.write(README_PAIR.encode())
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    stdout = strict_utf8()
    with contextlib.redirect_stdout(stdout):
        assert main(["check", os.fsdecode(b"ok\xff.pair"), "ok\xff.pair"]) == 1
    stdout.flush()
    names = [line for line in stdout.buffer.getvalue().splitlines() if line.startswith(b"file: ")]
    assert names == [b"file: ok\\udcff.pair", b"file: ok\xc3\xbf.pair"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_ignores_a_leading_byte_order_mark(tmp_path, capsys, fmt):
    path = tmp_path / "candidate.pair"
    results = []
    for mark in (b"\xef\xbb\xbf", b""):
        path.write_bytes(mark + README_PAIR.encode())
        results.append((main(["check", str(path), "--format", fmt]), capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == 1 and results[0][1].err == ""
    # an error's position counts from after the mark, as the utf-8-sig codec counted it
    path.write_bytes(b"\xef\xbb\xbf\xff")
    assert main(["check", str(path), "--format", fmt]) == 2
    message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert capsys.readouterr() == ("", f"{path}: {message}\n")
    with pytest.raises(UnicodeDecodeError) as sig:
        path.read_bytes().decode("utf-8-sig")
    assert str(sig.value) == message


CRASH_PROBE = """
import sys
import tripoint.cli
import tripoint.obstruct

real_battery = tripoint.obstruct.run_battery
calls = []

def battery_that_crashes_on_its_second_call(*args, **kwargs):
    calls.append(None)
    if len(calls) == 2:
        raise RuntimeError("injected fault")
    return real_battery(*args, **kwargs)

tripoint.obstruct.run_battery = battery_that_crashes_on_its_second_call
sys.argv = ["tripoint", "check", *sys.argv[1:]]
tripoint.cli.run()
"""


def test_a_crash_exits_two_with_its_traceback_after_the_earlier_output(passing_file, capsys):
    """The fault goes where ``check`` looks the battery up, in ``tripoint.obstruct``'s namespace."""
    proc = subprocess.run(
        [sys.executable, "-c", CRASH_PROBE, passing_file, passing_file],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert proc.returncode == 2
    assert main(["check", passing_file]) == 0
    assert proc.stdout == capsys.readouterr().out  # the first report is not lost
    lines = proc.stderr.splitlines()
    assert lines[0] == "Traceback (most recent call last):"
    assert lines[-1] == "RuntimeError: injected fault"


ATEXIT_PROBE = """
import atexit
import runpy
import sys

atexit.register(lambda: print("atexit hook ran", file=sys.stderr))
sys.argv = ["tripoint", *sys.argv[1:]]
runpy.run_module("tripoint.cli", run_name="__main__")
"""


#: ``{pass}``, ``{fail}`` and ``{malformed}`` stand for pair files that exit 0, 1 and 2,
#: ``{batch}`` for the files of ``batch_files``, which ``run`` shares with workers
ENTRY_REQUESTS = {
    "pass": ["check", "{pass}"],
    "fail": ["check", "{fail}", "--format", "json"],
    "error-then-pass": ["check", "{malformed}", "{pass}"],
    "forked-batch": ["check", "{batch}"],
    "qnum": ["qnum", "--delta", "2.5", "--max", "8"],
    "input-error": ["ratios", "--n", "3", "--delta", "2.5"],
    "usage-error": ["qnum", "--delta", "2.5"],
    "help": ["--help"],
}


@pytest.mark.parametrize("name", ENTRY_REQUESTS)
def test_python_m_ends_with_mains_output_and_status_and_no_teardown(
    passing_file, even_depth_file, malformed_file, batch_files, capsys, monkeypatch, name,
):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the same width
    files = {"pass": passing_file, "fail": even_depth_file, "malformed": malformed_file}
    argv = []
    for arg in ENTRY_REQUESTS[name]:
        argv += batch_files if arg == "{batch}" else [arg.format(**files)]
    proc = subprocess.run(
        [sys.executable, "-c", ATEXIT_PROBE, *argv],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse's usage errors and --help
        status = exc.code
    captured = capsys.readouterr()
    assert "atexit hook ran" not in proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, captured.out, captured.err)


# ---------------------------------------------------------------------------
# refusals: what the tool cannot judge exits 2 with one stderr line

FIXTURES = Path(__file__).resolve().parent / "fixtures"
#: a number too long for ``int()``, and the one-vertex dual after a principal section
HUGE, DUAL = "9" * 5000, "\n[dual]\ndepths: 1\ncounts: 1\nedges:\n"
#: [n+1] of the ``matrix`` rows, which p + q must equal: [801] and [513] at delta 2.5, [370] at 3
Q801, Q513, Q370 = QuantumContext(2.5).qint(801), QuantumContext(2.5).qint(513), QuantumContext(3.0).qint(370)
LOW_DELTA = "< 2 means index < 4, outside the supported regime"

#: Each input that the tool cannot judge, by name: its request and exactly the
#: one line it prints on stderr, with exit 2 and nothing on stdout, under
#: ``--format text`` and ``--format json`` alike.  A string is a command's argv,
#: in which ``{pair}`` stands for a pair that passes.  Anything else is a
#: ``check`` of one file: bytes are its text, ``None`` a path where no file is
#: and a ``Path`` that path, and its line follows ``{path}: ``.
REFUSALS = {
    "check-malformed": (b"[principal]\ndepths: 2\ncounts: 1 1\nedges: 9:0-0\n[dual]\n",
                        "line 4: edge '9:0-0': depth 9 out of range for 2 depths"),
    # two trees of 19 vertices whose norms lie 5.6e-10, 1.26 million ulps, apart:
    # an absolute bound at NUMERIC_TOL, 1e-9, would accept them with exit 0
    "check-norms-1e-9-apart": (FIXTURES / "norms_1e-9_apart.pair",
                               "graph norms differ: 2.358893512727939 vs 2.3588935132884927"),
    "check-missing": (None, f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {{path!r}}"),
    "check-directory": (FIXTURES, f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {{path!r}}"),
    "check-not-utf8": (b"\xff\xfe[principal]\n",
                       "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "check-huge-depths": (f"[principal]\ndepths: {HUGE}\ncounts: 1 1 1\nedges: 0:0-0 1:0-0{DUAL}".encode(),
                          "line 2: 'depths:' has a number too long to convert"),
    "check-huge-counts": (f"[principal]\ndepths: 3\ncounts: 1 {HUGE} 1\nedges: 0:0-0 1:0-0{DUAL}".encode(),
                          "line 3: 'counts:' has a number too long to convert"),
    "check-counts-uncovered": (f"[principal]\ndepths: 2\ncounts: 1 {10 ** 15}\nedges: 0:0-0{DUAL}".encode(),
                               "vertex 1 at depth 1 has no edge to depth 0 (graph not graded)"),
    "check-huge-edge-depth": (f"[principal]\ndepths: 3\ncounts: 1 1 1\nedges: 0:0-0 {HUGE}:0-0 1:0-0{DUAL}".encode(),
                              f"line 4: edge '{HUGE}:0-0': depth {HUGE} out of range for 3 depths"),
    "check-huge-edge-index": (f"[principal]\ndepths: 3\ncounts: 1 1 1\nedges: 0:0-0 1:{HUGE}-0{DUAL}".encode(),
                              f"line 4: edge '1:{HUGE}-0': vertex index out of range"),
    # --tol is refused before any file is read, with no file named
    "check-tol-negative": ("check --tol -1 {pair}", "tol = -1.0 must be positive and finite"),
    "check-tol-zero": ("check --tol 0 {pair}", "tol = 0.0 must be positive and finite"),
    "check-tol-inf": ("check --tol inf {pair}", "tol = inf must be positive and finite"),
    "check-tol-nan": ("check --tol nan {pair}", "tol = nan must be positive and finite"),
    # any delta below 2, however close, is index < 4; an index is named as given,
    # not by the delta derived from it
    "ratios-delta-a-hair-under-2": ("ratios --n 4 --delta 1.9999999995", f"delta = 1.9999999995 {LOW_DELTA}"),
    "ratios-low-delta": ("ratios --n 4 --delta 1.9", f"delta = 1.9 {LOW_DELTA}"),
    "ratios-index-a-hair-under-4":
        ("ratios --n 4 --index 3.999999998", "--index 3.999999998 is not a finite index of at least 4"),
    "ratios-low-index": ("ratios --n 4 --index 3.9", "--index 3.9 is not a finite index of at least 4"),
    "ratios-negative-index": ("ratios --n 4 --index -1", "--index -1.0 is not a finite index of at least 4"),
    "ratios-nan-index": ("ratios --n 4 --index nan", "--index nan is not a finite index of at least 4"),
    "ratios-inf-index": ("ratios --n 4 --index inf", "--index inf is not a finite index of at least 4"),
    # --n and --max are named as given, and refused before delta is read
    "ratios-odd-n": ("ratios --n 3 --index 4.41", "--n 3 must be even and >= 2"),
    "ratios-negative-n": ("ratios --delta 2.1 --n -2", "--n -2 must be even and >= 2"),
    "ratios-n-above-limit": ("ratios --delta 2 --n 100000000", f"--n 100000000 exceeds the limit of {SIZE_LIMIT}"),
    "ratios-overflow": ("ratios --n 2000 --delta 2.5", "[2002] overflows double precision at delta = 2.5"),
    "ratios-product-overflow":
        ("ratios --n 600 --delta 2.5", "[n][n+2] overflows double precision at n = 600, delta = 2.5"),
    "matrix-delta-a-hair-under-2":
        ("matrix --n 4 --delta 1.9999999995 --p 2 --q 1", f"delta = 1.9999999995 {LOW_DELTA}"),
    "matrix-n-below-2": ("matrix --delta 1.5 --p 2 --q 1 --n 1", "--n 1 must be >= 2"),
    "matrix-n-above-limit": (f"matrix --delta 2 --p {SIZE_LIMIT // 2 + 1} --q {SIZE_LIMIT // 2} --n 100000000",
                             f"--n 100000000 exceeds the limit of {SIZE_LIMIT}"),
    "matrix-infinite-p":
        ("matrix --n 4 --delta 2.1 --p inf --q 1", "dimensions must be finite and satisfy p >= q > 0"),
    "matrix-sum": ("matrix --n 4 --delta 2.1 --p 3.0 --q 2.5", "p + q = 5.5 does not match [n+1] = 7.2181"),
    # p - q = 8 > 1, but the sum is checked first: an input error, not an exclusion
    "matrix-sum-before-phases":
        ("matrix --n 4 --delta 2.1 --p 10 --q 2", "p + q = 12.0 does not match [n+1] = 7.2181"),
    # p = 3[801]/4 and q = [801]/4 add up to [801], but p^2 - q^2 overflows
    "matrix-phase-overflow": (f"matrix --n 800 --delta 2.5 --p {0.75 * Q801!r} --q {0.25 * Q801!r}",
                              f"p^2 - q^2 overflows double precision at p = {0.75 * Q801!r}, q = {0.25 * Q801!r}"),
    # delta [n]^2 overflows in the third-row entry, which would be finite / inf,
    # printed as 0.  At n = 800 it would be inf / inf, but no consistent request
    # gets there: admissible dimensions overflow p^2 first, and p = q = 1 fail
    # the sum before any entry is formed.
    "matrix-entry-overflow": (f"matrix --n 512 --delta 2.5 --p {Q513 / 2!r} --q {Q513 / 2!r}",
                              "branch matrix entries for n = 512 overflow double precision"),
    "matrix-sum-at-n-800":
        ("matrix --n 800 --delta 2.5 --p 1 --q 1", f"p + q = 2.0 does not match [n+1] = {Q801!r}"),
    # every entry is finite, but [n][n+2] overflows in lambda
    "matrix-lambda-overflow": (f"matrix --n 369 --delta 3 --p {Q370 / 2!r} --q {Q370 / 2!r}",
                               "lambda for n = 369 overflows double precision"),
    "qnum-delta-a-hair-under-2": ("qnum --delta 1.9999999995 --max 3", f"delta = 1.9999999995 {LOW_DELTA}"),
    "qnum-low-delta": ("qnum --delta 1.5 --max 3", f"delta = 1.5 {LOW_DELTA}"),
    "qnum-negative-max": ("qnum --delta 2 --max -1", "--max -1 must be >= 0"),
    "qnum-negative-max-low-delta": ("qnum --delta 1.5 --max -1", "--max -1 must be >= 0"),
    "qnum-max-above-limit": ("qnum --delta 2 --max 100000000", f"--max 100000000 exceeds the limit of {SIZE_LIMIT}"),
    "qnum-overflow": ("qnum --delta 2.5 --max 1100", "[1100] overflows double precision at delta = 2.5"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", REFUSALS)
def test_each_refusal_is_one_line(tmp_path, passing_file, name, fmt):
    request, line = REFUSALS[name]
    if isinstance(request, str):
        argv = [arg.format(pair=passing_file) for arg in shlex.split(request)]
    else:
        path = request if isinstance(request, Path) else tmp_path / "refused.pair"
        if isinstance(request, bytes):
            path.write_bytes(request)
        argv, line = ["check", str(path)], f"{path}: " + line.format(path=str(path))
    assert printed([*argv, "--format", fmt]) == (2, "", line + "\n")


@pytest.mark.parametrize("name", ["ratios-n-above-limit", "matrix-n-above-limit", "qnum-max-above-limit"])
def test_a_size_above_the_limit_is_refused_at_once_and_the_limit_is_not(name):
    argv = shlex.split(REFUSALS[name][0])
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert main([str(SIZE_LIMIT) if arg == "100000000" else arg for arg in argv]) == 0


# ---------------------------------------------------------------------------
# start-up: what each request loads

#: Every module of the package, read from its directory, so that a new one is watched too.
PACKAGE_MODULES = {
    "tripoint" if path.stem == "__init__" else f"tripoint.{path.stem}"
    for path in Path(tripoint.__file__).parent.glob("*.py")
}
#: The modules whose loading ``LOADS`` states: the package's and the heavier ones of
#: numpy and the standard library.
WATCHED = PACKAGE_MODULES | {
    "numpy", "json", "argparse", "gettext", "locale", "dataclasses", "inspect", "ast", "dis",
    "tokenize", "pickle", "multiprocessing", "concurrent.futures", "encodings.utf_8_sig",
}

# Why a request loads no more than its row says (``python -X importtime``,
# Python 3.11.7, 2 shared vCPUs):
# - numpy, with ``tripoint.dense``, loads only when a graph with a cycle is
#   solved: a tree pair, as every pair of the benchmark is, is checked with
#   the standard library alone.
# - ``dataclasses`` loads ``inspect`` and ``ast``, 9.2 to 11.6 ms, against 9
#   to 14 ms for all of ``import tripoint.cli`` compiled from source and 2 to
#   4 ms with its bytecode cached.  So no value of the package is a
#   dataclass; the values are named tuples.
# - ``argparse``, with ``gettext`` and ``locale``, costs a fresh process about
#   10 ms, spent only on reading a few ``--flag value`` tokens.  Only help
#   and usage errors load it, with ``tripoint.usage``; a ``--tol`` that
#   ``check`` refuses is read without it, and refused before the graph layer
#   is compiled.
# - ``json`` loads its decoder and scanner, which no command uses: 3 to 4 ms
#   with its bytecode cached.  ``common._json`` writes the bytes instead.
# - ``tripoint.cli`` runs as ``__main__`` under ``python -m``, so no module
#   may import it: the import would compile and run it a second time.
# - A forked batch sends ``marshal`` over a pipe, with no process pool and
#   no ``pickle``; ``check`` strips a byte-order mark itself, without the
#   ``utf-8-sig`` codec.
# - Each command loads only its own modules: ``check`` the graph layer and
#   ``tripoint.check``, ``check`` and ``ratios`` the obstruction tests (2 ms
#   with cached bytecode), ``matrix`` the branch matrix, and a ``check`` of
#   more than one file under ``run`` the fork path, ``tripoint.workers``.
#   Help comes from the grammar alone and loads no command's module.

#: what ``python -m tripoint.cli`` loads for any request, not counting the CLI itself
CLI = {"tripoint", "tripoint.errors", "tripoint.common", "tripoint.qnum"}
CHECK = CLI | {"tripoint.check", "tripoint.graph", "tripoint.obstruct"}
USAGE = CLI | {"tripoint.usage", "argparse", "gettext", "locale"}

#: Each request by name: the argv of one fresh ``python -X importtime`` process,
#: its exit status and exactly the watched modules it loads, besides those that
#: the interpreter's start-up loads, and those that numpy loads when a row loads
#: numpy.  ``{pair}`` and ``{fail}`` stand for tree pairs that pass and fail,
#: ``{cycle}`` for a pair of graphs with a cycle and ``{batch}`` for the files of
#: ``batch_files``.
LOADS = {
    "import-tripoint": ("-c 'import tripoint'", 0, {"tripoint", "tripoint.errors"}),
    "import-cli": ("-c 'import tripoint.cli'", 0, CLI | {"tripoint.cli"}),
    "check": ("-m tripoint.cli check {pair}", 0, CHECK),
    "check-json": ("-m tripoint.cli check --format json {pair}", 0, CHECK),
    "check-json-fail": ("-m tripoint.cli check --format json {fail}", 1, CHECK),
    "check-cycle": ("-m tripoint.cli check {cycle}", 0, CHECK | {"tripoint.dense", "numpy"}),
    "check-tol-0": ("-m tripoint.cli check --tol 0 {pair}", 2, CLI | {"tripoint.check", "tripoint.obstruct"}),
    "check-batch": ("-m tripoint.cli check {batch}", 2, CHECK | {"tripoint.workers"}),
    "ratios-delta": ("-m tripoint.cli ratios --n 4 --delta 2.1", 0, CLI | {"tripoint.obstruct"}),
    "ratios-index": ("-m tripoint.cli ratios --n 4 --index 4.41", 0, CLI | {"tripoint.obstruct"}),
    "ratios-index-json":
        ("-m tripoint.cli ratios --n 4 --index 4.41 --format json", 0, CLI | {"tripoint.obstruct"}),
    "matrix":
        ("-m tripoint.cli matrix --n 4 --delta 2.1 --p 3.60905 --q 3.60905", 0, CLI | {"tripoint.branch"}),
    "matrix-json": ("-m tripoint.cli matrix --n 4 --delta 2.1 --p 3.60905 --q 3.60905 --format json",
                    0, CLI | {"tripoint.branch"}),
    "qnum": ("-m tripoint.cli qnum --delta 2 --max 5", 0, CLI),
    "qnum-json": ("-m tripoint.cli qnum --delta 2 --max 5 --format json", 0, CLI),
    "usage-error": ("-m tripoint.cli qnum --delta 2.5", 2, USAGE),
    "help": ("-m tripoint.cli --help", 0, USAGE),
    "check-help": ("-m tripoint.cli check --help", 0, USAGE),
}


def loaded_by(*args: str) -> tuple[int, set[str]]:
    """The exit status of ``python -X importtime args`` and the watched modules it loads."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    return proc.returncode, WATCHED.intersection(
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    )


@pytest.fixture(scope="module")
def start_up_loads() -> set[str]:
    """The watched modules that a bare interpreter loads, which vary with its version:
    Python 3.13's ``site`` reads ``.pth`` files with the ``utf-8-sig`` codec."""
    status, loaded = loaded_by("-c", "pass")
    assert status == 0
    return loaded


@pytest.fixture(scope="module")
def numpy_loads() -> set[str]:
    """The watched modules that numpy's own import loads, which vary with its version."""
    status, loaded = loaded_by("-c", "import numpy")
    assert status == 0
    return loaded


@pytest.mark.parametrize("name", LOADS)
def test_each_request_loads_exactly_its_modules(
    passing_file, even_depth_file, cycle_file, batch_files, start_up_loads, numpy_loads, name,
):
    command, status, modules = LOADS[name]
    files = {"pair": passing_file, "fail": even_depth_file, "cycle": cycle_file}
    argv = []
    for arg in shlex.split(command):
        argv += batch_files if arg == "{batch}" else [arg.format(**files)]
    modules = modules | start_up_loads | (numpy_loads if "numpy" in modules else set())
    assert loaded_by(*argv) == (status, modules)


def test_every_module_of_the_package_is_loaded_by_some_request():
    assert PACKAGE_MODULES <= set().union(*(modules for _, _, modules in LOADS.values()))


def test_a_tree_pair_is_checked_with_numpy_blocked(passing_file, capsys):
    """With any import of numpy made to fail, a tree ``check`` prints what it prints with numpy."""
    blocked = "import sys; sys.modules['numpy'] = None; import tripoint.cli; tripoint.cli.run()"
    proc = subprocess.run(
        [sys.executable, "-c", blocked, "check", passing_file],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert main(["check", passing_file]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


# ---------------------------------------------------------------------------
# a check batch shared with forked workers

@pytest.fixture
def forks(monkeypatch):
    """Lets ``check`` fork as if on three CPUs; counts the forks."""
    made = []
    fork = os.fork

    def counted_fork():
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    return made


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_forked_batch_prints_what_one_process_prints(batch_files, forks, capsys, fmt):
    argv = ["check", "--format", fmt, *batch_files]
    serial = main(argv), capsys.readouterr()
    assert forks == []
    assert serial[0] == 2 and serial[1].out and serial[1].err
    assert (main(argv, may_fork=True), capsys.readouterr()) == serial
    assert len(forks) == 2  # three chunks: this process and two workers
    assert_no_worker_left()


@pytest.mark.parametrize("last, status", [(1, 1), (2, 2)], ids=["fail", "malformed"])
def test_a_forked_batch_exits_with_the_worst_status_of_any_chunk(
    batch_files, forks, capsys, last, status,
):
    """Only the last worker's chunk holds a file that does not pass."""
    assert main(["check", *[batch_files[0]] * 20, batch_files[last]], may_fork=True) == status
    assert len(forks) == 2


@pytest.mark.parametrize("may_fork", [False, True])
def test_a_name_that_open_refuses_is_that_files_error(batch_files, forks, capsys, may_fork):
    """A null byte (``ValueError``) or a lone surrogate (``UnicodeEncodeError``) in a name.

    ``open()`` refuses both; each is reported as its file's error with
    status 2, and the files after it are still checked, by a worker too.
    stderr escapes what it cannot encode, as the interpreter's own does.
    """
    refused = ["a\x00.pair", "a\ud800.pair"]
    passing = [batch_files[0]] * 20
    argv = ["check", refused[0], *passing[:10], refused[1], *passing[10:]]
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stderr(stderr):
        assert main(argv, may_fork=may_fork) == 2
    stderr.flush()
    reasons = []
    for name in refused:
        with pytest.raises(ValueError) as excinfo:
            open(name, "rb")
        reasons.append(f"{name}: {excinfo.value}\n")
    assert stderr.buffer.getvalue() == "".join(reasons).encode("utf-8", "backslashreplace")
    assert capsys.readouterr().out.count("file: ") == len(passing)
    assert len(forks) == (2 if may_fork else 0)
    assert_no_worker_left()


def test_a_value_error_in_parsing_is_a_crash(passing_file, monkeypatch):
    """Only reading a file may fail with ``ValueError`` as that file's error."""
    def parse_that_fails(text):
        raise ValueError("injected fault")

    monkeypatch.setattr(graph_module, "parse_pair", parse_that_fails)
    with pytest.raises(ValueError, match="injected fault"):
        main(["check", passing_file])


def test_a_chunk_that_cannot_be_forked_runs_here_in_its_turn(
    batch_files, forks, capsys, monkeypatch,
):
    argv = ["check", *batch_files]
    serial = main(argv), capsys.readouterr()
    fork = os.fork

    def fork_once():
        if forks:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    assert (main(argv, may_fork=True), capsys.readouterr()) == serial
    assert len(forks) == 1  # the second worker's chunk ran here
    assert_no_worker_left()


def test_one_file_or_a_small_batch_stays_in_one_process(passing_file, even_depth_file, forks):
    for argv in (["check", *[passing_file] * 60], ["check", passing_file, even_depth_file]):
        main(argv, may_fork=True)
    assert forks == []


def test_chunks_are_contiguous_and_of_about_equal_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    half = workers.FORK_MIN_BYTES // 2
    sizes = [half] * 6 + [4 * half, 0]  # and a missing file: five shares of 2 halves
    paths = []
    for i, size in enumerate(sizes):
        paths.append(str(tmp_path / f"{i}.pair"))
        Path(paths[-1]).write_bytes(b"#" * size)
    paths.append(str(tmp_path / "missing.pair"))
    chunks = workers._chunks(paths)
    assert [len(chunk) for chunk in chunks] == [2, 2, 2, 3]  # the large file's middle is in share 4
    assert [p for chunk in chunks for p in chunk] == paths
    assert workers._chunks(paths[:4]) == [paths[:2], paths[2:4]]  # FORK_MIN_BYTES for each of two
    assert workers._chunks(paths[:3]) == [paths[:3]]


#: the last line of the one file of ``crashing_batch`` whose check crashes
CRASH_MARKER = "# crash here\n"


@pytest.fixture
def crashing_batch(batch_files):
    """The first 26 files of ``batch_files``; the last passes, but its check crashes.

    Past the fork threshold, the crashing file is in the last worker's chunk.
    """
    assert BATCH_SIZE >= 26 and 25 % 5 == 0  # a passing file
    with open(batch_files[25], "a") as fh:
        fh.write(CRASH_MARKER)
    return batch_files[:26]


def test_a_worker_crash_is_raised_after_the_lines_before_it(
    crashing_batch, forks, capsys, monkeypatch,
):
    def parse_that_crashes_on_its_marker(text):
        if text.endswith(CRASH_MARKER):
            raise RuntimeError("injected fault")
        return parse_pair(text)

    monkeypatch.setattr(graph_module, "parse_pair", parse_that_crashes_on_its_marker)
    main(["check", *crashing_batch[:-1]])
    before = capsys.readouterr()
    with pytest.raises(workers.WorkerCrash) as crash:
        main(["check", *crashing_batch], may_fork=True)
    assert len(forks) == 2
    assert capsys.readouterr() == before
    lines = str(crash.value).splitlines()
    assert lines[0] == "Traceback (most recent call last):"
    assert lines[-1] == "RuntimeError: injected fault"
    assert_no_worker_left()


WORKER_CRASH_PROBE = """
import os
import sys
import tripoint.cli
import tripoint.graph

real_parse = tripoint.graph.parse_pair


def parse_that_crashes_on_its_marker(text):
    if text.endswith("# crash here\\n"):
        raise RuntimeError("injected fault")
    return real_parse(text)


tripoint.graph.parse_pair = parse_that_crashes_on_its_marker
os.sched_getaffinity = lambda pid: {0, 1}  # forks on a host with one CPU too
sys.argv = ["tripoint", "check", *sys.argv[1:]]
tripoint.cli.run()
"""


def test_a_worker_crash_exits_two_with_its_traceback(crashing_batch, capsys):
    proc = subprocess.run(
        [sys.executable, "-c", WORKER_CRASH_PROBE, *crashing_batch],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    main(["check", *crashing_batch[:-1]])
    before = capsys.readouterr()
    assert proc.returncode == 2
    assert proc.stdout == before.out
    assert proc.stderr.startswith(before.err + "Traceback (most recent call last):\n")
    assert proc.stderr.endswith("\nRuntimeError: injected fault\n")


def test_a_worker_killed_from_outside_is_a_crash(crashing_batch, forks, capsys, monkeypatch):
    pytest_pid = os.getpid()

    def parse_killed_at_its_marker(text):
        if text.endswith(CRASH_MARKER) and os.getpid() != pytest_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return parse_pair(text)

    monkeypatch.setattr(graph_module, "parse_pair", parse_killed_at_its_marker)
    with pytest.raises(workers.WorkerCrash, match=f"ended with status {-signal.SIGKILL} "):
        main(["check", *crashing_batch], may_fork=True)
    assert len(forks) == 2
    assert_no_worker_left()


@pytest.mark.parametrize("where", ["own-chunk", "first-read"])
def test_an_interrupt_reaps_every_worker(batch_files, forks, monkeypatch, where):
    """The interrupt comes while the workers run: in this process's own chunk,
    or in its first read of a worker's message, before that read reaches the end."""
    if where == "own-chunk":
        with open(batch_files[0], "a") as fh:
            fh.write(CRASH_MARKER)

        def parse_interrupted_at_its_marker(text):
            if text.endswith(CRASH_MARKER):
                raise KeyboardInterrupt
            return parse_pair(text)

        monkeypatch.setattr(graph_module, "parse_pair", parse_interrupted_at_its_marker)
    else:
        def read_interrupted(fd, size):
            raise KeyboardInterrupt

        monkeypatch.setattr(workers.os, "read", read_interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["check", *batch_files], may_fork=True)
    assert len(forks) == 2
    assert_no_worker_left()


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_a_closed_stdout_ends_a_forked_batch_with_every_worker_reaped(
    batch_files, forks, monkeypatch,
):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["check", *batch_files], may_fork=True)
    assert len(forks) == 2
    assert_no_worker_left()


def test_a_closed_stdout_exits_a_forked_batch_two_silently(batch_files):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tripoint.cli", "check", *batch_files], stdout=write_end,
            stderr=subprocess.PIPE, text=True, env=subprocess_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "")


def test_the_console_script_calls_what_python_m_calls():
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^tripoint\s*=\s*"([\w.:]+)"\s*$', scripts, flags=re.MULTILINE)

    module = ast.parse((root / "src" / "tripoint" / "cli.py").read_text())
    (main_block,) = [
        node for node in module.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (statement,) = main_block.body
    assert isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call)
    assert target == f"tripoint.cli:{ast.unparse(statement.value.func)}"
    assert target == "tripoint.cli:run"
