"""Command line interface: exit codes, output formats, round-trips."""

import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import tripoint
from tripoint import graph as graph_module
from tripoint import cli
from tripoint.branch import build_branch_matrix, extract_lambda
from tripoint.cli import SIZE_LIMIT, main
from tripoint.errors import TripointError
from tripoint.obstruct import allowed_ratios, run_battery
from tripoint.qnum import QuantumContext, nu_from_delta


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


def test_check_malformed_file_exits_two(malformed_file, capsys):
    assert main(["check", malformed_file]) == 2
    err = capsys.readouterr().err
    assert "out of range" in err


def test_check_missing_file_exits_two(tmp_path, capsys):
    path = str(tmp_path / "nope.pair")
    assert main(["check", path]) == 2
    expected = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {path!r}"
    assert capsys.readouterr().err == f"{path}: {expected}\n"


def test_check_directory_exits_two(tmp_path, capsys):
    path = str(tmp_path)
    assert main(["check", path]) == 2
    expected = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {path!r}"
    assert capsys.readouterr().err == f"{path}: {expected}\n"


def test_check_non_utf8_file_exits_two(tmp_path, capsys):
    path = tmp_path / "binary.pair"
    path.write_bytes(b"\xff\xfe[principal]\n")
    assert main(["check", str(path)]) == 2
    expected = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert capsys.readouterr().err == f"{path}: {expected}\n"


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


#: Principal sections whose numbers are too long for ``int()``, or whose
#: counts no edges can cover; each must give one stderr line and exit 2.
HUGE = "9" * 5000
HUGE_PRINCIPALS = {
    "depths": f"depths: {HUGE}\ncounts: 1 1 1\nedges: 0:0-0 1:0-0",
    "counts": f"depths: 3\ncounts: 1 {HUGE} 1\nedges: 0:0-0 1:0-0",
    "counts-uncovered": "depths: 2\ncounts: 1 1000000000000000\nedges: 0:0-0",
    "edge-depth": f"depths: 3\ncounts: 1 1 1\nedges: 0:0-0 {HUGE}:0-0 1:0-0",
    "edge-index": f"depths: 3\ncounts: 1 1 1\nedges: 0:0-0 1:{HUGE}-0",
}


@pytest.mark.parametrize("name", HUGE_PRINCIPALS)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_huge_numbers_exit_two_with_one_line(tmp_path, name, fmt, capsys):
    path = tmp_path / "huge.pair"
    path.write_text(f"[principal]\n{HUGE_PRINCIPALS[name]}\n[dual]\ndepths: 1\ncounts: 1\nedges:\n")
    assert main(["check", "--format", fmt, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}: ")
    assert captured.err.count("\n") == 1


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


def printed(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``main(argv)``; usable inside hypothesis tests."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


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
    code, out = printed(["check", "--format", "json", "--tol", repr(tol), str(path)])
    assert code == int(report.has_failure)
    assert out == reference_json(payload)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30).map(lambda k: 2 * k), delta=st.floats(2.0, 3.0))
def test_ratios_json_bytes_match_the_recursive_rounding(n, delta):
    ctx = nu_from_delta(delta)
    try:
        rows = allowed_ratios(ctx, n)
    except TripointError:
        return
    payload = {"n": n, "delta": ctx.delta, "rows": [row._asdict() for row in rows]}
    code, out = printed(["ratios", "--n", str(n), "--delta", repr(delta), "--format", "json"])
    assert code == 0
    assert out == reference_json(payload)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 20), delta=st.floats(2.0, 3.0), gap=st.floats(0.0, 1.5))
def test_matrix_json_bytes_match_the_recursive_rounding(n, delta, gap):
    ctx = nu_from_delta(delta)
    total = ctx.qint(n + 1)
    p, q = (total + gap) / 2.0, (total - gap) / 2.0
    try:
        matrix = build_branch_matrix(ctx, n, p, q)
        lam = extract_lambda(matrix)
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
        "lambda": parts(lam),
        "lambda_trace": 2.0 * lam.real,
    }
    argv = ["matrix", "--n", str(n), "--delta", repr(delta), "--p", repr(p), "--q", repr(q)]
    code, out = printed([*argv, "--format", "json"])
    assert code == 0
    assert out == reference_json(payload)


@settings(max_examples=100, deadline=None)
@given(delta=st.floats(2.0, 50.0), max_k=st.integers(0, 60))
def test_qnum_json_bytes_match_the_recursive_rounding(delta, max_k):
    ctx = nu_from_delta(delta)
    payload = {"delta": ctx.delta, "values": ctx.qints(max_k)}
    code, out = printed(["qnum", "--delta", repr(delta), "--max", str(max_k), "--format", "json"])
    assert code == 0
    assert out == reference_json(payload)


def test_json_output_builds_no_encoder_per_call(passing_file, monkeypatch):
    assert cli._encode.__self__.allow_nan is False

    def refuse(self, *args, **kwargs):
        raise AssertionError("a JSON encoder was built for one output")

    monkeypatch.setattr(json.JSONEncoder, "__init__", refuse)
    for argv in (
        ["check", passing_file],
        ["ratios", "--n", "4", "--delta", "2.2"],
        ["matrix", "--n", "4", "--delta", "2.2", "--p", "5.2028", "--q", "4.7028"],
        ["qnum", "--delta", "2.2", "--max", "3"],
    ):
        assert printed([*argv, "--format", "json"])[0] == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("command", ["check", "ratios", "matrix", "qnum"])
def test_json_refuses_a_non_finite_float_in_any_payload(passing_file, monkeypatch, command, bad):
    if command == "check":
        battery = cli.run_battery
        monkeypatch.setattr(cli, "run_battery", lambda *a, **k: battery(*a, **k)._replace(r=bad))
        argv = ["check", passing_file]
    elif command == "ratios":
        table = cli.allowed_ratios
        monkeypatch.setattr(
            cli, "allowed_ratios", lambda ctx, n: [*table(ctx, n)[:-1], table(ctx, n)[-1]._replace(q=bad)]
        )
        argv = ["ratios", "--n", "4", "--delta", "2.2"]
    elif command == "matrix":
        monkeypatch.setattr(cli, "extract_lambda", lambda matrix: complex(1.0, bad))
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
    path = tmp_path_factory.getbasetemp() / "fuzz.pair"
    path.write_bytes(data)
    assert main(["check", str(path)]) in (0, 1, 2)


def count_solves(monkeypatch) -> dict[str, list]:
    """Record each tree solve (its vertex count) and ``eigvalsh`` or ``eigh`` call (its shape)."""
    calls: dict[str, list] = {"tree": [], "eigvalsh": [], "eigh": []}
    tree_perron = graph_module._tree_perron

    def tree_solve(tree):
        calls["tree"].append(tree.n)
        return tree_perron(tree)

    def counting(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls[name].append(a.shape)
            return real(a, *args, **kwargs)

        return call

    monkeypatch.setattr(graph_module, "_tree_perron", tree_solve)
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


def test_check_solves_each_graph_once(passing_file, monkeypatch):
    principal, dual = helpers.two_rooted_pair(0)
    calls = count_solves(monkeypatch)
    assert main(["check", passing_file]) == 0
    sizes = [principal.vertex_count, dual.vertex_count]
    assert calls == {"tree": sizes, "eigvalsh": [], "eigh": []}


def test_check_solves_a_self_dual_graph_once(tmp_path, monkeypatch):
    graph = helpers.grade_tree(helpers.branched_tree(3, (1,), (2,)), "p0")
    path = tmp_path / "self_dual.pair"
    path.write_text(helpers.pair_text(graph, graph))
    calls = count_solves(monkeypatch)
    assert main(["check", str(path)]) == 0
    assert calls == {"tree": [graph.vertex_count], "eigvalsh": [], "eigh": []}


def test_check_solves_each_graph_with_a_cycle_once_on_its_even_side(cycle_file, monkeypatch):
    calls = count_solves(monkeypatch)
    assert main(["check", cycle_file]) == 0
    graph = helpers.grade_tree(helpers.reconverging_arms(3), "s0")
    even_side = sum(graph.vertex_counts[::2])
    assert calls == {"tree": [], "eigvalsh": [(even_side, even_side)] * 2, "eigh": []}


def test_check_solves_a_self_dual_graph_with_a_cycle_once(tmp_path, monkeypatch):
    graph = helpers.grade_tree(helpers.reconverging_arms(3), "s0")
    path = tmp_path / "cycle_self_dual.pair"
    path.write_text(helpers.pair_text(graph, graph))
    calls = count_solves(monkeypatch)
    assert main(["check", str(path)]) == 0
    even_side = sum(graph.vertex_counts[::2])
    assert calls == {"tree": [], "eigvalsh": [(even_side, even_side)], "eigh": []}


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
    tree_norm = graph_module._tree_norm
    monkeypatch.setattr(graph_module, "_tree_norm", lambda tree: tree_norm(tree) / 2)
    assert main(["check", passing_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{passing_file}: Perron vector is not strictly positive in double precision"
    ]


NUMPY_PROBE = """
import io, json, sys
from contextlib import redirect_stdout

if sys.argv[2] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError

import tripoint.cli

loaded = {"import tripoint.cli": "numpy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()) as out:
        code = tripoint.cli.main(argv)
    loaded[" ".join(argv)] = (sys.modules.get("numpy") is not None, code, out.getvalue())
print(json.dumps(loaded))
"""


def probe_numpy(commands: list[list[str]], numpy: str = "allowed") -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(commands), numpy],
        capture_output=True, text=True, env=subprocess_env(), check=True, timeout=60,
    )
    return json.loads(proc.stdout)


def test_numpy_loads_only_when_a_graph_is_solved(passing_file, cycle_file):
    """Only a graph with a cycle loads numpy; trees and the other commands never do."""
    half = repr(nu_from_delta(2.1).qint(5) / 2.0)
    commands = [
        ["qnum", "--delta", "2.5", "--max", "8"],
        ["ratios", "--n", "4", "--index", "4.41", "--format", "json"],
        ["matrix", "--n", "4", "--delta", "2.1", "--p", half, "--q", half],
        ["check", passing_file],
        ["check", cycle_file],
    ]
    loaded = probe_numpy(commands)
    assert loaded.pop("import tripoint.cli") is False
    *plain, tree_check, cycle_check = (loaded[" ".join(argv)] for argv in commands)
    assert [entry[:2] for entry in plain] == [[False, 0]] * 3
    assert tree_check[:2] == [False, 0]
    assert cycle_check[:2] == [True, 0]  # the probe does see numpy once a cycle is solved

    blocked = probe_numpy([["check", passing_file]], numpy="blocked")
    assert blocked[f"check {passing_file}"] == [False, 0, tree_check[2]]
    assert tree_check[2].startswith(f"file: {passing_file}")


START_UP_PROBE = """
import sys

before = set(sys.modules)
import tripoint.cli

imported = set(sys.modules) - before
code = tripoint.cli.main(["check", sys.argv[1]])
checked = set(sys.modules) - before
import json

print(json.dumps({"import": sorted(imported), "check": sorted(checked), "code": code}))
"""


def test_start_up_loads_no_dataclasses_machinery(passing_file):
    """Neither the import of the CLI nor a tree check loads dataclasses or what it pulls in."""
    proc = subprocess.run(
        [sys.executable, "-c", START_UP_PROBE, passing_file],
        capture_output=True, text=True, env=subprocess_env(), check=True, timeout=60,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["code"] == 0
    assert "tripoint.cli" in loaded["import"]  # the probe does see what the import loads
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert heavy.intersection(loaded["import"]) == set()
    assert heavy.intersection(loaded["check"]) == set()


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


def test_ratios_overflow_exits_two(capsys):
    assert main(["ratios", "--n", "2000", "--delta", "2.5", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows" in captured.err


def test_ratios_product_overflow_is_one_line(capsys):
    """[602] is finite at delta 2.5; only the product [600][602] overflows."""
    assert math.isfinite(nu_from_delta(2.5).qint(602))
    assert main(["ratios", "--n", "600", "--delta", "2.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "[n][n+2] overflows double precision at n = 600, delta = 2.5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["ratios", "--delta", "2"],
        ["matrix", "--delta", "2", "--p", str(SIZE_LIMIT // 2 + 1), "--q", str(SIZE_LIMIT // 2)],
    ],
)
def test_n_is_capped(argv, capsys):
    start = time.perf_counter()
    assert main([*argv, "--n", "100000000"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"--n 100000000 exceeds the limit of {SIZE_LIMIT}\n"
    assert main([*argv, "--n", str(SIZE_LIMIT)]) == 0


def test_ratios_json(capsys):
    assert main(["ratios", "--n", "6", "--delta", "2.1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 6
    assert len(payload["rows"]) == 4
    assert payload["rows"][0]["lambda_trace"] == pytest.approx(2.0)


def test_ratios_rejects_odd_n(capsys):
    assert main(["ratios", "--n", "3", "--index", "4.41"]) == 2
    assert "even" in capsys.readouterr().err


def test_ratios_rejects_small_index(capsys):
    assert main(["ratios", "--n", "4", "--index", "3.9"]) == 2
    assert main(["ratios", "--n", "4", "--delta", "1.9"]) == 2


def test_ratios_requires_exactly_one_of_delta_index(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ratios", "--n", "4", "--delta", "2.1", "--index", "4.41"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# matrix

def test_matrix_equal_dims_prints_minus_one(capsys):
    ctx = nu_from_delta(2.1)
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
    ctx = nu_from_delta(2.1)
    half = ctx.qint(5) / 2.0
    assert main(["matrix", "--n", "4", "--delta", "2.1", "--p", str(half), "--q", str(half)]) == 0
    out = capsys.readouterr().out
    assert "?" in out
    assert "sigma" in out and "tau" in out and "lambda" in out


def test_matrix_without_unitary_phase_exits_one(capsys):
    ctx = nu_from_delta(2.1)
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


def test_matrix_infinite_dimension_is_an_input_error(capsys):
    assert main(["matrix", "--n", "4", "--delta", "2.1", "--p", "inf", "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_matrix_phase_overflow_is_an_error_not_nan(fmt, capsys):
    """p = 3[801]/4, q = [801]/4 at delta 2.5 satisfy p + q = [n+1], but p^2 - q^2 overflows."""
    total = nu_from_delta(2.5).qint(801)
    p, q = repr(0.75 * total), repr(0.25 * total)
    argv = ["matrix", "--n", "800", "--delta", "2.5", "--p", p, "--q", q, "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"p^2 - q^2 overflows double precision at p = {p}, q = {q}"
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n, admissible", [(512, True), (800, False)])
def test_matrix_entry_overflow_is_an_error_not_nan(n, admissible, fmt, capsys):
    """delta [n]^2 overflows in the third-row entry.

    At n = 512, with admissible p = q = [n+1]/2, that entry is finite / inf,
    which would come out as 0 and fail the positive-gauge check for the
    wrong reason.  At n = 800 it is inf / inf; there p = q = 1, because
    admissible dimensions would overflow p^2 first.
    """
    dim = repr(nu_from_delta(2.5).qint(n + 1) / 2.0) if admissible else "1"
    argv = ["matrix", "--n", str(n), "--delta", "2.5", "--p", dim, "--q", dim, "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"branch matrix entries for n = {n} overflow double precision"
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_matrix_lambda_overflow_is_an_error_not_nan(fmt, capsys):
    """At n = 369 and delta 3 every entry is finite, but [n][n+2] overflows in lambda."""
    half = repr(nu_from_delta(3.0).qint(370) / 2.0)
    argv = ["matrix", "--n", "369", "--delta", "3", "--p", half, "--q", half, "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["lambda for n = 369 overflows double precision"]


def test_matrix_rejects_inconsistent_sum(capsys):
    assert main(["matrix", "--n", "4", "--delta", "2.1", "--p", "3.0", "--q", "2.5"]) == 2
    assert "[n+1]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# qnum

def test_qnum_integer_delta(capsys):
    assert main(["qnum", "--delta", "2", "--max", "5"]) == 0
    assert capsys.readouterr().out.split() == ["0", "1", "2", "3", "4", "5"]


def test_qnum_fractional_delta(capsys):
    assert main(["qnum", "--delta", "2.5", "--max", "3"]) == 0
    assert capsys.readouterr().out.split() == ["0", "1", "2.5", "5.25"]


def test_qnum_rejects_low_delta(capsys):
    assert main(["qnum", "--delta", "1.5", "--max", "3"]) == 2
    assert capsys.readouterr().err


def test_qnum_huge_finite_delta(capsys):
    assert main(["qnum", "--delta", "1e200", "--max", "2"]) == 0
    assert capsys.readouterr().out == "0 1 1e+200\n"


def test_qnum_overflow_exits_two(capsys):
    for fmt in ("text", "json"):
        assert main(["qnum", "--delta", "2.5", "--max", "1100", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err


def test_qnum_max_is_capped(capsys):
    start = time.perf_counter()
    assert main(["qnum", "--delta", "2", "--max", "100000000"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(SIZE_LIMIT) in captured.err
    assert main(["qnum", "--delta", "2", "--max", str(SIZE_LIMIT)]) == 0
    assert capsys.readouterr().out.split()[-1] == str(SIZE_LIMIT)


def test_qnum_json(capsys):
    assert main(["qnum", "--delta", "2.5", "--max", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"] == [0.0, 1.0, 2.5, 5.25]


# ---------------------------------------------------------------------------
# global flags

def test_tol_must_be_positive(passing_file):
    for tol in ("-1", "0", "inf", "nan"):
        with pytest.raises(SystemExit) as exc:
            main(["check", passing_file, "--tol", tol])
        assert exc.value.code == 2, tol


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
