"""The README's examples, run as written.

The pair file under "Graph pair files" is written to a temporary directory
as ``candidate.pair``.  Every ``$ tripoint ...`` command in a shell block is
run there through ``cli.main``, and its stdout must be the lines that follow
it, byte for byte; its exit code must be the one ``$ echo $?`` shows, or 0
when the block shows none.  The Library section's snippet runs as is.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from tripoint.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def shell_commands() -> list[tuple[list[str], str, int]]:
    """``(argv, stdout, exit code)`` of every ``$ tripoint`` command in the README."""
    commands = []
    for lang, body in BLOCKS:
        if lang:
            continue
        for chunk in re.split(r"^\$ ", body, flags=re.MULTILINE)[1:]:
            command, _, output = chunk.partition("\n")
            if command == "echo $?":
                argv, stdout, _ = commands[-1]
                commands[-1] = (argv, stdout, int(output))
            elif command.startswith("tripoint "):
                commands.append((shlex.split(command)[1:], output, 0))
    return commands


COMMANDS = shell_commands()


@pytest.fixture
def in_readme_dir(tmp_path, monkeypatch):
    """A working directory holding the README's pair file as ``candidate.pair``."""
    (pair,) = [body for lang, body in BLOCKS if body.startswith("[principal]\n")]
    (tmp_path / "candidate.pair").write_text(pair)
    monkeypatch.chdir(tmp_path)


def test_readme_shows_every_command():
    assert [argv[0] for argv, _, _ in COMMANDS] == ["check", "ratios", "matrix"]
    assert [code for _, _, code in COMMANDS] == [1, 0, 0]


@pytest.mark.parametrize("argv, stdout, code", COMMANDS, ids=[c[0][0] for c in COMMANDS])
def test_readme_command_output_is_exact(in_readme_dir, argv, stdout, code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == code
    assert out.getvalue() == stdout


def test_readme_library_snippet_runs(in_readme_dir):
    (snippet,) = [body for lang, body in BLOCKS if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("2.02368327196")
    assert lines[-1] == "1.414213562373095"
