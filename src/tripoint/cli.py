"""Command line front end.

Exit codes: 0 all applicable tests pass, 1 some obstruction fails, 2 on
usage or input errors, on output that could not be written and on any
crash.  A value that parses but lies outside a command's domain (a
``check --tol`` that is not positive and finite, as ``obstruct``
decides, a size out of its range or above ``SIZE_LIMIT``, a delta below
2) is refused with a ``TripointError``, which ``main`` turns into one
stderr line and exit 2.
Besides ``check``, which reports each file's error and goes on, only
``matrix`` catches one: ``NoUnitaryPhase`` is its answer, printed on stdout
with exit 1.  ``run`` is the process entry: under it a report on stdout
and an error line on stderr print a file name as the bytes given, under
any output encoding that is a superset of ASCII and also when they are
not valid UTF-8; it turns what escapes ``main`` into exit 2 and ends the
process without interpreter teardown; it alone lets a large ``check``
batch fork (``tripoint.workers``), so that the output and exit status
are still those of one process.

Each command imports only what it runs, and a process run without
bytecode on disk compiles only that.  This module holds the grammar, the
entry and the ``ratios`` and ``qnum`` handlers; ``check`` lives in
``tripoint.check``, which makes each file one outcome and prints
outcomes with one writer, and ``matrix`` in ``tripoint.branch``, next to
its engine.  So ``check`` alone loads the graph layer and its renderers,
``check`` and ``ratios`` alone the obstruction tests and ``matrix`` alone
the branch matrix.  What they share with this module, the number format,
the JSON writer and the size check, is in ``tripoint.common``; none of
them imports this module, which under ``python -m tripoint.cli`` runs as
``__main__`` and would be compiled and run twice.  Nor does any command
load the ``json`` package, whose decoder no command needs: ``common._json``
writes the bytes of ``json.dumps`` with ``allow_nan=False``.

The grammar is the table ``_COMMANDS``.  ``main`` reads a request in its
plain form (see ``_parse_plain``) itself, so a well-formed request never
loads ``argparse``, with its ``gettext`` and ``locale``; any other argv
goes to the argparse parser that ``build_parser`` makes from the same
table with ``tripoint.usage``, which prints help and usage errors and
which nothing else loads.
"""

from __future__ import annotations

import codecs
import math
import os
import sys
from collections.abc import Callable, Sequence
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, NamedTuple, NoReturn

from .common import _BYTES_AS_GIVEN, SIZE_LIMIT, _check_size, _fmt, _json
from .errors import InvalidArgument, TripointError, UnsupportedIndex
from .qnum import DEFAULT_TRACE_TOL, QuantumContext

if TYPE_CHECKING:
    import argparse


# ---------------------------------------------------------------------------
# check and matrix, each in the module that only its command loads

def _cmd_check(args: argparse.Namespace) -> int:
    from . import check  # here, not at start-up: no other command compiles its renderers

    return check._cmd_check(args)


def _cmd_matrix(args: argparse.Namespace) -> int:
    from . import branch  # here, not at start-up: no other command needs it

    return branch._cmd_matrix(args)


# ---------------------------------------------------------------------------
# ratios

def _cmd_ratios(args: argparse.Namespace) -> int:
    from .obstruct import allowed_ratios  # here, not at start-up: qnum and matrix do without it

    _check_size("--n", args.n, 2, even=True)
    if args.delta is not None:
        ctx = QuantumContext(args.delta)
    else:
        try:
            # max() keeps a negative index out of sqrt's domain; NaN passes through
            ctx = QuantumContext(math.sqrt(max(args.index, 0.0)))
        except (InvalidArgument, UnsupportedIndex) as exc:
            # the context words its refusal by a delta that was never given
            raise type(exc)(f"--index {args.index!r} is not a finite index of at least 4") from None
    rows = allowed_ratios(ctx, args.n)
    if args.format == "json":
        print(_json({"n": args.n, "delta": ctx.delta, "rows": [row._asdict() for row in rows]}))
    else:
        print(f"admissible ratios for n = {args.n}, delta = {_fmt(ctx.delta)}")
        print(f"{'k':>3}  {'lambda_trace':>18}  {'r':>18}  {'p':>18}  {'q':>18}  {'p-q':>18}")
        for row in rows:
            values = (row.lambda_trace, row.r, row.p, row.q, row.p - row.q)
            print(f"{row.k:>3}" + "".join(f"  {_fmt(x):>18}" for x in values))
    return 0


# ---------------------------------------------------------------------------
# qnum

def _cmd_qnum(args: argparse.Namespace) -> int:
    _check_size("--max", args.max_k, 0)
    ctx = QuantumContext(args.delta)
    values = ctx.qints(args.max_k)
    if args.format == "json":
        print(_json({"delta": ctx.delta, "values": values}))
    else:
        print(" ".join(_fmt(v) for v in values))
    return 0


# ---------------------------------------------------------------------------
# the grammar

class _Option(NamedTuple):
    """A ``--flag value`` option: its argparse ``add_argument`` keywords.

    ``help`` is plain text, which argparse formats with the option's
    keywords, so ``%(default)g`` shows the default that ``_parse_plain``
    gives too.
    """

    flag: str
    dest: str
    type: Callable[[str], Any] = str
    required: bool = False
    default: Any = None
    choices: tuple[str, ...] | None = None
    help: str | None = None


class _Command(NamedTuple):
    """A command: its handler, its help and its options, in the order of its ``--help``.

    ``one_of`` is a required group of options of which exactly one is given;
    ``files`` takes one or more FILE positionals into ``files``.
    """

    handler: Callable[[argparse.Namespace], int]
    help: str
    options: tuple[_Option, ...]
    one_of: tuple[_Option, ...] = ()
    files: bool = False


_FORMAT = _Option("--format", "format", default="text", choices=("text", "json"))

#: The command-line grammar, which ``_parse_plain`` reads and ``build_parser`` builds.
_COMMANDS = {
    "check": _Command(
        _cmd_check,
        "run the obstruction battery on graph pair files",
        (
            _FORMAT,
            _Option("--tol", "tol", float, default=DEFAULT_TRACE_TOL,
                    help="tolerance for obstruction verdicts (default %(default)g)"),
        ),
        files=True,
    ),
    "ratios": _Command(
        _cmd_ratios,
        "tabulate admissible dimension ratios",
        (_FORMAT, _Option("--n", "n", int, True, help=f"arm depth (even, >= 2, at most {SIZE_LIMIT})")),
        one_of=(
            _Option("--delta", "delta", float, help="graph norm (>= 2)"),
            _Option("--index", "index", float, help="index delta^2 (>= 4)"),
        ),
    ),
    "matrix": _Command(
        _cmd_matrix,
        "print the branch matrix, phases and lambda",
        (
            _FORMAT,
            _Option("--n", "n", int, True, help=f"arm depth (at most {SIZE_LIMIT})"),
            _Option("--delta", "delta", float, True),
            _Option("--p", "p", float, True),
            _Option("--q", "q", float, True),
        ),
    ),
    "qnum": _Command(
        _cmd_qnum,
        "print quantum integers",
        (
            _FORMAT,
            _Option("--delta", "delta", float, True),
            _Option("--max", "max_k", int, True, help=f"largest k (at most {SIZE_LIMIT})"),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``_COMMANDS``; ``main`` needs it only for help and usage errors."""
    from . import usage  # here, not at start-up: it loads argparse, gettext and locale

    return usage.build_parser(_COMMANDS)


def _parse_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse would give ``argv`` in the plain form, else None.

    The plain form is the command first, then each option spelled in full
    as its own token, followed by a value that does not start with ``-``,
    and for ``check`` its files in one run; each value is converted by its
    option's type and is among its choices, and every required option and
    one option of a ``one_of`` group is given.  Anything else, help and
    usage errors included, returns None and is argparse's to answer.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {option.flag: option for option in (*command.options, *command.one_of)}
    values: dict[str, Any] = {}
    files: list[str] = []
    files_closed = False  # an option came after the files
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if not command.files or files_closed:
                return None
            files.append(token)
            continue
        files_closed = bool(files)
        option = options.get(token)
        value = next(tokens, "-")  # a flag with no value is not plain either
        if option is None or value.startswith("-"):
            return None
        try:
            value = option.type(value)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value  # the last one given wins, as in argparse
    if (command.files and not files
            or any(option.required and option.dest not in values for option in command.options)
            or command.one_of and sum(option.dest in values for option in command.one_of) != 1):
        return None
    args = SimpleNamespace(command=argv[0])
    for option in options.values():
        setattr(args, option.dest, values.get(option.dest, option.default))
    if command.files:
        args.files = files
    args.handler = command.handler
    return args


def main(argv: Sequence[str] | None = None, *, may_fork: bool = False) -> int:
    """Run one command; its exit status.  It forks only with ``may_fork``, which ``run`` sets.

    A request in the plain form is parsed here, anything else by argparse,
    which prints help and usage errors and exits; both give the same namespace.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    args.may_fork = may_fork  # only check reads it
    try:
        return args.handler(args)
    except TripointError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _warn(message: str) -> None:
    """Print ``message`` on stderr, unless stderr cannot be written either."""
    try:
        if sys.stderr is not None:
            print(message, file=sys.stderr)
    except OSError:
        pass


def _unwritten(exc: OSError) -> int:
    """Exit status 2 for output that could not be written: silent when the reader has gone."""
    if not isinstance(exc, BrokenPipeError):
        _warn(f"cannot write output: {exc}")
    return 2


def _bytes_as_given(exc: UnicodeEncodeError) -> tuple[str | bytes, int]:
    """The error handler of ``run``'s stdout and stderr, for one character they cannot encode.

    An escaped byte (U+DC80 to U+DCFF), as ``surrogateescape`` and so
    ``check._shown`` decode a name's bytes under an encoding that is a
    superset of ASCII, is written as that byte; anything else is
    backslash-escaped, as ``backslashreplace`` writes it.
    """
    c = exc.object[exc.start]
    if "\udc80" <= c <= "\udcff":
        return bytes([ord(c) - 0xDC00]), exc.start + 1
    return c.encode("ascii", "backslashreplace").decode(), exc.start + 1


def run() -> NoReturn:
    """Run ``main`` as the whole process, then end it at once.

    The ``tripoint`` console script and ``python -m tripoint.cli`` both come
    here.  Nothing escapes as exit 1, which reads as an exclusion: a stdout
    pipe whose reader has gone exits 2 silently, any other failure to write
    the output exits 2 with one stderr line, and a crash exits 2 with its
    traceback; argparse keeps its own status.  A file name prints as the
    bytes given, as ``ls`` prints it, in a report and in an error line
    alike, under any output encoding that is a superset of ASCII and also
    when they are not valid UTF-8: ``check._shown`` decodes the name's
    bytes for each stream, and both streams write an escaped byte back as
    that byte with the one error handler ``_bytes_as_given``.  Once stdout and
    stderr are flushed, ``os._exit`` skips the teardown of every module and
    object, which would cost a short process about a tenth of its time; no
    ``atexit`` hook runs.

    ``run`` also lets a large ``check`` batch fork a worker for each further
    CPU (see ``tripoint.workers``).  A worker prints nothing: it sends the
    outcomes of its files back, and this process writes them in file order
    with the same writer as its own, so the output and the exit status, a
    worker's crash included, are those of one process.  ``main`` called
    without ``may_fork`` never forks.
    """
    codecs.register_error(_BYTES_AS_GIVEN, _bytes_as_given)
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started without it
            stream.reconfigure(errors=_BYTES_AS_GIVEN)
    try:
        status = main(may_fork=True)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        status = exc.code
    except OSError as exc:  # writing the output failed
        status = _unwritten(exc)
    except Exception:
        import traceback  # here, not at start-up: it loads tokenize

        _warn(traceback.format_exc().rstrip("\n"))
        status = 2
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        status = _unwritten(exc)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(status)


if __name__ == "__main__":
    run()
