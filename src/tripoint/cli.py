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
with exit 1.  ``check`` makes each file one outcome, a status and a line,
and one writer, ``_write_outcomes``, prints them and combines their
statuses.  ``run`` is the process entry: under it a report on stdout and
an error line on stderr print a file name as the bytes given, under any
output encoding that is a superset of ASCII and also when they are not
valid UTF-8; it turns what escapes ``main`` into exit 2 and ends the
process without interpreter teardown; it alone lets a large ``check``
batch fork (``tripoint.workers``), whose workers send back outcomes for
the same writer, so the output and exit status are those of one
process.  Each command imports only what it runs: ``check`` alone loads
the graph layer, ``check`` and ``ratios`` alone the obstruction tests
and ``matrix`` alone the branch matrix, so start-up loads none of them.
Nor does any command load the ``json`` package, whose decoder no
command needs: ``_json`` and ``_render_report_json`` write the bytes of
``json.dumps`` with ``allow_nan=False``.

The grammar is the table ``_COMMANDS``.  ``main`` reads a request in its
plain form (see ``_parse_plain``) itself, so a well-formed request never
loads ``argparse``, with its ``gettext`` and ``locale``; any other argv
goes to the argparse parser that ``build_parser`` makes from the same
table, which prints help and usage errors.
"""

from __future__ import annotations

import codecs
import math
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, NamedTuple, NoReturn

from .errors import InvalidArgument, NoUnitaryPhase, TripointError, UnsupportedIndex
from .qnum import NUMERIC_TOL, QuantumContext

if TYPE_CHECKING:
    import argparse

    from .obstruct import ObstructionReport

#: Largest ``qnum --max``, ``ratios --n`` and ``matrix --n``; far above any
#: arm depth, and small enough to compute and print at once even at delta = 2,
#: where no [k] overflows.
SIZE_LIMIT = 10_000


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


# ---------------------------------------------------------------------------
# JSON, written as ``json.dumps(value, allow_nan=False)`` writes it, with
# every float rounded to the 12 significant digits that the text prints;
# importing the ``json`` package would cost start-up more than all of this

#: The escapes of ``json.dumps`` that are not ``\uXXXX``.
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(c: str) -> str:
    """The character ``c`` inside a JSON string, in ASCII as ``json.dumps`` writes it."""
    if c in _ESCAPES:
        return _ESCAPES[c]
    if " " <= c <= "~":
        return c
    code = ord(c)
    if code > 0xFFFF:  # a UTF-16 surrogate pair
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"  # a lone surrogate too, such as \udcff from a name that is not UTF-8


def _json_str(s: str) -> str:
    """``s`` as a JSON string."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(map(_escape, s)) + '"'


def _json_num(x: float) -> str:
    """``x`` rounded to 12 significant digits as a JSON number; NaN and infinities raise ``ValueError``."""
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return repr(float(f"{x:.12g}"))


def _json(value: Any) -> str:
    """``value``, of None, ints, floats, strings, lists and dicts keyed by strings, as JSON."""
    if isinstance(value, float):
        return _json_num(value)
    if type(value) is int:
        return repr(value)
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_json_str(key)}: {_json(item)}" for key, item in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json, value)) + "]"
    raise TypeError(f"{type(value).__name__} is not written as JSON")


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


# ---------------------------------------------------------------------------
# check

def _render_report_json(path: str, report: ObstructionReport) -> str:
    """The report as ``_json`` writes it, from a template: many pairs are rendered per process."""
    num = _json_num
    # test names and verdicts are ASCII identifiers of ``obstruct``: nothing to escape
    verdicts = ", ".join(f'"{name}": "{verdict.value}"' for name, verdict in report.verdicts.items())
    roots = ", ".join(f'{{"k": {c.k:d}, "distance": {num(c.distance)}}}' for c in report.root_candidates)
    return (
        f'{{"file": {_json_str(path)}, "n": {report.n:d}, "delta": {num(report.delta)},'
        f' "p": {num(report.p)}, "q": {num(report.q)}, "r": {num(report.r)},'
        f' "lambda_trace": {num(report.lambda_trace)}, "verdicts": {{{verdicts}}},'
        f' "root_candidates": [{roots}], "tol": {num(report.tol)}}}'
    )


#: The error handler that ``run`` sets on stdout and stderr (see ``_bytes_as_given``).
_BYTES_AS_GIVEN = "tripoint.bytes_as_given"


def _shown(path: str, stream: Any) -> str:
    """``path`` as ``stream`` prints a file name: under ``run``, the name's own bytes.

    Only a stream whose error handler is ``run``'s writes an escaped byte
    back as that byte; there, under an encoding that is a superset of
    ASCII, each byte that the encoding cannot decode becomes such an
    escaped byte.  Under any other encoding (UTF-16), and for a name that
    is no bytes at all (a lone surrogate), the name's surrogates are
    backslash-escaped instead.  Any other stream gets ``path`` as it is.
    """
    if getattr(stream, "errors", None) != _BYTES_AS_GIVEN:
        return path
    if "a".encode(stream.encoding) == b"a":
        try:
            return os.fsencode(path).decode(stream.encoding, "surrogateescape")
        except UnicodeError:  # a lone surrogate: fsencode refuses it
            pass
    return path.encode("utf-8", "backslashreplace").decode()


def _render_report_text(path: str, report: ObstructionReport) -> str:
    lines = [
        f"file: {_shown(path, sys.stdout)}",
        f"  n = {report.n}   delta = {_fmt(report.delta)}",
        f"  p = {_fmt(report.p)}   q = {_fmt(report.q)}   r = {_fmt(report.r)}",
        f"  lambda + 1/lambda = {_fmt(report.lambda_trace)}",
        "  verdicts:",
    ]
    for name, verdict in report.verdicts.items():
        lines.append(f"    {name:<18} {verdict.value}")
    lines.append("  root candidates (k, |trace - 2cos(2 pi k/n)|):")
    for cand in report.root_candidates:
        lines.append(f"    k={cand.k:<3d} {cand.distance:.3e}")
    lines.append(f"  tol = {_fmt(report.tol)}")
    return "\n".join(lines)


def _write_outcomes(outcomes: Iterable[tuple[int, str]]) -> int:
    """Print each outcome as it comes, on its stream; the worst status, 0 for none.

    An outcome is what ``check`` makes of one file: a status and the line
    that reports it.  Status 0 or 1 goes with a report, printed on stdout,
    and 2 with the file's error, printed on stderr.
    """
    worst = 0
    for status, line in outcomes:
        print(line, file=sys.stderr if status == 2 else sys.stdout)
        worst = max(worst, status)
    return worst


def _cmd_check(args: argparse.Namespace) -> int:
    # here, not at start-up: no other command needs them
    from .graph import parse_pair
    from .obstruct import DEFAULT_TRACE_TOL, _check_tol, run_battery

    tol = DEFAULT_TRACE_TOL if args.tol is None else args.tol
    _check_tol(tol)  # once, before any file is read
    render = _render_report_json if args.format == "json" else _render_report_text

    def check(path: str) -> tuple[int, str]:
        """The outcome of one file; it prints nothing."""
        try:
            with open(path, "rb") as fh:
                text = fh.read().removeprefix(codecs.BOM_UTF8).decode()
        except (OSError, ValueError) as exc:  # ValueError: a name open() refuses, or not UTF-8
            failure: Exception = exc
        else:
            try:
                report = run_battery(*parse_pair(text), tol=tol)
            except TripointError as exc:  # not ValueError: from here on, that is a bug
                failure = exc
            else:
                return int(report.has_failure), render(path, report)
        return 2, f"{_shown(path, sys.stderr)}: {failure}"

    if not args.may_fork or len(args.files) == 1:
        return _write_outcomes(map(check, args.files))
    from .workers import check_batch  # here, not at start-up: only a batch may fork

    return check_batch(check, args.files, _write_outcomes)


def _check_size(flag: str, value: int, least: int, even: bool = False) -> None:
    """Raise ``InvalidArgument``, naming ``flag``, when ``value`` is out of its command's range.

    The range is ``least..SIZE_LIMIT``, even numbers only where ``even``.
    The library functions keep their own checks; these word the refusal by
    the flag as given.
    """
    if value > SIZE_LIMIT:
        raise InvalidArgument(f"{flag} {value} exceeds the limit of {SIZE_LIMIT}")
    if value < least or even and value % 2:
        raise InvalidArgument(f"{flag} {value} must be {'even and ' if even else ''}>= {least}")


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
# matrix

def _cmd_matrix(args: argparse.Namespace) -> int:
    from .branch import build_branch_matrix  # here, not at start-up: no other command needs it

    _check_size("--n", args.n, 2)
    ctx = QuantumContext(args.delta)
    try:
        matrix = build_branch_matrix(ctx, args.n, args.p, args.q)
    except NoUnitaryPhase:
        print("no unitary phase: p - q > 1")
        return 1
    trace = 2.0 * matrix.lam.real
    if args.format == "json":
        payload = {
            "n": args.n,
            "delta": ctx.delta,
            "p": args.p,
            "q": args.q,
            "entries": [
                [None if z is None else _complex_dict(z) for z in row]
                for row in matrix.entries
            ],
            "sigma": _complex_dict(matrix.sigma),
            "tau": _complex_dict(matrix.tau),
            "lambda": _complex_dict(matrix.lam),
            "lambda_trace": trace,
        }
        print(_json(payload))
    else:
        print(
            f"branch matrix for n = {args.n}, delta = {_fmt(ctx.delta)},"
            f" p = {_fmt(args.p)}, q = {_fmt(args.q)}"
        )
        cells = [
            ["?" if z is None else _fmt(z.real) if abs(z.imag) <= NUMERIC_TOL else _fmt_complex(z) for z in row]
            for row in matrix.entries
        ]
        width = max(len(c) for row in cells for c in row)
        for row in cells:
            print("  [ " + "   ".join(c.ljust(width) for c in row) + " ]")
        print(f"sigma  = {_fmt_complex(matrix.sigma)}")
        print(f"tau    = {_fmt_complex(matrix.tau)}")
        print(f"lambda = {_fmt_complex(matrix.lam)}")
        print(f"lambda + 1/lambda = {_fmt(trace)}")
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

    A ``help`` that is a function is called for the text, only when the
    argparse parser is built.
    """

    flag: str
    dest: str
    type: Callable[[str], Any] = str
    required: bool = False
    default: Any = None
    choices: tuple[str, ...] | None = None
    help: str | Callable[[], str] | None = None


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


def _tol_help() -> str:
    """The help of ``check --tol``: a ``--tol`` left out is ``None``, which is ``obstruct``'s default."""
    from .obstruct import DEFAULT_TRACE_TOL

    return f"tolerance for obstruction verdicts (default {DEFAULT_TRACE_TOL:g})"


_FORMAT = _Option("--format", "format", default="text", choices=("text", "json"))

#: The command-line grammar, which ``_parse_plain`` reads and ``build_parser`` builds.
_COMMANDS = {
    "check": _Command(
        _cmd_check,
        "run the obstruction battery on graph pair files",
        (
            _FORMAT,
            _Option("--tol", "tol", float, help=_tol_help),
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
    import argparse  # here, not at start-up: it loads gettext and locale

    parser = argparse.ArgumentParser(
        prog="tripoint",
        description="Triple point obstruction checks for candidate principal graph pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p_command = sub.add_parser(name, help=command.help)
        groups = [(p_command, command.options)]
        if command.one_of:
            groups.append((p_command.add_mutually_exclusive_group(required=True), command.one_of))
        for group, options in groups:
            for option in options:
                keywords = option._asdict()
                if callable(option.help):
                    keywords["help"] = option.help()
                group.add_argument(keywords.pop("flag"), **keywords)
        if command.files:
            p_command.add_argument("files", nargs="+", metavar="FILE")
        p_command.set_defaults(handler=command.handler)
    return parser


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
    ``_shown`` decode a name's bytes under an encoding that is a superset
    of ASCII, is written as that byte; anything else is backslash-escaped,
    as ``backslashreplace`` writes it.
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
    when they are not valid UTF-8: ``_shown`` decodes the name's bytes for
    each stream, and both streams write an escaped byte back as that byte
    with the one error handler ``_bytes_as_given``.  Once stdout and
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
