"""The ``check`` command: each file becomes one outcome, and one writer prints outcomes.

``cli`` loads this module only for ``check``, so no other command compiles
the renderers.  ``check`` makes each file one outcome, a status and a line,
and prints nothing; ``_write_outcomes`` alone prints outcomes, on stdout for
a report and on stderr for a file's error, and combines their statuses.  A
batch that forks (``tripoint.workers``) sends its workers' outcomes to the
same writer, so the output and exit status are those of one process.
"""

from __future__ import annotations

import codecs
import os
import sys
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from .common import _BYTES_AS_GIVEN, _fmt, _json_num, _json_str
from .errors import TripointError

if TYPE_CHECKING:
    import argparse

    from .obstruct import ObstructionReport


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
    and 2 with the file's error, printed on stderr.  A line that its
    stream cannot encode, as a strict stream of an in-process caller of
    ``main`` cannot encode a name that is not UTF-8, is printed with what
    it cannot encode backslash-escaped; ``run``'s streams never refuse one.
    """
    worst = 0
    for status, line in outcomes:
        stream = sys.stderr if status == 2 else sys.stdout
        try:
            print(line, file=stream)
        except UnicodeEncodeError:  # nothing of the line was written: it is encoded whole
            print(line.encode(stream.encoding, "backslashreplace").decode(stream.encoding), file=stream)
        worst = max(worst, status)
    return worst


def _cmd_check(args: argparse.Namespace) -> int:
    # here, not at start-up: no other command needs them
    from .obstruct import _check_tol, run_battery

    _check_tol(args.tol)  # once, before any file is read or the graph layer is compiled
    from .graph import parse_pair

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
                report = run_battery(*parse_pair(text), tol=args.tol)
            except TripointError as exc:  # not ValueError: from here on, that is a bug
                failure = exc
            else:
                return int(report.has_failure), render(path, report)
        return 2, f"{_shown(path, sys.stderr)}: {failure}"

    if not args.may_fork or len(args.files) == 1:
        return _write_outcomes(map(check, args.files))
    from .workers import check_batch  # here, not at start-up: only a batch may fork

    return check_batch(check, args.files, _write_outcomes)
