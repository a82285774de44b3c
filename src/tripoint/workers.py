"""Forked workers for a ``check`` batch.

Under ``cli.run``, ``check`` hands a batch of more than one file to
``check_batch``, the one place that decides, from what it can observe,
whether forking pays: it cuts the batch into chunks, checks a batch of
one chunk in this process alone, and in either case gives the output of
one process.  ``check`` turns one file into its outcome, a status and a
line, and prints nothing; ``check``'s writer alone prints outcomes and
combines their statuses.  A worker is forked after start-up and before
any file is read, checks its chunk with the same function as the parent,
and sends the outcomes and any crash over a pipe as one ``marshal``
message, then ends with ``os._exit``.  A worker writes nothing to fds 1
and 2 itself: anything ``check`` must say goes into its outcome.  The
parent ends each worker in one place: one whose message it has read to
the end is reaped in its turn, and any other is killed and reaped when
the batch ends.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable, Iterable, Iterator, NoReturn

#: ``check``: one file to its outcome, ``(status, line)``
Check = Callable[[str], tuple[int, str]]
#: the writer of outcomes, which returns their worst status
Write = Callable[[Iterable[tuple[int, str]]], int]


#: Pair-file bytes a ``check`` batch must have per process before it forks a
#: worker.  Measured in one process with Python 3.11 on 2 shared x86-64
#: vCPUs: a bare fork, ``os._exit`` and reap takes 1.3-1.8 ms, with about 225
#: minor page faults in the worker, and checking takes 0.22 us per byte on
#: the near-index-4 corpus (pairs of 30-300 vertices) and 0.45-0.50 us on
#: enum-batch's (6-30 vertices), so a 16 KiB share is 3.6-8 ms of work, two
#: to six bare forks' worth.  A whole forked batch costs more: on a 150-pair
#: enum-batch, 36-58 ms of CPU against 27-47 ms in one process, with 370-460
#: minor faults in the parent and 520-580 in the worker against 15-170.
#: Whether the worker runs beside its parent depends on the host's recent
#: load (60 alternating rounds, 2 vCPUs): on an idle host that 150-pair
#: batch took 90.4 ms wall and 88.9 ms CPU forked, the worker staying on the
#: parent's CPU, against 83.5 ms unforked; right after another CPU-bound job
#: it overlapped, 77.7 ms wall and 91.0 ms CPU against 81.2 ms; a 1,500-pair
#: batch overlapped on an idle host too, 292 ms wall and 501 ms CPU against
#: 420 ms.  The benchmark's own loop measures the forked batch faster on both
#: batch workloads: ``bench/run.py`` for 8 s on seeds 41-43 (Python 3.11.7,
#: 2 vCPUs) read 263/259/255 near-index-4 pairs/s against 241/236/237 with
#: this value raised to 2**40, and 1,464/1,407/1,459 enum-batch pairs/s
#: against 1,240/939/1,229.  So the value is kept, not tuned.  A one-file
#: check never forks.
FORK_MIN_BYTES = 16 * 1024


def _chunks(paths: list[str]) -> list[list[str]]:
    """``paths`` cut into contiguous runs of about equal bytes, one per process.

    Only a single-threaded process that can fork and read its CPU affinity
    cuts at all.  The number of runs is decided once, as the least of the
    CPUs it may run on, the files, and the batch's bytes over
    ``FORK_MIN_BYTES``; below two, the one run is the whole batch, on one
    CPU too.  Sizes come from ``stat``; a file that cannot be read counts as
    empty, and its error is reported in turn.
    """
    threading = sys.modules.get("threading")  # read, not imported: a fork copies one thread only
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading is not None and threading.active_count() > 1):
        return [paths]
    sizes = []
    for path in paths:
        try:
            sizes.append(os.stat(path).st_size)
        except (OSError, ValueError):  # ValueError: a name that stat() refuses
            sizes.append(0)
    total = sum(sizes)
    count = min(len(os.sched_getaffinity(0)), len(paths), total // FORK_MIN_BYTES)
    if count < 2:
        return [paths]
    chunks: list[list[str]] = [[] for _ in range(count)]
    start = 0
    for path, size in zip(paths, sizes):  # to the chunk whose share holds the file's middle byte
        chunks[min(count - 1, (2 * start + size) * count // (2 * total))].append(path)
        start += size
    return [chunk for chunk in chunks if chunk]


class WorkerCrash(Exception):
    """A forked ``check`` worker crashed; the message is its traceback."""


def _work(check: Check, paths: list[str], write_end: int, inherited: list[int]) -> NoReturn:
    """In a forked worker: send the outcomes of ``paths`` to ``write_end``.

    The message is ``marshal``ed: the list of outcomes, in file order, and
    the traceback of a crash, or None; a crash keeps the outcomes before
    it.  The worker closes the ``inherited`` read ends and ends with
    ``os._exit`` whatever happens, so it never returns into the parent's
    code and never flushes the streams it inherited; it exits 0 only once
    the whole message is written.
    """
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        outcomes: list[tuple[int, str]] = []
        try:
            outcomes.extend(map(check, paths))
            crash = None
        except Exception:
            import traceback

            crash = traceback.format_exc()
        message = memoryview(marshal.dumps((outcomes, crash)))
        while message:
            message = message[os.write(write_end, message):]
        code = 0
    finally:
        os._exit(code)


def check_batch(check: Check, paths: list[str], write: Write) -> int:
    """``write(map(check, paths))``: the chunks of ``paths`` after the first in forked workers.

    ``_chunks`` cuts ``paths``; with one chunk nothing forks and this
    process checks every file.  Otherwise this process checks the first
    chunk and a forked worker each other one.  ``write`` gets the outcomes
    of one process checking every chunk in turn: this process's own, as
    they come, then each worker's, in chunk order.  A chunk that cannot be
    forked is checked here, in its turn.

    A worker stays in ``workers`` until its pipe reads to its end; it is
    then reaped, and a non-zero status, say from a kill from outside, is a
    ``WorkerCrash``, as is a crash it reports, raised after the outcomes
    before it.  The ``finally`` is the one place that kills: whatever ends
    the batch early, each worker still in ``workers`` is killed and reaped
    there, so every worker is reaped before this returns or raises.
    """
    chunks = _chunks(paths)
    workers: dict[int, tuple[int, int]] = {}  # chunk index -> (pid, read end of its pipe)

    def outcomes() -> Iterator[tuple[int, str]]:
        for index, chunk in enumerate(chunks):
            if index not in workers:
                yield from map(check, chunk)
                continue
            pid, read_end = workers[index]
            blocks = []
            while block := os.read(read_end, 1 << 16):
                blocks.append(block)
            code = os.waitstatus_to_exitcode(_reap(*workers.pop(index)))
            if code != 0:  # it died before its message was whole, say killed from outside
                raise WorkerCrash(f"check worker {pid} ended with status {code} and no whole report")
            done, crash = marshal.loads(b"".join(blocks))
            yield from done
            if crash is not None:
                raise WorkerCrash(crash.rstrip("\n"))

    try:
        for index in range(1, len(chunks)):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                os.close(read_end)
                os.close(write_end)
                continue
            if pid == 0:
                inherited = [read_end, *(fd for _, fd in workers.values())]
                _work(check, chunks[index], write_end, inherited)
            os.close(write_end)
            workers[index] = (pid, read_end)
        return write(outcomes())
    finally:
        if workers:
            import signal  # only a batch that ends early needs it

            for pid, read_end in workers.values():
                os.kill(pid, signal.SIGKILL)
                _reap(pid, read_end)


def _reap(pid: int, read_end: int) -> int:
    """Close the worker's pipe and wait for it; its wait status.  Only ``check_batch``'s ``finally`` kills."""
    os.close(read_end)
    return os.waitpid(pid, 0)[1]
