"""Output gate: every benchmark request of seeds 101-110, run through ``tripoint.cli.main``.

    python3 tests/output_gate.py [--src DIR] [--out FILE]

It builds the inputs of seeds 101 to 110 with ``bench/generate.py``, whose
inputs never depend on the program, and runs in one process:

- every enum-batch and near-index-4 pair alone, as ``check FILE`` and as
  ``check --format json FILE``;
- every cold-cli request (check, ratios, matrix, qnum) as generated, in
  JSON, and again without ``--format json``, in text.

That is 4,120 requests.  For each it records the argv, the exit code and
the stdout and stderr, with the temporary directory of the pair files
replaced by ``<tmp>``; a request that raises records the exception instead.
It prints the request count, the count of each exit code and the sha256 of
the records, one JSON object per line, which ``--out FILE`` also writes.
Two checkouts that print the same digest answer every request alike,
byte for byte.  ``tests/output_gate.sha256`` holds the digest under Python
3.11, and CI fails on 3.11 when the printed one differs; a change that
alters output bytes on purpose updates that file.  ``--src DIR`` imports ``tripoint`` from DIR instead of this
checkout's ``src``, so that another checkout, such as a parent commit, can
be gated with the same inputs.  This file is not a test module; pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(101, 111)


def requests(generate, seed: int, tmp: Path):
    """The ``(workload, argv)`` of every gated request of one seed; writes its pair files."""

    def write(case) -> str:
        path = tmp / f"seed{seed}-{case.name}"
        path.write_text(case.text)
        return str(path)

    for workload, make in (("enum-batch", generate.enum_batch),
                           ("near-index-4", generate.near_index_4)):
        for case in make(seed, generate.SIZES[workload]):
            path = write(case)
            yield workload, ["check", path]
            yield workload, ["check", "--format", "json", path]
    for request in generate.cold_cli(seed, generate.SIZES["cold-cli"]):
        argv = list(request.argv)
        if request.kind == "check":
            argv.append(write(request.params["case"]))
        at = argv.index("--format")
        yield "cold-cli", argv
        yield "cold-cli", argv[:at] + argv[at + 2 :]


def run(main, argv: list[str], tmp: str) -> dict:
    """One request's record: exit code and output, or the exception it raised."""
    out, err = io.StringIO(), io.StringIO()
    record = {}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            record["code"] = main(argv)
        except (Exception, SystemExit) as exc:  # a crash is an output too
            record["raised"] = f"{type(exc).__name__}: {exc}"
    record.update(stdout=out.getvalue(), stderr=err.getvalue())
    return {key: value.replace(tmp, "<tmp>") if isinstance(value, str) else value
            for key, value in record.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the tripoint package (default: ./src)")
    parser.add_argument("--out", type=Path, help="write one JSON record per request here")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import generate
    from tripoint import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        parser.error(f"tripoint was imported from {cli.__file__}, not from {src}")

    digest, codes, lines = hashlib.sha256(), Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload, request in requests(generate, seed, Path(tmp)):
                record = run(cli.main, request, tmp)
                codes[record.get("code", "raised")] += 1
                line = json.dumps({"seed": seed, "workload": workload,
                                   "argv": [a.replace(tmp, "<tmp>") for a in request],
                                   **record}, sort_keys=True) + "\n"
                digest.update(line.encode())
                lines.append(line)
    if args.out is not None:
        args.out.write_text("".join(lines))
    print(f"requests: {len(lines)}")
    tally = sorted(codes.items(), key=lambda item: str(item[0]))
    print("exit codes: " + ", ".join(f"{code}: {count}" for code, count in tally))
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
