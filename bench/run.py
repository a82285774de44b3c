"""The tripoint benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It generates the workload's inputs from
the seed, runs the program from ``src/`` in fresh processes for S seconds,
checks every output against the independent oracle in ``oracle.py`` and
prints a table of metrics followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones,
from a run that alternates untraced invocations with invocations made
through ``spans.py``.  A result file with the environment and every sample
count goes to ``.bench_work/results/``.

Workloads (see ``generate.WHY``): ``enum-batch`` and ``near-index-4`` run one
``check --format json`` process over a whole corpus, repeatedly; ``cold-cli``
is a closed loop with one client, one fresh process per request, and makes
at least 100 requests however long they take.  No workload uses
``check --parallel``.  Inputs that crash the program with a
traceback (non-UTF-8 files, ``ratios`` overflow near n = 1000) are left out
of every mix: one traceback aborts a whole batch and would void its metrics.

End-to-end metrics, all from untraced invocations of the window, with every
time scaled to a reference host speed (below):

- ``pairs_per_s``: pairs in one batch over the median batch wall time; for
  cold-cli, one over the median wall time of its one-pair ``check`` requests.
- ``invocation_ms_p50`` / ``_p90``: wall time of one process, start-up
  included (a whole batch in the batch workloads).
- ``setup_s``: median wall time of a fresh ``python -c "import tripoint.cli"``.
- ``peak_rss_mb``: largest ``ru_maxrss`` that ``wait4`` reports for a child.

Host speed.  A shared host's speed drifts by 20-40% over minutes, for any
process alike, so raw wall times of two runs made minutes apart differ by
more than a regression worth catching.  Each untraced run therefore
interleaves the fixed job ``reference.py`` (which never imports tripoint)
with the program's invocations and multiplies each wall time it reports by
``REFERENCE_NOMINAL_S`` over the median of the reference runs right before
and after it (``HostClock``): times read as they would on a host where the
reference takes its nominal 0.2 s.  The raw times, the reference times and
the factors are kept in the result file.

``failed / attempted`` in the result line is the share of operations (pairs,
or requests) whose exit code, verdicts, numbers or rejection disagree with
the oracle; it is not a metric because it must read 0.  Per-layer metrics
are defined in ``spans.LayerTotals.metrics`` and ``startup_probes``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import generate
import oracle
import spans

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("enum-batch", "near-index-4", "cold-cli")
SETUP_REPEATS = 9
STARTUP_REPEATS = 7
CHILD_TIMEOUT_S = 60.0
#: cold-cli reports a p90 wall time, which needs ten samples beyond it
MIN_INVOCATIONS = {"cold-cli": 100}
REFERENCE = HERE / "reference.py"
#: the reference job's wall time on the host the figures are scaled to
REFERENCE_NOMINAL_S = 0.2
#: reference runs per program invocation: the reference takes about a fifth
#: of each untraced run
REFERENCES_PER_INVOCATION = {"enum-batch": 3.0, "near-index-4": 3.0, "cold-cli": 0.5}


@dataclass
class Outcome:
    code: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


class Runner:
    """Starts one child at a time from the checkout root and reaps it with wait4."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, argv: list[str]) -> Outcome:
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, wall, usage.ru_maxrss,
                       out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "tripoint.cli", *argv]


def traced_cli(argv: list[str], spans_out: Path) -> list[str]:
    return [sys.executable, str(HERE / "spans.py"), str(spans_out), *argv]


# ---------------------------------------------------------------------------
# workloads: inputs, expected outputs and the operations of one invocation

@dataclass
class Job:
    """One invocation: its argv and the oracle's expectation for each of its ops.

    ``files`` lists the pair files of a ``check`` batch, in order; it is None
    for a single request, whose whole stdout is one JSON object.
    """

    argv: list[str]
    expected: list[oracle.Expected]
    files: list[str] | None
    pairs: int

    @property
    def ops(self) -> int:
        return len(self.expected)

    def failed(self, out: Outcome) -> int:
        if self.files is not None:
            return oracle.score_check(self.files, self.expected, out.stdout, out.stderr, out.code)
        return int(not oracle.score_request(self.expected[0], out.stdout, out.code))


def build_jobs(workload: str, seed: int, inputs: Path, scale: float = 1.0) -> tuple[list[Job], dict]:
    """Write the workload's inputs under ``inputs``; return its invocations and manifest."""
    size = max(1, round(generate.SIZES[workload] * scale))
    if workload == "cold-cli":
        requests = generate.cold_cli(seed, size)
        cases = [r.params["case"] for r in requests if r.kind == "check"]
    else:
        make = generate.enum_batch if workload == "enum-batch" else generate.near_index_4
        cases = make(seed, max(5, size))
    manifest = generate.describe(cases)
    manifest["why"] = generate.WHY[workload]
    paths = {}
    for case in cases:
        path = inputs / case.name
        path.write_text(case.text)
        paths[case.name] = str(path.relative_to(ROOT))
    expected = {c.name: oracle.expect_pair(c, paths[c.name]) for c in cases}
    manifest["near_boundary_pairs"] = sum(e.verdict_free for e in expected.values())

    if workload != "cold-cli":
        files = [paths[c.name] for c in cases]
        job = Job(["check", "--format", "json", *files], [expected[c.name] for c in cases],
                  files, len(cases))
        return [job], manifest

    jobs = []
    for req in requests:
        if req.kind == "check":
            case = req.params["case"]
            jobs.append(Job([*req.argv, paths[case.name]], [expected[case.name]], None, 1))
            continue
        jobs.append(Job(req.argv, [oracle.expect_request(req)], None, 0))
    manifest["requests"] = {k: sum(r.kind == k for r in requests)
                            for k in ("check", "ratios", "matrix", "qnum")}
    return jobs, manifest


# ---------------------------------------------------------------------------
# measurement

def startup_probes(runner: Runner) -> dict[str, list[float]]:
    """Bare interpreter start-up and ``-X importtime`` figures, in ms."""
    interp, numpy_ms, tripoint_ms = [], [], []
    for _ in range(STARTUP_REPEATS):
        interp.append(runner.run([sys.executable, "-c", "pass"]).wall_s * 1e3)
        out = runner.run([sys.executable, "-X", "importtime", "-c", "import tripoint.cli"])
        numpy_us = own_us = 0  # numpy stays 0 if tripoint.cli no longer imports it
        for line in out.stderr.splitlines():
            fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
            if len(fields) != 3 or not fields[0].isdigit():
                continue
            if fields[2] == "numpy":
                numpy_us = int(fields[1])
            if fields[2].split(".")[0] == "tripoint":
                own_us += int(fields[0])
        numpy_ms.append(numpy_us / 1e3)
        tripoint_ms.append(own_us / 1e3)
    return {"startup.interpreter_ms": interp, "startup.numpy_import_ms": numpy_ms,
            "startup.tripoint_import_ms": tripoint_ms}


class HostClock:
    """Times processes between runs of the reference job, to scale out host drift.

    The host's speed holds for a second or two and then moves, so a sample is
    scaled by the reference runs right before and right after it, not by a
    whole run's: ``wall * REFERENCE_NOMINAL_S / median(those references)``.
    """

    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self.events: list[tuple[str, float]] = []  # ("ref" | "sample", wall seconds)

    def reference(self) -> None:
        out = self.runner.run([sys.executable, str(REFERENCE)])
        if out.code != 0:
            raise RuntimeError(f"the reference job failed:\n{out.stderr}")
        self.events.append(("ref", out.wall_s))

    @property
    def references(self) -> list[float]:
        return [wall for kind, wall in self.events if kind == "ref"]

    def sample(self, wall_s: float) -> int:
        self.events.append(("sample", wall_s))
        return len(self.events) - 1

    def scale(self, index: int) -> float:
        """The factor for the sample at ``index``, from its neighbouring reference runs."""
        near = []
        for step in (-1, 1):
            j = index + step
            while 0 <= j < len(self.events) and self.events[j][0] != "ref":
                j += step
            while 0 <= j < len(self.events) and self.events[j][0] == "ref":
                near.append(self.events[j][1])
                j += step
        return REFERENCE_NOMINAL_S / statistics.median(near)


def end_to_end_metrics(workload: str, jobs: list[Job], plain: list[tuple[Job, Outcome]],
                       walls: list[float], setup: list[float]):
    """The end-to-end metrics from scaled invocation and setup wall times."""
    if workload == "cold-cli":
        pair_walls = [wall for (job, _), wall in zip(plain, walls) if job.pairs]
        pairs_per_s = 1.0 / statistics.median(pair_walls)
    else:
        pair_walls = walls
        pairs_per_s = jobs[0].pairs / statistics.median(walls)
    metrics = {
        "pairs_per_s": (pairs_per_s, "1/s"),
        "invocation_ms_p50": (statistics.median(walls) * 1e3, "ms"),
        "invocation_ms_p90": (float(np.percentile(walls, 90)) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(out.maxrss_kb for _, out in plain) / 1024.0, "MB"),
    }
    samples = {"pairs_per_s": len(pair_walls), "invocation_ms_p50": len(walls),
               "invocation_ms_p90": len(walls), "setup_s": len(setup), "peak_rss_mb": len(walls)}
    return metrics, samples, {}


def layer_metrics(totals: spans.LayerTotals, probes: dict[str, list[float]],
                  walls: list[float], traced: list[tuple[Job, Outcome]]):
    metrics, samples, bases = {}, {}, {}
    for name, (value, unit, base, base_name) in totals.metrics().items():
        metrics[name] = (value, unit)
        samples[name] = len(traced)
        bases[name] = f"{base} {base_name}"
    for name, values in probes.items():
        metrics[name] = (statistics.median(values), "ms")
        samples[name] = len(values)
        bases[name] = f"{len(values)} processes"
    traced_walls = [out.wall_s for _, out in traced]
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls) / statistics.median(walls) - 1.0,
                                      "frac")
    samples["trace.overhead_frac"] = len(traced)
    bases["trace.overhead_frac"] = f"{len(walls)} untraced and {len(traced)} traced invocations"
    return metrics, samples, bases


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload; returns the result record printed and written out."""
    scratch = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "inputs").mkdir(parents=True)
    runner = Runner(scratch)
    jobs, manifest = build_jobs(workload, seed, scratch / "inputs", scale)

    clock = HostClock(runner)
    runner.run([sys.executable, "-c", "import tripoint.cli"])  # fill the bytecode cache
    setup_at: list[int] = []  # clock indices of the setup samples
    if not trace:
        runner.run([sys.executable, str(REFERENCE)])  # fill the reference's caches too
        if workload == "cold-cli":  # warm each request kind once, untimed
            for job in jobs[:4]:
                runner.run(cli(job.argv))
        for _ in range(SETUP_REPEATS):
            clock.reference()
            setup_at.append(clock.sample(
                runner.run([sys.executable, "-c", "import tripoint.cli"]).wall_s))
    probes = startup_probes(runner) if trace else {}
    rate = REFERENCES_PER_INVOCATION[workload]
    plain_at: list[int] = []  # clock indices of the untraced invocations

    plain: list[tuple[Job, Outcome]] = []
    traced: list[tuple[Job, Outcome]] = []
    totals = spans.LayerTotals()
    mismatched = 0
    rounds: list[float] = []  # wall time of each pass through the loop
    least = 1 if trace else MIN_INVOCATIONS.get(workload, 1)
    t0 = time.perf_counter()
    # past the minimum, start a round only if a typical one still ends inside the window
    while len(rounds) < least or (time.perf_counter() - t0
                                  + statistics.median(rounds[-len(jobs):]) < seconds):
        start = time.perf_counter()
        job = jobs[len(rounds) % len(jobs)]
        while not trace and len(clock.references) < SETUP_REPEATS + rate * (len(plain) + 1):
            clock.reference()
        out = runner.run(cli(job.argv))
        plain.append((job, out))
        plain_at.append(clock.sample(out.wall_s))
        if trace:
            spans_out = scratch / "spans.json"
            spans_out.unlink(missing_ok=True)
            out_t = runner.run(traced_cli(job.argv, spans_out))
            traced.append((job, out_t))
            try:
                totals.add(json.loads(spans_out.read_text()), job.ops)
                same = (out_t.code, out_t.stdout) == (out.code, out.stdout)
            except (OSError, json.JSONDecodeError):
                same = False  # the traced run died before writing its spans
            mismatched += 0 if same else job.ops
        rounds.append(time.perf_counter() - start)
    window = time.perf_counter() - t0
    if not trace:
        clock.reference()  # the last invocation's right-hand neighbour

    attempted = failed = 0
    for job, out in plain + traced:
        attempted += job.ops
        failed += job.failed(out)
    failed = min(attempted, failed + mismatched)

    walls = [out.wall_s for _, out in plain]
    scales = [clock.scale(i) for i in plain_at] if not trace else []
    setup = [clock.events[i][1] for i in setup_at]
    if trace:
        metrics, samples, bases = layer_metrics(totals, probes, walls, traced)
        if metrics["graph.reject_frac"][0] != manifest["reject_share"]:
            failed = attempted  # the traced run saw another mix than was generated
    else:
        metrics, samples, bases = end_to_end_metrics(
            workload, jobs, plain, [wall * k for wall, k in zip(walls, scales)],
            [clock.events[i][1] * clock.scale(i) for i in setup_at])

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "ops_differing_traced_vs_untraced": mismatched,
        "window_s": window, "invocations": len(plain) + len(traced),
        "metrics": metrics, "samples": samples, "bases": bases,
        "time_scale": statistics.median(scales) if scales else 1.0,
        "invocation_scale": scales,
        "raw_s": {"invocation": walls, "setup": setup, "reference": clock.references,
                  "traced_invocation": [o.wall_s for _, o in traced]},
        "manifest": manifest,
    }


# ---------------------------------------------------------------------------
# environment record and output

def environment(load_start: tuple[float, float, float]) -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tripoint" / "cli.py").is_file():
        print(f"no tripoint sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["environment"] = environment(load_start)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=2, default=float) + "\n")

    print(f"{args.workload} seed {args.seed}: {result['attempted']} ops, {result['failed']} failed"
          f" (failed_frac {result['failed_frac']:.4g}),"
          f" {result['manifest']['near_boundary_pairs']} near-boundary pairs compared on numbers only")
    if result["raw_s"]["reference"]:
        refs = result["raw_s"]["reference"]
        print(f"  reference job: median {statistics.median(refs):.4f} s of {len(refs)} runs"
              f" (nominal {REFERENCE_NOMINAL_S} s); times below are scaled by a median {result['time_scale']:.4f}")
    for metric, (value, unit) in result["metrics"].items():
        base = result["bases"].get(metric)
        print(f"  {metric:<36} {value:>14.6g} {unit:<10} n={result['samples'][metric]}"
              + (f"  per {base}" if base else ""))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
