"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

Run from the root of a checkout.  It makes a tiny traced run of every
workload (which also runs each invocation untraced) and requires that no
operation fails against the oracle, then corrupts expected outputs one at a
time and requires that the scoring catches each corruption, and checks that
``HostClock`` scales each sample by its neighbouring reference runs.  Exits 0
when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys

import run


def tiny_runs() -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        result = run.measure(workload, seed=0, seconds=3.0, trace=True, scale=0.1)
        print(f"{workload}: {result['attempted']} ops, failed_frac {result['failed_frac']}")
        if result["failed"] or not result["attempted"]:
            problems.append(f"{workload}: {result['failed']} of {result['attempted']} ops failed")
    return problems


def corruptions() -> list[str]:
    """Each corruption of an expected output must turn a passing op into a failed one."""
    scratch = run.WORK / "selfcheck"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "inputs").mkdir(parents=True)
    runner = run.Runner(scratch)
    problems = []

    [batch], _ = run.build_jobs("enum-batch", 0, scratch / "inputs", scale=0.1)
    out = runner.run(run.cli(batch.argv))
    if batch.failed(out):
        return ["enum-batch: the uncorrupted batch already fails"]
    accepted = next(i for i, e in enumerate(batch.expected) if e.payload and not e.verdict_free)
    rejected = next(i for i, e in enumerate(batch.expected) if e.payload is None)

    def verdict(e):
        e.payload["verdicts"]["ocneanu_parity"] = {"Pass": "Fail", "Fail": "Pass"}[
            e.payload["verdicts"]["ocneanu_parity"]]

    def number(e):
        e.payload["p"] *= 1.0 + 1e-6

    def acceptance(e):
        e.payload, e.exits = copy.deepcopy(batch.expected[accepted].payload), frozenset({0, 1})

    for name, index, corrupt in (("verdict", accepted, verdict), ("number", accepted, number),
                                 ("rejection", rejected, acceptance)):
        job = copy.deepcopy(batch)
        corrupt(job.expected[index])
        caught = job.failed(out)
        print(f"corrupted {name}: {caught} failed op(s)")
        if not caught:
            problems.append(f"corrupted {name} was not caught")

    jobs, _ = run.build_jobs("cold-cli", 0, scratch / "inputs", scale=0.25)
    qnum = next(j for j in jobs if j.argv[0] == "qnum")
    out = runner.run(run.cli(qnum.argv))
    job = copy.deepcopy(qnum)
    job.expected[0].payload["values"][-1] *= 1.0 + 1e-6
    caught = qnum.failed(out) == 0 and job.failed(out) == 1
    print(f"corrupted qnum value: {'caught' if caught else 'missed'}")
    if not caught:
        problems.append("corrupted qnum value was not caught")
    return problems


def host_clock() -> list[str]:
    """Each sample is scaled by the reference runs on both sides of it, skipping samples."""
    clock = run.HostClock(runner=None)
    clock.events = [("ref", 0.1), ("sample", 1.0), ("sample", 1.0), ("ref", 0.3), ("ref", 0.5),
                    ("sample", 1.0), ("ref", 0.4)]
    nominal = run.REFERENCE_NOMINAL_S
    want = {1: nominal / 0.3, 2: nominal / 0.3, 5: nominal / 0.4}
    got = {i: clock.scale(i) for i in want}
    print(f"host clock scales: {got}")
    return [] if all(abs(got[i] - want[i]) < 1e-12 for i in want) else [
        f"host clock scales {got}, expected {want}"]


def main() -> int:
    problems = host_clock() + tiny_runs() + corruptions()
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
