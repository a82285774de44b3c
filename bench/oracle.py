"""Expected outputs for the benchmark's inputs, from methods independent of tripoint.

Dimensions come from a dense symmetric eigensolver instead of power
iteration, quantum integers from the closed form instead of the recurrence,
and verdicts from straight-line formulas instead of the branch-matrix
machinery.  Nothing here runs inside a timed region.

A pair whose oracle margin lies within ``BOUNDARY`` of a verdict boundary is
kept, but only its numbers are compared: at that distance a correct program
and the oracle may round to different sides.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from generate import Graph, PairCase, Request

#: The CLI's default verdict tolerance, on the trace scale.
TOL = 1e-6
#: A printed number agrees when |got - want| <= NUM_RTOL * max(1, |want|).
NUM_RTOL = 1e-8
BOUNDARY = 1e3 * TOL


def qint(delta: float, k: int) -> float:
    """[k] = (nu^k - nu^-k) / (nu - 1/nu), with nu + 1/nu = delta > 2."""
    nu = (delta + math.sqrt(delta * delta - 4.0)) / 2.0
    return (nu**k - nu**-k) / (nu - 1.0 / nu)


def perron(g: Graph) -> tuple[float, np.ndarray]:
    w, v = np.linalg.eigh(g.adjacency())
    vec = np.abs(v[:, -1])
    return float(w[-1]), vec / vec[0]


def ratio_row(delta: float, n: int, k: int) -> dict:
    """The admissible (p, q) whose trace (p-q)^2 [n][n+2]/(pq) - 2 is 2 cos(2 pi k/n).

    With p + q = s = [n+1] and pq = (s^2 - g^2)/4 the trace identity solves
    in closed form for the gap g = p - q = s sqrt(t / (4 [n][n+2] + t)),
    t = trace + 2, which keeps every digit when [n][n+2] is large.
    """
    trace = 2.0 * math.cos(2.0 * math.pi * k / n)
    t = trace + 2.0
    total = qint(delta, n + 1)
    gap = total * math.sqrt(t / (4.0 * qint(delta, n) * qint(delta, n + 2) + t))
    p, q = (total + gap) / 2.0, (total - gap) / 2.0
    return {"k": k, "lambda_trace": trace, "r": p / q, "p": p, "q": q}


# ---------------------------------------------------------------------------
# expected outcomes

@dataclass
class Expected:
    """What one operation must produce.

    ``payload`` is the expected JSON object (None for a rejected pair);
    ``verdict_free`` marks a near-boundary pair whose verdicts are not
    compared; ``exits`` is the set of acceptable exit codes.
    """

    payload: dict | None
    exits: frozenset[int]
    verdict_free: bool = False


def expect_pair(case: PairCase, path: str) -> Expected:
    if case.reject is not None:
        return Expected(None, frozenset({2}))
    n = case.branch_depth + 1
    delta, dims_p = perron(case.principal)
    _, dims_d = perron(case.dual)
    at_p = case.principal.offset(n)
    p, q = sorted(dims_p[at_p : at_p + 2], reverse=True)
    at_d = case.dual.offset(n)
    d0, d1 = dims_d[at_d], dims_d[at_d + 1]
    g3_index = 1 if d1 <= d0 else 0
    g3_univalent = case.dual.valence(n, g3_index) == 1
    g2_trivalent = case.dual.valence(n, 1 - g3_index) == 3
    odd = (n - 1) % 2 == 1

    big = qint(delta, n) * qint(delta, n + 2)
    trace = (p - q) ** 2 * big / (p * q) - 2.0
    distances = {k: abs(trace - 2.0 * math.cos(2.0 * math.pi * k / n)) for k in range(n // 2 + 1)}
    best = min(distances.values())

    triple_single = "Inapplicable"
    if g3_univalent:
        triple_single = "Pass" if p - q <= 1.0 + TOL else "Fail"
    rotational = "Inapplicable"
    if g3_univalent and odd:
        rotational = "Pass" if -2.0 - TOL <= trace <= 2.0 + TOL and best <= TOL else "Fail"
    verdicts = {
        "ocneanu_parity": "Pass" if odd else "Fail",
        "triple_single": triple_single,
        "quadratic_tangles": rotational if g3_univalent and g2_trivalent else "Inapplicable",
        "rotational": rotational,
    }

    swappable = case.dual.valence(n, 0) != case.dual.valence(n, 1)
    verdict_free = bool(
        (swappable and abs(d0 - d1) <= BOUNDARY * max(1.0, d0, d1))
        or (g3_univalent and abs(p - q - 1.0) <= BOUNDARY)
        or (g3_univalent and odd and (abs(abs(trace) - 2.0) <= BOUNDARY or best <= BOUNDARY))
    )
    payload = {
        "file": path, "n": n, "delta": delta, "p": p, "q": q, "r": p / q,
        "lambda_trace": trace, "verdicts": verdicts,
        "root_candidates": [{"k": k, "distance": d} for k, d in distances.items()],
        "tol": TOL,
    }
    if verdict_free:
        exits = frozenset({0, 1})
    else:
        exits = frozenset({1 if "Fail" in verdicts.values() else 0})
    return Expected(payload, exits, verdict_free)


def batch_exits(expected: list[Expected]) -> frozenset[int]:
    """Exit codes acceptable for one ``check`` process over all the files."""
    if any(e.payload is None for e in expected):
        return frozenset({2})
    if any(e.exits == {1} for e in expected):
        return frozenset({1})
    return frozenset({0, 1}) if any(e.verdict_free for e in expected) else frozenset({0})


def expect_request(req: Request) -> Expected:
    """Expected output of a ``ratios``, ``qnum`` or ``matrix`` request."""
    kind, params = req.kind, req.params
    if kind == "ratios":
        delta = params.get("delta") or math.sqrt(params["index"])
        n = params["n"]
        rows = [ratio_row(delta, n, k) for k in range(n // 2 + 1)]
        return Expected({"n": n, "delta": delta, "rows": rows}, frozenset({0}))
    if kind == "qnum":
        delta = params["delta"]
        values = [qint(delta, k) for k in range(params["max"] + 1)]
        return Expected({"delta": delta, "values": values}, frozenset({0}))
    if kind == "matrix":
        n, delta, p, q = params["n"], params["delta"], params["p"], params["q"]
        qm, qn, qp2 = qint(delta, n - 1), qint(delta, n), qint(delta, n + 2)
        dn = delta * qn
        re_tau = (p * p - q * q - 1.0) / (2.0 * q)
        tau = complex(re_tau, math.sqrt(1.0 - re_tau * re_tau))
        sigma = -(1.0 + tau * q) / p
        lam = (sigma - tau) ** 2 * p * q / (qn * qp2)
        entries = [
            [1.0 / qn, math.sqrt(qm * p), math.sqrt(qm * q)],
            [math.sqrt(qm / dn), sigma * math.sqrt(p / dn), tau * math.sqrt(q / dn)],
            [math.sqrt(qm * qp2 / (dn * qn)), None, None],
        ]

        def cplx(z):
            return None if z is None else {"re": complex(z).real, "im": complex(z).imag}

        return Expected({
            "n": n, "delta": delta, "p": p, "q": q,
            "entries": [[cplx(z) for z in row] for row in entries],
            "sigma": cplx(sigma), "tau": cplx(tau), "lambda": cplx(lam),
            "lambda_trace": (p - q) ** 2 * qn * qp2 / (p * q) - 2.0,
        }, frozenset({0}))
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# comparison

def agrees(got, want, verdict_free: bool = False) -> bool:
    """Structural equality with numbers compared to NUM_RTOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return False
        return all(
            (verdict_free and key == "verdicts") or agrees(got[key], want[key], verdict_free)
            for key in want
        )
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return False
        if want and isinstance(want[0], dict) and "distance" in want[0]:
            # root candidates: order by k, since ties in distance may order either way
            if not all(isinstance(c, dict) for c in got):
                return False
            got, want = (sorted(x, key=lambda c: c.get("k", -1)) for x in (got, want))
        return all(agrees(g, w, verdict_free) for g, w in zip(got, want))
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return got == want
    if isinstance(want, int):
        return isinstance(got, int) and got == want
    return (
        isinstance(got, (int, float))
        and math.isfinite(got)
        and abs(got - want) <= NUM_RTOL * max(1.0, abs(want))
    )


def score_check(paths: list[str], expected: list[Expected], stdout: str, stderr: str,
                code: int) -> int:
    """Failed pairs of one ``check`` process; every pair fails on a wrong exit code."""
    if code not in batch_exits(expected):
        return len(paths)
    reported = {}
    for line in stdout.splitlines():
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            return len(paths)
        if not isinstance(payload, dict):
            return len(paths)
        reported[payload.get("file")] = payload
    refused = {line.split(": ", 1)[0] for line in stderr.splitlines() if ": " in line}
    failed = 0
    for path, want in zip(paths, expected):
        if want.payload is None:
            failed += path in reported or path not in refused
        else:
            failed += path in refused or not agrees(reported.get(path), want.payload, want.verdict_free)
    return failed


def score_request(want: Expected, stdout: str, code: int) -> bool:
    """Whether a single-request invocation produced what the oracle expects."""
    if code not in want.exits:
        return False
    try:
        return agrees(json.loads(stdout), want.payload, want.verdict_free)
    except json.JSONDecodeError:
        return False
