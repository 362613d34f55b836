"""Seeded workload inputs and independent checks of the reports they produce.

Every workload is a list of ``cauchycert`` CLI commands.  The inputs (config
files and a CSV) are generated from the workload seed; the program only ever
sees those files.  Each command carries a check that recomputes what the
report claims in numpy, from the generated inputs alone, and returns one
verdict per operation:

* ``"ok"``     -- the operation succeeded and its output matches;
* ``"failed"`` -- the program declined the operation (no certificate, solve
                  error) and said so in a well-formed report;
* ``"wrong"``  -- the output contradicts the independent computation, or the
                  command crashed, or its report is not valid JSON or fails
                  the schema.

One operation is one delta entry of a certify or check report, or one solve.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: The program's default delta grid (delta0 = 0.5, 7 halving levels).
DELTAS = [0.5 * 2.0 ** (-j) for j in range(7)]
#: The program's default witness-search grid, used to derive how many pairs
#: the search scans before it stops.
SEARCH_P_MAX = 8
SEARCH_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
#: Default tail window and step threshold of the consecutive-decay check.
TAIL_TAU = 0.5
TAIL_EPS = 1e-6
#: Default comparison tolerance of the program (cauchycert.metrics.ETA).
ETA = 1e-9
#: Relative tolerance for recomputed floating-point values.
REL_TOL = 1e-12

Verdicts = list[str]

SEARCH_CALLS = "sequences.search_witness.calls"
CERTIFY_CALLS = "certificates.certify_cauchy.calls"
PAIRS_CHECKED = "sequences.check_shift_contraction.pairs_checked"


@dataclass
class Command:
    """One CLI call of a workload and the check of its report."""

    label: str
    argv: list[str]
    ops: int
    check: Callable[[dict], Verdicts]
    #: Per-layer counts the report implies, keyed by metric name; the traced
    #: run must reproduce them.
    expected: Callable[[dict], dict[str, int]]


def _write_json(workdir: str, name: str, data: dict) -> str:
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump(data, fh)
    return name


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _span(x: np.ndarray) -> float:
    """max - min, which is the largest |x_i - x_j| over the slice."""
    return float(np.max(x) - np.min(x))


def _n0_grid(n: int) -> list[int]:
    return sorted({1, math.ceil(n / 8), math.ceil(n / 4)})


def _pairs(t: int) -> int:
    return t * (t + 1) // 2


def search_scan_pairs(n: int, witness: "dict | None") -> int:
    """pairs_checked summed over every candidate search_witness scans.

    Follows the documented (p, lambda, n0) order and stops at the reported
    witness; with no witness every candidate is scanned.
    """
    n0s = _n0_grid(n)
    p_used = min(SEARCH_P_MAX, max(n - min(n0s) - 2, 0))
    total = 0
    for p in range(1, p_used + 1):
        for lam in SEARCH_LAMBDAS:
            for n0 in n0s:
                if n < n0 + p + 2:
                    continue
                total += _pairs(n - p - n0)
                if witness is not None and (p, lam, n0) == (
                    witness["p"], witness["lambda"], witness["n0"]
                ):
                    return total
    return total


def _brute_force_witness(dist: Callable, n: int, w: dict, s: float) -> bool:
    """Re-verify a reported shift witness over every pair n0 < n <= m <= N - p."""
    idx = np.arange(w["n0"], n - w["p"])  # 0-based rows for 1-based n in (n0, N - p]
    sub = dist(idx[:, None], idx[None, :])
    shifted = dist(idx[:, None] + w["p"], idx[None, :] + w["p"])
    upper = np.triu(np.ones(sub.shape, dtype=bool))
    triggered = upper & (sub > ETA) & (sub < w["delta"] - ETA)
    return not np.any(triggered & ~(shifted < w["delta"] * w["lambda"] / s - ETA))


# ---------------------------------------------------------------------------
# certify_orbit
# ---------------------------------------------------------------------------

ORBIT_A = 0.97
ORBIT_N = 3000


def _affine_orbit(a: float, b: float, x0: float, n: int) -> np.ndarray:
    """x_1 = f(x0), ..., x_n = f^n(x0) for f(x) = a x + b, in float64."""
    out = np.empty(n)
    cur = x0
    for i in range(n):
        cur = a * cur + b
        out[i] = cur
    return out


def certify_orbit(rng: np.random.Generator, workdir: str) -> list[Command]:
    fixed = rng.uniform(-10.0, 10.0)
    x0 = fixed + rng.choice((-1.0, 1.0)) * rng.uniform(900.0, 1100.0)
    b = fixed * (1.0 - ORBIT_A)
    config = {
        "metric": {"name": "euclid_1d"},
        "source": {
            "orbit": {
                "contraction": {"name": "affine_1d", "params": {"a": ORBIT_A, "b": b}},
                "n": ORBIT_N,
                "x0": x0,
            }
        },
    }
    path = _write_json(workdir, "certify.json", config)
    x = _affine_orbit(ORBIT_A, b, x0, ORBIT_N)

    def check(report: dict) -> Verdicts:
        res = report["results"]
        if res["length"] != ORBIT_N or [e["delta"] for e in res["per_delta"]] != DELTAS:
            return ["wrong"] * len(DELTAS)
        out = []
        for entry in res["per_delta"]:
            outcome = entry["outcome"]
            if outcome is None or not outcome["certified"]:
                out.append("failed")
                continue
            cert = outcome["certificate"]
            w = cert["witness"]
            bound = w["delta"] * (1.0 - w["lambda"]) + cert["s"] * w["delta"]
            oracle = cert["oracle_tail_diameter"]
            ok = (
                cert["s"] == 1.0
                and _close(oracle, _span(x[cert["range_start"]:]))
                and oracle < cert["diameter_bound"]
                and _close(cert["diameter_bound"], bound)
            )
            out.append("ok" if ok else "wrong")
        return out

    def expected(report: dict) -> dict[str, int]:
        per_delta = report["results"]["per_delta"]
        outcomes = [e["outcome"] for e in per_delta if e["outcome"] is not None]
        searched = [e for e in per_delta if e["witness_source"] == "search"]
        return {
            SEARCH_CALLS: len(searched),
            CERTIFY_CALLS: len(outcomes),
            PAIRS_CHECKED: sum(search_scan_pairs(ORBIT_N, e["witness"]) for e in searched)
            + sum(o["shift_contraction"]["pairs_checked"] for o in outcomes),
        }

    argv = ["certify", "--config", path, "--no-timestamp"]
    return [Command("certify", argv, len(DELTAS), check, expected)]


# ---------------------------------------------------------------------------
# check_oscillator
# ---------------------------------------------------------------------------

OSC_N = 600


def check_oscillator(rng: np.random.Generator, workdir: str) -> list[Command]:
    n = np.arange(1, OSC_N + 1)
    amp = np.exp(rng.uniform(math.log(1e-3), 0.0, OSC_N))
    x = (-1.0) ** n + amp * (rng.uniform(size=OSC_N) - 0.5)
    with open(os.path.join(workdir, "oscillator.csv"), "w") as fh:
        fh.writelines(f"{float(v)!r}\n" for v in x)
    config = {"metric": {"name": "sq_abs"}, "source": {"csv": "oscillator.csv"}}
    path = _write_json(workdir, "check.json", config)
    s = 2.0

    def dist(i, j):
        return (x[i] - x[j]) ** 2

    steps = (x[1:] - x[:-1]) ** 2
    window = max(1, math.ceil(TAIL_TAU * steps.size))
    tail_max = float(np.max(steps[window - 1:]))
    midpoint = math.ceil(OSC_N / 2)
    from_start = _span(x) ** 2
    from_mid = _span(x[midpoint - 1:]) ** 2

    def check(report: dict) -> Verdicts:
        res = report["results"]
        decay, diam = res["consecutive_decay"], res["tail_diameter"]
        if not (
            res["length"] == OSC_N
            and [e["delta"] for e in res["per_delta"]] == DELTAS
            and _close(decay["tail_max"], tail_max)
            and decay["window_start"] == window
            and diam["midpoint"] == midpoint
            and _close(diam["from_start"], from_start)
            and _close(diam["from_midpoint"], from_mid)
        ):
            return ["wrong"] * len(DELTAS)
        out = []
        for entry in res["per_delta"]:
            search = entry["search"]
            if search is None:
                out.append("failed")
            elif search["witness"] is None:
                out.append("ok")
            else:
                holds = _brute_force_witness(dist, OSC_N, search["witness"], s)
                out.append("ok" if holds else "wrong")
        return out

    def expected(report: dict) -> dict[str, int]:
        per_delta = report["results"]["per_delta"]
        return {
            SEARCH_CALLS: len(per_delta),
            CERTIFY_CALLS: 0,
            PAIRS_CHECKED: sum(
                search_scan_pairs(OSC_N, e["search"]["witness"])
                for e in per_delta
                if e["search"] is not None
            ),
        }

    argv = ["check", "--config", path, "--no-timestamp"]
    return [Command("check", argv, len(DELTAS), check, expected)]


# ---------------------------------------------------------------------------
# solve_affine
# ---------------------------------------------------------------------------

SOLVE_SLOPES = (0.995, 0.99)
#: Independent draws per slope.  A solve hit by the spurious mid-run
#: ContractionError stops early and does less work; two draws per slope halve
#: how much one such failure moves a seed's wall time and peak RSS.
SOLVES_PER_SLOPE = 2
SOLVE_DELTA = 0.01
SOLVE_BLOCK = 32
#: Distance between x0 and the fixed point: the median distance of two
#: independent uniform draws from [-10, 10].  The iteration count grows with
#: log |x0 - x*|, so a fixed distance keeps the work per seed the same while
#: the fixed point itself stays uniform on [-10, 10].
SOLVE_START_DISTANCE = 20.0 * (1.0 - math.sqrt(0.5))
SOLVE_LAMBDA = 0.5


def solver_shift(a: float) -> int:
    """The shift the solver derives for slope a: smallest p with a**p < lam - eta."""
    p, power = 1, a
    while not power < SOLVE_LAMBDA - ETA:
        p, power = p + 1, power * a
    return p


def solve_affine(rng: np.random.Generator, workdir: str) -> list[Command]:
    commands = []
    for a, draw in [(a, i) for a in SOLVE_SLOPES for i in range(SOLVES_PER_SLOPE)]:
        fixed = rng.uniform(-10.0, 10.0)
        sign = rng.choice((-1.0, 1.0))
        if abs(fixed + sign * SOLVE_START_DISTANCE) > 10.0:
            sign = -sign
        x0 = fixed + sign * SOLVE_START_DISTANCE
        b = fixed * (1.0 - a)
        config = {
            "metric": {"name": "euclid_1d"},
            "parameters": {
                "contraction": {"name": "affine_1d", "params": {"a": a, "b": b}},
                "solver": {"target_delta": SOLVE_DELTA, "x0": x0},
            },
        }
        path = _write_json(workdir, f"solve-{a}-{draw}.json", config)
        commands.append(
            Command(
                f"solve a={a} #{draw}",
                ["solve", "--config", path, "--no-timestamp"],
                1,
                _solve_check(a, b),
                _solve_expected(a),
            )
        )
    return commands


def _solve_check(a: float, b: float) -> Callable[[dict], Verdicts]:
    """For an affine map the residual alone fixes |x* - b/(1 - a)|, so the
    residual is recomputed and held to the solver's stopping rule too: the
    last step is at most the tail eps, and the residual is the next step."""
    exact = b / (1.0 - a)

    def check(report: dict) -> Verdicts:
        res = report["results"]
        if not res["solved"]:
            return ["failed"]
        (x_star,) = res["fixed_point"]
        residual = res["residual"]
        cert = res["certificate"]
        w = cert["witness"]
        ok = (
            _close(residual, abs(x_star - (a * x_star + b)))
            and residual <= TAIL_EPS
            and abs(x_star - exact) <= residual / (1.0 - a) + 1e-9 * max(1.0, abs(exact))
            and w["delta"] == SOLVE_DELTA
            and cert["oracle_tail_diameter"] < cert["diameter_bound"]
            and _close(cert["diameter_bound"], w["delta"] * (1.0 - w["lambda"]) + w["delta"])
        )
        return ["ok" if ok else "wrong"]

    return check


def _solve_expected(a: float) -> Callable[[dict], dict[str, int]]:
    """One certify attempt, with one shift check, after every 32-point block
    from the first block of at least n0 + p + 2 points up to the final length.
    A failed solve reports no length, so only the search count is implied."""
    p = solver_shift(a)

    def expected(report: dict) -> dict[str, int]:
        res = report["results"]
        if not res["solved"]:
            return {SEARCH_CALLS: 0}
        first = SOLVE_BLOCK * math.ceil((p + 3) / SOLVE_BLOCK)
        lengths = range(first, res["iterations"] + 1, SOLVE_BLOCK)
        return {
            SEARCH_CALLS: 0,
            CERTIFY_CALLS: len(lengths),
            PAIRS_CHECKED: sum(_pairs(n - p - 1) for n in lengths),
        }

    return expected


WORKLOADS: dict[str, Callable[[np.random.Generator, str], list[Command]]] = {
    "certify_orbit": certify_orbit,
    "check_oscillator": check_oscillator,
    "solve_affine": solve_affine,
}
