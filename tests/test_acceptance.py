"""Acceptance gate: every release-blocking property, one pass/fail line each.

Each test drives the public API at its stated tolerance and records a
single summary line (see the "acceptance criteria" section that pytest
prints after the run).  Oracles here are computed independently: norm
arithmetic on raw coordinates, re-derived loop bounds, closed-form fixed
points.
"""

from __future__ import annotations

import filecmp
import json
import time

import numpy as np
import pytest

from cauchycert import (
    ETA,
    Point,
    SamplerConfig,
    SequencePrefix,
    ShiftWitness,
    certify_cauchy,
    check_consecutive_decay,
    check_shift_contraction,
    delta_grid,
    derive_shift,
    estimate_minimal_s,
    iterate,
    make_metric,
    solve_fixed_point,
    tail_diameter,
)
from cauchycert.cli import main
from cauchycert.contractions import affine_1d, affine_nd
from cauchycert.metrics import check_symmetry, sample_pairs, sample_triples
from cauchycert.sequences import arithmetic_sequence
from oracles import pair_distance

ORBIT_SEED = 20260823
ORBIT_LENGTH = 128
SOLVER_LAM = 0.5


@pytest.fixture(scope="module")
def contraction_orbits():
    """100 seeded affine contractions (50 on the line, 50 in R^3).

    Each entry carries the orbit prefix, the declared constant c, and the
    derived shift p; construction time, which includes building each prefix's
    cached distance matrix, is recorded so the timed criteria can charge it
    honestly.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(ORBIT_SEED)
    entries = []

    line = make_metric("euclid_1d")
    for _ in range(50):
        c = float(rng.uniform(0.1, 0.9))
        a = float(rng.choice([-1.0, 1.0])) * c
        fixed = float(rng.uniform(0.0, 10.0))
        b = (1.0 - a) * fixed
        x0 = float(rng.uniform(0.0, 10.0))
        seq = iterate(affine_1d(a, b), Point(x0), ORBIT_LENGTH, line)
        seq.distance_matrix()
        entries.append(
            {"seq": seq, "c": c, "s": line.s, "p": derive_shift(c, SOLVER_LAM, line.s)}
        )

    space = make_metric("euclid_nd")
    for _ in range(50):
        c = float(rng.uniform(0.1, 0.9))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = c * q  # isometry scaled by c: contracts by exactly c
        fixed = rng.uniform(0.0, 10.0, size=3)
        b = (np.eye(3) - m) @ fixed
        x0 = rng.uniform(0.0, 10.0, size=3)
        seq = iterate(affine_nd(m, b, c), Point(x0), ORBIT_LENGTH, space)
        seq.distance_matrix()
        entries.append(
            {"seq": seq, "c": c, "s": space.s, "p": derive_shift(c, SOLVER_LAM, space.s)}
        )

    return {"entries": entries, "build_seconds": time.monotonic() - t0}


def test_criterion_1_counterexample_regression(criterion, euclid):
    t0 = time.monotonic()
    seq = SequencePrefix(arithmetic_sequence(50), euclid)

    vacuous = True
    for delta in (0.5, 0.25, 0.125):
        report = check_shift_contraction(seq, ShiftWitness(delta, 1, 0.5, 1))
        vacuous = vacuous and report.holds and report.pairs_triggered == 0

    decay = check_consecutive_decay(seq)
    decay_fails_at_one = (not decay.holds) and decay.tail_max == 1.0
    brute = tail_diameter(seq, 10)
    elapsed = time.monotonic() - t0

    criterion(
        1,
        "x_n = n: shift condition vacuous, decay fails, diameter grows",
        vacuous and decay_fails_at_one and brute == 40.0 and elapsed < 1.0,
        f"tail_max={decay.tail_max}, brute={brute}, {elapsed:.2f}s",
    )


def test_criterion_2_certificate_soundness_suite(criterion, contraction_orbits):
    t0 = time.monotonic()
    grid = delta_grid()
    runs = failures = exceptions = oracle_bad = 0

    for entry in contraction_orbits["entries"]:
        seq, s, p = entry["seq"], entry["s"], entry["p"]
        coords = seq.coords
        for delta in grid:
            runs += 1
            try:
                outcome = certify_cauchy(seq, ShiftWitness(delta, p, SOLVER_LAM, 1))
            except Exception:  # noqa: BLE001 - the criterion counts any escape
                exceptions += 1
                continue
            if not outcome.certified:
                failures += 1
                continue
            # Independent oracle: pairwise norms from raw coordinates over
            # the verified range, no library distance code involved.
            tail = coords[outcome.certificate.range_start:]
            diffs = tail[:, None, :] - tail[None, :, :]
            oracle = float(np.max(np.sqrt(np.sum(diffs**2, axis=2))))
            if not (oracle < delta * (1.0 - SOLVER_LAM + s)):
                oracle_bad += 1

    elapsed = time.monotonic() - t0 + contraction_orbits["build_seconds"]
    criterion(
        2,
        "100 random affine orbits certify at every delta, oracle under the bound",
        runs == 700 and failures == 0 and exceptions == 0 and oracle_bad == 0
        and elapsed < 30.0,
        f"{runs} certifications, {failures} failures, {exceptions} exceptions, "
        f"{oracle_bad} oracle violations, {elapsed:.2f}s",
    )


def test_criterion_3_exact_shift_condition_for_contractions(criterion, contraction_orbits):
    checks = violations = 0
    for entry in contraction_orbits["entries"]:
        seq, p = entry["seq"], entry["p"]
        for delta in delta_grid():
            checks += 1
            report = check_shift_contraction(seq, ShiftWitness(delta, p, SOLVER_LAM, 1))
            if not report.holds:
                violations += 1
    criterion(
        3,
        "derived shift satisfies the contraction band at every grid delta",
        checks == 700 and violations == 0,
        f"{checks} checks, {violations} violations",
    )


def test_criterion_4_derived_shift_minimality(criterion):
    worked = derive_shift(0.25, 0.5, 2.0) == 2 and derive_shift(0.5, 0.5, 2.0) == 3

    combos = bad = 0
    for c in [0.05 * k for k in range(1, 20)]:
        for lam in [0.1 * k for k in range(1, 10)]:
            for s in (1.0, 2.0, 4.0):
                combos += 1
                p = derive_shift(c, lam, s)
                target = lam / s - ETA

                # Independent loop oracle: first exponent whose running
                # product of c's drops below the target.
                q, power = 1, c
                while power >= target:
                    q += 1
                    power *= c

                powers = [1.0]
                for _ in range(p):
                    powers.append(powers[-1] * c)
                if p != q or not (powers[p] < target) or powers[p - 1] < target:
                    bad += 1

    criterion(
        4,
        "derive_shift is minimal across 513 (c, lambda, s) combinations",
        worked and combos == 513 and bad == 0,
        f"{combos} combos, {bad} mismatches, worked values ok={worked}",
    )


def test_criterion_5_axiom_checker_calibration(criterion):
    cfg = SamplerConfig()
    triples = sample_triples(cfg, 1)

    sq = estimate_minimal_s(make_metric("sq_abs"), triples).min_s
    eu = estimate_minimal_s(make_metric("euclid_1d"), triples).min_s
    md = estimate_minimal_s(make_metric("max_dislocated"), triples).min_s

    broken = make_metric("broken_asym")
    pairs = sample_pairs(cfg, 1)
    first = check_symmetry(broken, pairs)
    second = check_symmetry(broken, pairs)
    reproducible = (
        not first.ok
        and first.counterexample is not None
        and first == second
    )
    witnessed = False
    if first.counterexample is not None:
        x, y = first.counterexample
        witnessed = abs(broken.distance(x, y) - broken.distance(y, x)) > ETA

    criterion(
        5,
        "estimated minimal s calibrated on known instances, asymmetry caught",
        1.999 <= sq <= 2.0
        and eu <= 1.0 + ETA
        and md <= 1.0 + ETA
        and reproducible
        and witnessed,
        f"sq_abs={sq}, euclid={eu}, max_dislocated={md}",
    )


def test_criterion_6_self_distance_bound(criterion):
    rng = np.random.default_rng(ORBIT_SEED + 6)
    metrics = [
        make_metric("max_dislocated"),
        make_metric("shifted_dislocated", offset=1.0),
    ]
    checked = bad = 0
    for m in metrics:
        for _ in range(50):
            values = [float(v) for v in rng.uniform(0.0, 10.0, size=40)]
            seq = SequencePrefix(values, m)
            for n in range(1, len(seq)):
                checked += 1
                if not (pair_distance(seq, n, n) <= 2.0 * m.s * pair_distance(seq, n + 1, n) + ETA):
                    bad += 1
    criterion(
        6,
        "self-distance bounded by twice the next step on dislocated instances",
        checked == 2 * 50 * 39 and bad == 0,
        f"{checked} indices checked, {bad} violations",
    )


def test_criterion_7_solver_against_closed_form(criterion, euclid):
    t0 = time.monotonic()
    result = solve_fixed_point(affine_1d(0.9, 0.1), euclid, Point(0.0), 0.01)
    elapsed = time.monotonic() - t0
    # Closed-form fixed point of x -> 0.9 x + 0.1 is exactly 1; the certified
    # bound at delta = 0.01, lambda = 0.5, s = 1 is 0.01 * (1 - 0.5 + 1).
    error = abs(float(result.fixed_point.coords[0]) - 1.0)
    criterion(
        7,
        "certified fixed point lands within the diameter bound of x* = 1",
        error < 0.01 * (1.0 - 0.5 + 1.0) and elapsed < 1.0,
        f"error={error:.3g}, {result.iterations} iterations, {elapsed:.2f}s",
    )


def test_criterion_8_deterministic_reports(criterion, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "metric": {"name": "euclid_1d"},
                "source": {"generator": {"name": "geometric", "params": {"n": 40}}},
                "parameters": {"seed": 3},
            }
        )
    )
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code_a = main(["check", "--config", str(config), "--no-timestamp", "--out", str(first)])
    code_b = main(["check", "--config", str(config), "--no-timestamp", "--out", str(second)])
    identical = filecmp.cmp(first, second, shallow=False)
    criterion(
        8,
        "repeated runs at a fixed seed emit byte-identical reports",
        code_a == 0 and code_b == 0 and identical,
        f"{first.stat().st_size} bytes each",
    )
