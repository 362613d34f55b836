"""Certification stages: settling index, chain bounds, induction, pair scan."""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cauchycert import (
    ETA,
    STAGES,
    CauchyCertError,
    CertificateFailure,
    DbMetric,
    DivergenceError,
    InductionTrace,
    MetricError,
    Point,
    PrefixTooShort,
    SearchConfig,
    SequencePrefix,
    ShiftWitness,
    certify_cauchy,
    certify_over_grid,
    check_shift_contraction,
    delta_grid,
    diameter_bound,
    find_settling_index,
    iterate,
    make_contraction,
    make_metric,
    run_block_induction,
    search_witness,
    tail_diameter,
)
from cauchycert import metrics
from cauchycert.certificates import _chain_stage, _pair_scan
from cauchycert.metrics import available_metrics
from oracles import (
    appended_certify_cauchy,
    chain_bound,
    chunked_block_induction,
    class_loop_block_induction,
    class_loop_pair_scan,
    loop_block_induction,
    matmul_chain_stage,
    padded_pair_scan,
    pair_distance,
    self_distance_bound,
    slab_pair_scan,
    triu_pair_scan,
)

HALVING_WITNESS = ShiftWitness(0.1, 2, 0.5, 1)


class TestDiameterBound:
    def test_value(self):
        w = ShiftWitness(0.1, 1, 0.5, 1)
        assert diameter_bound(w, 1.0) == pytest.approx(0.15)
        assert diameter_bound(w, 2.0) == pytest.approx(0.25)

    def test_monotone_in_each_argument(self):
        base = diameter_bound(ShiftWitness(0.1, 1, 0.5, 1), 1.0)
        assert diameter_bound(ShiftWitness(0.2, 1, 0.5, 1), 1.0) > base
        assert diameter_bound(ShiftWitness(0.1, 1, 0.4, 1), 1.0) > base
        assert diameter_bound(ShiftWitness(0.1, 1, 0.5, 1), 1.5) > base

    def test_shrinks_to_zero_along_grid(self):
        bounds = [diameter_bound(ShiftWitness(d, 1, 0.5, 1), 2.0) for d in delta_grid()]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] < 0.02


class TestDeltaGrid:
    def test_default(self):
        assert delta_grid() == [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125]

    def test_validation(self):
        # Both guards at their ties: delta0 = 0 and one level.
        with pytest.raises(ValueError, match="need delta0 > 0"):
            delta_grid(0.0)
        assert delta_grid(0.5, 1) == [0.5]
        with pytest.raises(ValueError):
            delta_grid(0.0, 3)
        with pytest.raises(ValueError):
            delta_grid(0.5, 0)
        with pytest.raises(ValueError, match="underflows"):
            delta_grid(0.5, 1100)


class TestChainBound:
    def test_telescoping_is_tight_for_euclid(self, euclid):
        seq = SequencePrefix([1.0, 0.5, 0.25, 0.125], euclid)
        cb = chain_bound(seq, 1, 3)
        assert cb.terms == (0.5, 0.25, 0.125)
        assert cb.total == 0.875
        assert cb.direct == 0.875

    def test_coefficients_double_then_plateau(self):
        # s = 2: weights are s**min(j, q-1), so the last two steps share the
        # top coefficient instead of growing another factor of s.
        seq = SequencePrefix([0.0, 1.0, 3.0, 4.0], make_metric("sq_abs"))
        cb = chain_bound(seq, 1, 3)
        assert cb.terms == (2.0, 16.0, 4.0)
        assert cb.total == 22.0
        assert cb.direct == 16.0

    def test_understated_s_detected(self):
        seq = SequencePrefix([0.0, 1.0, 2.0], make_metric("sq_abs", s=1.0))
        with pytest.raises(MetricError):
            chain_bound(seq, 1, 2)  # direct 4 > 1 + 1 under the claimed s = 1

    def test_argument_validation(self, euclid):
        seq = SequencePrefix([1.0, 0.5, 0.25], euclid)
        with pytest.raises(ValueError):
            chain_bound(seq, 1, 1)
        with pytest.raises(IndexError):
            chain_bound(seq, 2, 2)

    @given(
        values=st.lists(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            min_size=4,
            max_size=12,
        )
    )
    def test_never_violated_for_euclid(self, values):
        # |x_n - x_{n+q}| telescopes exactly at s = 1, so the bound must hold
        # for every admissible (n, q).
        seq = SequencePrefix(values, make_metric("euclid_1d"))
        n_len = len(seq)
        for q in range(2, n_len):
            for n in range(1, n_len - q + 1):
                cb = chain_bound(seq, n, q)
                assert cb.direct <= cb.total + ETA * max(1.0, cb.total)


class TestSelfDistanceBound:
    def test_max_dislocated(self):
        seq = SequencePrefix([3.0, 2.0], make_metric("max_dislocated"))
        assert self_distance_bound(seq, 1) == 6.0  # 2 * 1 * max(3, 2)

    def test_shifted(self):
        seq = SequencePrefix([5.0, 5.0], make_metric("shifted_dislocated", offset=1.0))
        assert self_distance_bound(seq, 1) == 2.0

    def test_violation_detected(self):
        # Self-distance 10 with step distance 1 cannot satisfy the doubled
        # step bound at s = 1; the declared instance is inconsistent.
        m = make_metric("euclid_1d")
        bad = type(m)(
            name="spiky",
            s=1.0,
            rows_fn=lambda a, b: np.abs(a[..., 0] - b[..., 0])
            + np.where(a[..., 0] == b[..., 0], 10.0, 0.0),
            dim=1,
        )
        seq = SequencePrefix([0.0, 1.0], bad)
        with pytest.raises(MetricError):
            self_distance_bound(seq, 1)

    def test_index_validation(self, euclid):
        seq = SequencePrefix([1.0, 2.0], euclid)
        with pytest.raises(IndexError):
            self_distance_bound(seq, 2)


def scalar_chain_stage(seq: SequencePrefix, p: int, n_low: int):
    """_chain_stage rebuilt from the scalar oracles, one (n, q) at a time.

    Returns the per-offset maxima; the first violated bound in the stage's
    order (q ascending, then n) raises a chain-bounds failure at its (n, q).
    """
    n_len = len(seq)
    out = []
    for q in range(p + 1):
        ns = range(n_low + 1, (n_len - 1 if q == 0 else n_len - q) + 1)
        if not ns:
            continue
        bounds = []
        for n in ns:
            try:
                if q == 0:
                    bounds.append(self_distance_bound(seq, n))
                elif q == 1:
                    bounds.append(pair_distance(seq, n, n + 1))
                else:
                    bounds.append(chain_bound(seq, n, q).total)
            except MetricError:
                raise CertificateFailure(
                    "chain_bounds", f"chain bound violated at n={n}, q={q}:", where=(n, q)
                ) from None
        out.append((q, max(bounds)))
    return tuple(out)


CHAIN_METRICS = st.sampled_from(["euclid_1d", "sq_abs", "max_dislocated", "shifted_dislocated"])


def _check_chain_stage(values, name, s, p, n_low):
    """``_chain_stage`` equals the scalar oracles, bit for bit."""
    seq = SequencePrefix(values, make_metric(name, s=s))
    w = ShiftWitness(0.5, p, 0.5, 1)
    try:
        expected = scalar_chain_stage(seq, p, n_low)
    except CertificateFailure as exc:
        with pytest.raises(CertificateFailure, match=str(exc)) as got:
            _chain_stage(seq, w, n_low)
        assert (got.value.stage, got.value.where) == ("chain_bounds", exc.where)
        return
    got = _chain_stage(seq, w, n_low)
    assert [(q, b.hex()) for q, b in got] == [(q, b.hex()) for q, b in expected]


class TestChainStage:
    @given(
        # Multiples of 1/8 keep every distance, weight and sum exact, so the
        # matmul oracle must agree too.
        values=st.lists(st.integers(0, 64).map(lambda k: k / 8.0), min_size=3, max_size=14),
        name=CHAIN_METRICS,
        s=st.sampled_from([1.0, 2.0, 4.0]),
        p=st.integers(1, 5),
        n_low=st.integers(0, 6),
    )
    def test_matches_scalar_oracles(self, values, name, s, p, n_low):
        _check_chain_stage(values, name, s, p, n_low)
        seq = SequencePrefix(values, make_metric(name, s=s))
        w = ShiftWitness(0.5, p, 0.5, 1)
        assert _result(_chain_stage, seq, w, n_low) == _result(matmul_chain_stage, seq, w, n_low)

    @pytest.mark.parametrize(
        "entries, where",
        # A self-distance ETA above its doubled zero step passes; the first row
        # more than ETA above fails, past an earlier one at the tie.
        [({(2, 2): ETA}, None), ({(1, 1): ETA, (3, 3): 2 * ETA}, (3, 0))],
    )
    def test_gap_of_exactly_eta_passes(self, entries, where):
        seq, w = _table_prefix(4, entries), ShiftWitness(1.0, 1, 0.5, 1)
        if where is None:
            assert [tuple(b) for b in _chain_stage(seq, w, 0)] == [(0, 0.0), (1, 0.0)]
        else:
            with pytest.raises(CertificateFailure, match="chain bound violated") as exc:
                _chain_stage(seq, w, 0)
            assert exc.value.where == where

    @settings(max_examples=300, deadline=None)
    @given(
        # Arbitrary floats make the sums round, so the order of summation shows.
        values=st.lists(st.floats(0.0, 1e3), min_size=3, max_size=24),
        name=CHAIN_METRICS,
        s=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
        p=st.integers(2, 9),
        n_low=st.integers(0, 6),
    )
    def test_bit_equal_on_any_floats(self, values, name, s, p, n_low):
        _check_chain_stage(values, name, s, p, n_low)


class TestSettlingIndex:
    def test_halving(self, halving_orbit):
        assert find_settling_index(halving_orbit, HALVING_WITNESS) == 3

    def test_verified_range_is_real(self, halving_orbit):
        # Every index past the settling cutoff clears the offset threshold,
        # and the cutoff itself does not - checked by direct evaluation.
        m0 = find_settling_index(halving_orbit, HALVING_WITNESS)
        w = HALVING_WITNESS
        threshold = w.delta * (1.0 - w.lam) / halving_orbit.metric.s - ETA
        hi = len(halving_orbit) - w.p
        for n in range(m0 + 1, hi + 1):
            for q in range(w.p + 1):
                assert pair_distance(halving_orbit, n, n + q) < threshold
        assert any(
            not (pair_distance(halving_orbit, m0, m0 + q) < threshold) for q in range(w.p + 1)
        )

    def test_linear_never_settles(self, linear_prefix):
        with pytest.raises(CertificateFailure, match="do not decay") as exc:
            find_settling_index(linear_prefix, ShiftWitness(0.5, 1, 0.5, 1))
        assert exc.value.stage == "settling_index"

    def test_cutoff_respects_n0(self, halving_orbit):
        # The scan starts at n0, so the settling index cannot undercut it.
        w = ShiftWitness(0.5, 1, 0.1, 8)
        assert find_settling_index(halving_orbit, w) == 8

    def test_prefix_too_short(self, euclid):
        seq = SequencePrefix([1.0, 0.5], euclid)
        with pytest.raises(PrefixTooShort):
            find_settling_index(seq, ShiftWitness(0.1, 1, 0.5, 1))

    def test_shortest_prefix_scans_one_row(self):
        # N = n0 + p + 1 leaves the one row n = n0 + 1 to scan.  The replay
        # never meets it: the shift check needs N >= n0 + p + 2.
        w = ShiftWitness(1.0, 2, 0.5, 2)
        assert find_settling_index(_table_prefix(5, {}), w) == 2

    def test_offset_of_exactly_the_threshold_does_not_settle(self):
        # Offsets below the threshold pass; one equal to it fails its row.
        w = ShiftWitness(1.0, 1, 0.5, 1)
        threshold = w.delta * (1.0 - w.lam) / 1.0 - ETA
        below = _table_prefix(5, {(2, 3): np.nextafter(threshold, 0.0)})
        assert find_settling_index(below, w) == 1
        assert find_settling_index(_table_prefix(5, {(2, 3): threshold}), w) == 2


class TestBlockInduction:
    def test_halving_trace(self, halving_orbit):
        trace = run_block_induction(halving_orbit, HALVING_WITNESS, settling=3)
        assert trace.depth == 28
        assert trace.zero_branch_steps == 251
        assert trace.band_branch_steps == 533
        # Total step count equals the sum of per-n block counts (N - n) // p
        # over the 55 indices n = 4 .. 58 that have a block.
        assert trace.zero_branch_steps + trace.band_branch_steps == 784
        assert sum((60 - n) // 2 for n in range(4, 61)) == 784

    def test_genuine_metric_constant_all_zero_branch(self, euclid):
        seq = SequencePrefix([1.0] * 10, euclid)
        trace = run_block_induction(seq, ShiftWitness(1.0, 1, 0.5, 1), settling=1)
        assert trace.depth == 8
        assert trace.zero_branch_steps == 36
        assert trace.band_branch_steps == 0

    def test_dislocated_constant_all_band_branch(self):
        # Positive self-distance keeps every previous block in the open band,
        # so every step must be justified through a shift-contraction pair.
        m = make_metric("shifted_dislocated", offset=0.3)
        seq = SequencePrefix([1.0] * 10, m)
        trace = run_block_induction(seq, ShiftWitness(1.0, 1, 0.5, 1), settling=1)
        assert trace.depth == 8
        assert trace.zero_branch_steps == 0
        assert trace.band_branch_steps == 36

    def test_previous_block_at_tolerance_takes_zero_branch(self, euclid):
        # Every previous block is exactly 0 or ETA apart: both count as zero.
        seq = SequencePrefix([0.0, ETA, 0.0, ETA, 0.0], euclid)
        trace = run_block_induction(seq, ShiftWitness(1.0, 1, 0.5, 1), settling=0)
        assert trace == InductionTrace(depth=3, zero_branch_steps=6, band_branch_steps=0)

    def test_failure_carries_location(self, linear_prefix):
        from cauchycert import CertificateFailure

        with pytest.raises(CertificateFailure) as exc:
            run_block_induction(linear_prefix, ShiftWitness(0.5, 1, 0.5, 1), settling=1)
        assert exc.value.stage == "block_induction"
        assert exc.value.where == (2, 1)

    @pytest.mark.parametrize(
        "values, k",
        # The previous block of (2, 2) is exactly ETA: a zero block.
        [([9.0, 1.5, 0.4, 1.0], 1), ([9.0, 0.0, ETA, 1.5], 2)],
    )
    def test_wrong_settling_index_surfaces_as_divergence(self, euclid, values, k):
        # With an honest settling index the justification cannot fail after
        # the direct bound passes; feeding a wrong one must not be accepted.
        seq = SequencePrefix(values, euclid)
        with pytest.raises(DivergenceError, match=rf"zero-branch justification failed at \(n=2, k={k}\)"):
            run_block_induction(seq, ShiftWitness(2.0, 1, 0.5, 1), settling=1)


def _geometric(x0: float, a: float, n: int, noise: list[float]) -> list[float]:
    return [x0 * a**k + noise[k % len(noise)] for k in range(n)]


#: Prefixes for the induction and pair scans: exact dyadic values and multiples of
#: ETA (ties, exact zeros and distances exactly at the tolerance), noisy
#: geometric decay (prefixes that settle, so the induction and pair scan run
#: deep) and arbitrary values (early failures).
SCAN_VALUES = st.one_of(
    st.lists(
        st.sampled_from([0.0, ETA, 2 * ETA] + [k / 8.0 for k in range(17)]), min_size=2, max_size=40
    ),
    st.lists(st.sampled_from([0.0, ETA, 2 * ETA]), min_size=2, max_size=20),
    st.builds(
        _geometric,
        st.floats(-2.0, 2.0),
        st.floats(0.2, 0.99),
        st.integers(2, 40),
        st.lists(st.sampled_from([0.0, 0.0, 1e-4, -1e-3, 0.02]), min_size=1, max_size=5),
    ),
    st.lists(st.floats(0.0, 2.0), min_size=2, max_size=40),
)


def _scan_setup(values, name, s, delta, p, lam, n0):
    seq = SequencePrefix(values, make_metric(name, s=s))
    try:
        seq.distance_matrix()
    except MetricError:  # e.g. max_dislocated on negative values
        assume(False)
    return seq, ShiftWitness(delta, p, lam, n0)


def _result(fn, *args):
    """The return value, or the type, message and location of the raised failure."""
    try:
        return fn(*args)
    except (CertificateFailure, DivergenceError) as exc:
        return type(exc), str(exc), getattr(exc, "where", None)


SCAN_ARGS = dict(
    values=SCAN_VALUES,
    name=st.sampled_from(sorted(available_metrics())),
    s=st.sampled_from([None, 1.0, 2.0, 4.0]),
    delta=st.floats(0.005, 4.0),
    p=st.integers(1, 9),
    lam=st.floats(0.05, 0.95),
    n0=st.integers(1, 10),
    cut=st.integers(0, 12),
    chunk=st.sampled_from([7, 400, metrics._CHUNK]),
)


class TestResidueScansMatchOracles:
    """The induction from per-row summaries equals the chunked pass it
    replaced, the residue-class scan and the per-n loop; the padded pair
    scan, which checks every pair on any ``n_low``, equals the residue-class,
    slab and triu-index scans.

    A chunk of 7 elements makes most scans cross chunk edges, and one of 400
    puts several rows in one pair-scan chunk; ``cut`` is the settling index of the induction (arbitrary, so
    both justification branches can diverge) and the ``n_low`` of the pair
    scan.
    """

    @settings(max_examples=700, deadline=None)
    @given(**SCAN_ARGS)
    # The first failure sits in residue class 1, before a later one in class 0.
    @example(values=[0.0, 0.1, 0.1, -0.7, 0.1, 0.1, 0.1, 0.7, 0.7, 0.7, 0.7, 0.0],
             name="euclid_1d", s=None, delta=1.0, p=3, lam=0.3, n0=1, cut=2, chunk=7)
    # Ties fail: a block of exactly delta - eta (under an understated s),
    # a step of exactly delta (1 - lam) and a shifted block of exactly delta lam.
    @example(values=[0.0, 0.0, 0.5, 1.0],
             name="sq_abs", s=1.0, delta=1.0 + ETA, p=1, lam=0.5, n0=1, cut=0, chunk=7)
    @example(values=[0.0, 0.0, 0.5],
             name="euclid_1d", s=None, delta=1.0, p=1, lam=0.5, n0=1, cut=0, chunk=7)
    @example(values=[0.0, 0.0, 0.25, 0.75],
             name="euclid_1d", s=None, delta=1.0, p=1, lam=0.5, n0=1, cut=0, chunk=7)
    # cut >= N: no rows.
    @example(values=[0.0, 0.5, 0.25, 0.125, 0.0625, 0.0],
             name="euclid_1d", s=None, delta=1.0, p=2, lam=0.5, n0=1, cut=8, chunk=7)
    # p = t: one row per offset and no step.
    @example(values=[0.0, 0.5, 0.25, 0.125, 0.0625, 0.0, 0.0, 0.0],
             name="euclid_1d", s=None, delta=1.0, p=6, lam=0.5, n0=1, cut=2, chunk=400)
    # A band-branch failure at u = t - 1 - p, k = 1: its shifted block is the
    # self-distance of x_N, in the last row of the view.
    @example(values=[0.0, 0.0, 0.0, 0.125, 0.0, 0.0, 0.5],
             name="max_dislocated", s=None, delta=1.0, p=3, lam=0.25, n0=1, cut=1, chunk=7)
    def test_block_induction(self, values, name, s, delta, p, lam, n0, cut, chunk):
        seq, w = _scan_setup(values, name, s, delta, p, lam, n0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", chunk)
            got = _result(run_block_induction, seq, w, cut)
            assert got == _result(chunked_block_induction, seq, w, cut)
            assert got == _result(class_loop_block_induction, seq, w, cut)
        assert got == _result(loop_block_induction, seq, w, cut)

    @settings(max_examples=700, deadline=None)
    @given(**SCAN_ARGS)
    @example(values=[-0.7, 0.7, 0.1, -0.7, 0.0, 0.0, -0.7, -0.7, 0.7, 0.0, 0.1, -0.7],
             name="euclid_1d", s=None, delta=1.0, p=3, lam=0.1, n0=1, cut=2, chunk=7)
    # t = 8 rows in 4 full blocks of p = 2 and no remainder; the first
    # failure is in row 5, block 2.
    @example(values=[-0.7, 0.03, 0.7, 0.03, 0.7, -0.1, 0.0, 0.7, 0.0, -0.7],
             name="euclid_1d", s=None, delta=1.0, p=2, lam=0.1, n0=1, cut=2, chunk=400)
    # p > t: the 5 rows are all remainder, and every pair passes.
    @example(values=[0.0, 0.7, 0.25, 0.01, 0.03, 0.25, 0.25],
             name="euclid_1d", s=None, delta=1.0, p=7, lam=0.1, n0=1, cut=2, chunk=7)
    # The first failure is in row 2 of the remainder.  That needs p > t: a
    # component check fails in a remainder row u only if one fails in row
    # u - p of a full block, which reads the same offset parts.
    @example(values=[0.01, 0.25, 0.03, -0.7, 0.03, 0.03, 0.0, -0.7, 0.01, 0.25],
             name="euclid_1d", s=None, delta=1.0, p=9, lam=0.1, n0=1, cut=5, chunk=7)
    # cut >= N: no pairs.
    @example(values=[0.0, 0.5, 0.25, 0.125, 0.0625, 0.0],
             name="euclid_1d", s=None, delta=1.0, p=2, lam=0.5, n0=1, cut=6, chunk=7)
    # The only pair is (N, N), and its self-distance fails the offset part.
    @example(values=[0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
             name="max_dislocated", s=None, delta=0.5, p=2, lam=0.5, n0=1, cut=5, chunk=7)
    def test_pair_scan(self, values, name, s, delta, p, lam, n0, cut, chunk):
        seq, w = _scan_setup(values, name, s, delta, p, lam, n0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", chunk)
            got = _result(padded_pair_scan, seq, w, cut)
            assert got == _result(slab_pair_scan, seq, w, cut)
            assert got == _result(class_loop_pair_scan, seq, w, cut)
        assert got == _result(triu_pair_scan, seq, w, cut)


#: (entries, delta, lam, the outcome): the first failing block of n = 2 on a
#: table prefix of 5 points at p = 1, from n_low = 1, fails at a tie.  Each
#: failure sits at a block k past another block of its row, or with a later
#: block failing too, so the rescan of the row finds its k by the comparison
#: at the tie alone.
INDUCTION_TIES = {
    # Block 2 is exactly delta - eta.
    "block": ({(2, 4): 1.0 - ETA}, 1.0, 0.5, (CertificateFailure, "rho(x_4, x_2) = ")),
    # Block 2 takes the zero branch, and its step is exactly delta (1 - lam).
    "step": ({(3, 4): 0.25}, 1.0, 0.75, (DivergenceError, "zero-branch justification failed at (n=2, k=2)")),
    # Block 2 takes the band branch, and its shifted block is exactly delta lam.
    "shifted": ({(2, 3): 2 * ETA, (3, 4): 0.75}, 1.0, 0.75,
                (DivergenceError, "band-branch justification failed at (n=2, k=2)")),
    # Block 1 takes the band branch (x_2's self-distance is positive), and
    # the settled offset is exactly delta (1 - lam); block 2 is delta - eta.
    "offset": ({(2, 2): 0.125, (2, 3): 0.25, (2, 4): 1.0 - ETA}, 1.0, 0.75,
               (DivergenceError, "band-branch justification failed at (n=2, k=1)")),
    # The previous block of block 2 is exactly eta: the zero branch, whose
    # step fails where the band branch's shifted block would pass.
    "zero": ({(2, 3): ETA, (3, 4): 0.5}, 1.0, 0.75,
             (DivergenceError, "zero-branch justification failed at (n=2, k=2)")),
}


class TestInductionSummaries:
    """``run_block_induction`` answers every call from the summaries the prefix
    keeps for the last p, from the smallest ``n_low`` asked, as one chunked
    pass over the blocks of each call's own ``n_low`` answers it."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=SCAN_VALUES,
        name=SCAN_ARGS["name"],
        s=SCAN_ARGS["s"],
        n0=st.integers(1, 4),
        calls=st.lists(
            st.tuples(st.sampled_from([1, 2, 3, 5]), st.integers(0, 12),
                      st.floats(0.005, 4.0), st.floats(0.05, 0.95)),
            min_size=2, max_size=8,
        ),
        chunk=SCAN_ARGS["chunk"],
    )
    # The same p with the settling index rising, then falling below the
    # summaries' start; then another p, and the first p again.
    @example(values=[2.0 ** -k for k in range(30)], name="euclid_1d", s=None, n0=1,
             calls=[(2, 3, 0.1, 0.5), (2, 6, 0.05, 0.5), (2, 1, 0.5, 0.5), (1, 1, 0.5, 0.5),
                    (2, 9, 0.05, 0.3)],
             chunk=7)
    def test_one_prefix_answers_many_calls(self, values, name, s, n0, calls, chunk):
        seq, _ = _scan_setup(values, name, s, 1.0, 1, 0.5, n0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", chunk)
            for p, settling, delta, lam in calls:
                w = ShiftWitness(delta, p, lam, n0)
                fresh = SequencePrefix(values, seq.metric)
                expected = _result(chunked_block_induction, fresh, w, settling)
                assert _result(run_block_induction, seq, w, settling) == expected

    @pytest.mark.parametrize("case", list(INDUCTION_TIES))
    def test_ties_fail_at_their_block(self, case):
        entries, delta, lam, (kind, message) = INDUCTION_TIES[case]
        seq = _table_prefix(5, entries)
        w = ShiftWitness(delta, 1, lam, 1)
        got = _result(run_block_induction, seq, w, 0)
        assert got == _result(chunked_block_induction, seq, w, 0)
        assert got == _result(loop_block_induction, seq, w, 0)
        assert got[0] is kind and message in got[1]

    def test_summaries_are_kept_for_their_shift_and_later_cutoffs(self, euclid):
        seq = iterate(make_contraction("halving"), Point(1.0), 60, euclid)
        run_block_induction(seq, HALVING_WITNESS, 3)
        slot = seq._induction
        assert slot[:2] == (2, 3)
        for settling in (3, 5):  # the summaries' own start, then a later one
            _result(run_block_induction, seq, ShiftWitness(0.05, 2, 0.3, 1), settling)
            assert seq._induction is slot
        _result(run_block_induction, seq, HALVING_WITNESS, 2)
        assert seq._induction[:2] == (2, 2)
        _result(run_block_induction, seq, ShiftWitness(0.1, 1, 0.5, 1), 3)
        assert seq._induction[:2] == (1, 3)


def _table_prefix(n: int, entries: dict) -> SequencePrefix:
    """x_i = i - 1, i = 1 .. n, under a metric with s = 1 that looks rho(x_i, x_j)
    up in a table: ``entries[i, j]`` (either order), and 0 elsewhere."""
    table = np.zeros((n, n))
    for (i, j), value in entries.items():
        table[i - 1, j - 1] = table[j - 1, i - 1] = value
    metric = DbMetric("table", 1.0, lambda a, b: table[a[..., 0].astype(int), b[..., 0].astype(int)])
    return SequencePrefix([float(i) for i in range(n)], metric)


def _top_offset(delta, lam):
    """The largest offset part that passes at s = 1."""
    return np.nextafter(delta * (1.0 - lam) - ETA, 0.0)


def _top_block(delta):
    return np.nextafter(delta - ETA, 0.0)


#: (n, entries, delta, p, lam, the pair of a DivergenceError or None when all pass)
PAIR_SCAN_TABLES = {
    # At delta = 2**30 eta is below half an ulp, so the one comparison of the
    # assembled bounds fails and each pair is checked.  The largest offset and
    # block parts, x_4's self-distance and rho(x_2, x_4), sum to the diameter
    # bound at lam = 0.1 and stay below it at lam = 0.5.
    "per_pair_fails": (4, {(4, 4): _top_offset(2.0**30, 0.1), (2, 4): _top_block(2.0**30)},
                       2.0**30, 1, 0.1, (2, 4)),
    "per_pair_passes": (4, {(4, 4): _top_offset(2.0**30, 0.5), (2, 4): _top_block(2.0**30)},
                        2.0**30, 1, 0.5, None),
    # rho(x_2, x_5) equals s (A + B) + eta through x_4: the triangle holds at the tie.
    "triangle_tie": (5, {(2, 4): 0.125, (4, 5): 0.125, (2, 5): 0.25 + ETA}, 1.0, 2, 0.5, None),
    # rho(x_2, x_7) equals fb - eta while the triangle through x_6 and the
    # assembled bound hold, by rounding: the direct bound fails at the tie.
    "direct_tie": (7, {(6, 7): _top_offset(0.1875, 0.5), (2, 6): _top_block(0.1875),
                       (2, 7): 0.1875 * 0.5 + 0.1875 - ETA}, 0.1875, 2, 0.5, (2, 7)),
}


#: Prefixes that often settle: a head, a constant stretch and a short tail of
#: small moves off that constant, whose spread the settling scan may not read.
SETTLED_VALUES = st.one_of(
    st.builds(
        lambda head, c, n, tail: head + [c] * n + [c + v for v in tail],
        st.lists(st.sampled_from([k / 8.0 for k in range(17)]), max_size=8),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.integers(2, 24),
        st.lists(st.sampled_from([0.0, ETA, -ETA, 1 / 64, -1 / 32, 1 / 16, -1 / 8, 0.25, -0.5]),
                 max_size=9),
    ),
    st.builds(
        _geometric,
        st.floats(-2.0, 2.0),
        st.floats(0.2, 0.9),
        st.integers(4, 40),
        st.lists(st.sampled_from([0.0, 0.0, 1e-4, -1e-3]), min_size=1, max_size=5),
    ),
)


class TestPairScanContract:
    """After settling and block induction pass, ``_pair_scan`` from the settling
    index equals the scans that check every pair.

    At scale 1 the tolerance keeps s (theta - eta) + s (delta - eta) below the
    diameter bound, so one comparison proves every assembled bound; at scale
    2**30 it is below half an ulp, the comparison fails, and each pair is
    checked.
    """

    @settings(max_examples=700, deadline=None)
    @given(**{k: v for k, v in SCAN_ARGS.items() if k not in ("values", "cut")},
           values=SETTLED_VALUES, scale=st.sampled_from([1.0, 2.0**30]))
    # p = 2, t = 8 rows: the last p rows start at a multiple of p.
    @example(values=[0.0, 0.5, 0.25, 0.125, 0.0625, 0.0, 0.0, 0.0, 0.0, 0.0],
             name="euclid_1d", s=None, delta=1.0, p=2, lam=0.5, n0=1, chunk=7, scale=1.0)
    # rho(x_7, x_9) = 0.25, among the last p points, equals theta - eta, and fails.
    @example(values=[0.0] * 6 + [-0.125, 0.0, 0.125],
             name="euclid_1d", s=None, delta=0.500000002, p=3, lam=0.5, n0=1, chunk=7, scale=1.0)
    def test_matches_full_scans(self, values, name, s, delta, p, lam, n0, chunk, scale):
        # Distances, and so delta, scale by 2**30; sq_abs squares its values' scale.
        root = scale**0.5 if name == "sq_abs" else scale
        seq, w = _scan_setup([v * root for v in values], name, s, delta * scale, p, lam, n0)
        try:
            settling = find_settling_index(seq, w)
            run_block_induction(seq, w, settling)
        except CauchyCertError:
            assume(False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", chunk)
            got = _result(_pair_scan, seq, w, settling)
            assert got == _result(padded_pair_scan, seq, w, settling)
        assert got == _result(triu_pair_scan, seq, w, settling)

    # The per-pair path and ties of the triangle and of the direct bound.
    @pytest.mark.parametrize("case", sorted(PAIR_SCAN_TABLES))
    def test_tables(self, case):
        n, entries, delta, p, lam, pair = PAIR_SCAN_TABLES[case]
        seq, w = _table_prefix(n, entries), ShiftWitness(delta, p, lam, 1)
        settling = find_settling_index(seq, w)
        run_block_induction(seq, w, settling)
        if case.startswith("per_pair"):  # the comparison that proves every s A + s B fails
            assert not (delta * (1.0 - lam) - ETA + (delta - ETA) < diameter_bound(w, 1.0))
        got = _result(_pair_scan, seq, w, settling)
        assert got == _result(triu_pair_scan, seq, w, settling)
        if pair is None:
            assert got is None
        else:
            assert got[0] is DivergenceError
            assert got[1].startswith(f"pair (n={pair[0]}, m={pair[1]}) passed component checks")


def _certify_view(certify, seq, w):
    """What a caller sees of one certification: the report, the failure and
    the stage verdicts, or the type and message of the raised error."""
    try:
        outcome = certify(seq, w)
    except CauchyCertError as exc:
        return type(exc), str(exc)
    return outcome.to_dict(), outcome.failure_stage, outcome.failure_detail, outcome.stages


HALVING_VALUES = [2.0**-n for n in range(1, 61)]

#: (expected failure stage or None, values, metric, s, delta, p, lam, n0)
PINNED_REPLAYS = [
    ("shift_contraction", HALVING_VALUES, "euclid_1d", None, 0.1, 1, 0.4, 1),
    ("settling_index", [float(k) for k in range(1, 51)], "euclid_1d", None, 0.5, 1, 0.5, 1),
    ("chain_bounds", [2.0**-k for k in range(12)], "sq_abs", 1.0, 0.1, 2, 0.5, 1),
    # Steps of 0.7**2 = 0.49 pass under an understated s = 1; two steps span 1.4**2 = 1.96.
    ("block_induction", [0.7 * k for k in range(12)], "sq_abs", 1.0, 1.0, 1, 0.5, 1),
    ("pair_scan", [0.5, 0.25, 0.125, 0.0625, 0.03, 0.01, 0.0, 0.0, 0.0, -0.03, 0.0, 0.03],
     "euclid_1d", None, 0.1, 3, 0.5, 1),
    (None, HALVING_VALUES, "euclid_1d", None, 0.1, 2, 0.5, 1),
]


#: Prefixes long enough for most witnesses: dyadic values, noisy geometric
#: decay and arithmetic progressions (steps that never decay).
REPLAY_VALUES = st.one_of(
    st.lists(st.sampled_from([0.0, ETA] + [k / 8.0 for k in range(17)]), min_size=8, max_size=40),
    st.builds(
        _geometric,
        st.floats(-2.0, 2.0),
        st.floats(0.2, 0.99),
        st.integers(8, 60),
        st.lists(st.sampled_from([0.0, 0.0, 1e-4, -1e-3, 0.02]), min_size=1, max_size=5),
    ),
    st.builds(lambda step, n: [step * k for k in range(n)], st.floats(0.05, 1.0), st.integers(8, 30)),
)


class TestCertifyMatchesOracle:
    """``certify_cauchy`` equals the stage-by-stage appended assembly."""

    @pytest.mark.parametrize("stage, values, name, s, delta, p, lam, n0", PINNED_REPLAYS)
    def test_pinned(self, stage, values, name, s, delta, p, lam, n0):
        seq = SequencePrefix(values, make_metric(name, s=s))
        w = ShiftWitness(delta, p, lam, n0)
        outcome = certify_cauchy(seq, w)
        assert outcome.failure_stage == stage
        assert outcome.certified is (stage is None)
        failed = STAGES.index(stage) if stage else len(STAGES)
        assert [n for n, _ in outcome.stages] == list(STAGES[: failed + 1])
        assert _certify_view(certify_cauchy, seq, w) == _certify_view(appended_certify_cauchy, seq, w)

    @settings(max_examples=400, deadline=None)
    @given(
        values=REPLAY_VALUES,
        name=st.sampled_from(sorted(available_metrics())),
        s=st.sampled_from([None, 1.0, 2.0]),
        delta=st.floats(0.005, 4.0),
        p=st.integers(1, 5),
        lam=st.floats(0.05, 0.95),
        n0=st.integers(1, 4),
        scale=st.sampled_from([1.0, 2.0**30]),
    )
    def test_random(self, values, name, s, delta, p, lam, n0, scale):
        # At scale 2**30 the pair scan checks the assembled bounds pair by pair.
        root = scale**0.5 if name == "sq_abs" else scale
        seq = SequencePrefix([v * root for v in values], make_metric(name, s=s))
        w = ShiftWitness(delta * scale, p, lam, n0)
        assert _certify_view(certify_cauchy, seq, w) == _certify_view(appended_certify_cauchy, seq, w)


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestCertifyMemory:
    @pytest.fixture(scope="class")
    def orbit(self):
        seq = iterate(make_contraction("affine_1d", a=0.9, b=1.0), Point(0.0), 3000,
                      make_metric("euclid_1d"))
        seq.distance_matrix()
        return seq

    def test_replay_temporaries_stay_below_half_the_matrix(self, orbit):
        # With the matrix built, the replay allocates only masks and chunked
        # temporaries: no stage may hold an N x N float array.
        outcome, peak = _traced_peak(certify_cauchy, orbit, ShiftWitness(0.1, 1, 0.95, 1))
        assert outcome.certified
        assert outcome.certificate.length - outcome.certificate.range_start > 2900
        assert peak < orbit.distance_matrix().nbytes // 2

    def test_matrix_build_allocates_little_beside_the_matrix(self, orbit):
        # The output is allocated once and filled in row chunks.
        matrix, peak = _traced_peak(orbit.metric.matrix, orbit.coords)
        assert peak < matrix.nbytes + 2**20

    def test_nd_matrix_build_counts_coordinates_in_its_chunks(self):
        # euclid_nd's difference is a (rows, N, d) array: chunks sized by
        # pairs alone would hold d times the temporaries.
        coords = np.random.default_rng(0).normal(size=(2000, 16))
        matrix, peak = _traced_peak(make_metric("euclid_nd").matrix, coords)
        assert peak < 1.2 * matrix.nbytes

    def test_shift_scan_temporaries_stay_below_a_sixteenth_of_the_matrix(self, orbit):
        # A delta no other test here scans, so the call builds its shift
        # profile instead of reading one an earlier test left on the orbit.
        report, peak = _traced_peak(check_shift_contraction, orbit, ShiftWitness(0.15, 1, 0.95, 1))
        assert report.holds and report.pairs_triggered > 0
        assert peak < orbit.distance_matrix().nbytes / 16

    def test_induction_summary_temporaries_stay_below_a_sixteenth_of_the_matrix(self, orbit):
        # A p no other test here uses on the orbit, so the call builds its
        # summaries instead of reading the ones an earlier test left.
        w = ShiftWitness(0.1, 3, 0.95, 1)
        settling = find_settling_index(orbit, w)
        assert orbit._induction is None or orbit._induction[0] != w.p
        trace, peak = _traced_peak(run_block_induction, orbit, w, settling)
        assert orbit._induction[:2] == (w.p, settling)
        assert trace.depth > 900
        assert peak < orbit.distance_matrix().nbytes / 16

    def test_search_keeps_one_shift_profile(self, orbit):
        # No witness within p <= 150, so the search builds 150 profiles of
        # 16 bytes a row; kept one per (delta, p), they would pass the limit.
        cfg = SearchConfig(p_max=150, lambdas=(1e-8,), n0_values=(1,))
        found, peak = _traced_peak(search_witness, orbit, 0.3, cfg)
        assert found.witness is None and found.p_max_used == 150
        assert 150 * 16 * (len(orbit) - 152) > orbit.distance_matrix().nbytes / 16
        assert peak < orbit.distance_matrix().nbytes / 16

    @pytest.mark.parametrize("p, delta", [
        pytest.param(1496, 100.0, id="1496"),
        pytest.param(139, 100.0, id="139"),
        pytest.param(1496, 1e9, id="1496-per-pair"),
        pytest.param(139, 1e9, id="139-per-pair"),
    ])
    def test_pair_scan_copies_at_most_one_matrix_of_offsets(self, p, delta):
        # The scan reads the matrix through views; only its masks and row
        # chunks are allocated.  At p near the prefix length the last p rows
        # of offset parts form one p x p block of masks.  At delta = 1e9 the
        # assembled bounds are checked pair by pair, in chunks of rows.
        seq = iterate(make_contraction("affine_1d", a=0.9, b=1.0), Point(0.0), 1500,
                      make_metric("euclid_1d"))
        matrix = seq.distance_matrix()
        w = ShiftWitness(delta, p, 0.5, 1)
        settling = find_settling_index(seq, w)
        _, peak = _traced_peak(_pair_scan, seq, w, settling)
        assert peak <= (1.2 if p == 1496 else 0.2) * matrix.nbytes


class TestCertifyPipeline:
    def test_halving_certificate(self, halving_orbit):
        outcome = certify_cauchy(halving_orbit, HALVING_WITNESS)
        assert outcome.certified
        assert outcome.failure_stage is None
        assert [name for name, ok in outcome.stages if ok] == [
            "consecutive_decay",
            "shift_contraction",
            "settling_index",
            "chain_bounds",
            "block_induction",
            "pair_scan",
        ]
        cert = outcome.certificate
        assert cert.settling_index == 3
        assert cert.range_start == 3
        assert cert.diameter_bound == pytest.approx(0.15)
        assert cert.induction_depth == 28
        assert cert.chain_bounds == ((0, 0.0625), (1, 0.03125), (2, 0.046875))
        assert cert.oracle_tail_diameter == 0.0625
        assert cert.oracle_tail_diameter < cert.diameter_bound

    def test_certificate_oracle_matches_brute_force(self, halving_orbit):
        outcome = certify_cauchy(halving_orbit, HALVING_WITNESS)
        cert = outcome.certificate
        assert cert.oracle_tail_diameter == tail_diameter(halving_orbit, cert.range_start + 1)

    def test_to_dict_round_trip(self, halving_orbit):
        import json

        outcome = certify_cauchy(halving_orbit, HALVING_WITNESS)
        data = json.loads(json.dumps(outcome.to_dict()))
        assert data["certified"] is True
        assert data["certificate"]["witness"] == {"delta": 0.1, "p": 2, "lambda": 0.5, "n0": 1}
        assert len(data["stages"]) == 6

    def test_linear_fails_at_settling(self, linear_prefix):
        outcome = certify_cauchy(linear_prefix, ShiftWitness(0.5, 1, 0.5, 1))
        assert not outcome.certified
        assert outcome.failure_stage == "settling_index"
        assert outcome.certificate is None
        assert outcome.stages[-1] == ("settling_index", False)
        assert "decay" in outcome.failure_detail

    def test_shift_violation_reported(self, halving_orbit):
        outcome = certify_cauchy(halving_orbit, ShiftWitness(0.1, 1, 0.4, 1))
        assert not outcome.certified
        assert outcome.failure_stage == "shift_contraction"
        assert outcome.shift.violating_pair == (3, 5)

    def test_failure_holds_no_reference_to_the_prefix(self, euclid):
        # Without the cyclic collector the prefix, and its matrix, go as soon as
        # the caller drops them: no frame of the failed replay stays reachable.
        seq = SequencePrefix([float(k) for k in range(1, 51)], euclid)
        ref = weakref.ref(seq)
        gc.disable()
        try:
            outcome = certify_cauchy(seq, ShiftWitness(0.5, 1, 0.5, 1))
            del seq
            assert ref() is None
        finally:
            gc.enable()
        assert outcome.failure_stage == "settling_index"

    def test_decay_report_always_recorded(self, linear_prefix):
        outcome = certify_cauchy(linear_prefix, ShiftWitness(0.5, 1, 0.5, 1))
        assert outcome.decay.tail_max == 1.0
        assert not outcome.decay.holds

    def test_understated_s_fails_chain_stage(self):
        seq = SequencePrefix(
            [2.0**-k for k in range(12)], make_metric("sq_abs", s=1.0)
        )
        outcome = certify_cauchy(seq, ShiftWitness(0.1, 2, 0.5, 1))
        assert not outcome.certified
        assert outcome.failure_stage == "chain_bounds"
        assert "n=3, q=2" in outcome.failure_detail

    def test_correct_s_certifies_same_data(self):
        seq = SequencePrefix([2.0**-k for k in range(12)], make_metric("sq_abs"))
        outcome = certify_cauchy(seq, ShiftWitness(0.1, 2, 0.5, 1))
        assert outcome.certified
        assert outcome.certificate.settling_index == 3

    def test_pair_scan_guards_uncovered_tail_edge(self, euclid):
        # The last p - 1 indices are outside the settling scan; a spread that
        # hides there passes every earlier stage and must still be caught.
        values = [0.5, 0.25, 0.125, 0.0625, 0.03, 0.01, 0.0, 0.0, 0.0, -0.03, 0.0, 0.03]
        seq = SequencePrefix(values, euclid)
        outcome = certify_cauchy(seq, ShiftWitness(0.1, 3, 0.5, 1))
        assert not outcome.certified
        assert outcome.failure_stage == "pair_scan"
        assert "n=7, m=12" in outcome.failure_detail
        assert dict(outcome.stages)["block_induction"] is True

    def test_dislocated_sequence_certifies(self):
        # Decaying towards 0 under max(x, y): self-distances shrink with the
        # points, so the dislocated instance still certifies.
        m = make_metric("max_dislocated")
        seq = SequencePrefix([2.0**-k for k in range(1, 41)], m)
        delta = 0.1
        found = search_witness(seq, delta)
        assert found.witness is not None
        outcome = certify_cauchy(seq, found.witness)
        assert outcome.certified
        assert outcome.certificate.oracle_tail_diameter < outcome.certificate.diameter_bound

    def test_short_prefix_propagates(self, euclid):
        seq = SequencePrefix([1.0, 0.5, 0.25], euclid)
        with pytest.raises(PrefixTooShort):
            certify_cauchy(seq, ShiftWitness(0.1, 1, 0.5, 1))


class TestCertifyOverGrid:
    def test_halving_all_deltas(self, halving_orbit):
        results = certify_over_grid(
            halving_orbit,
            delta_grid(),
            lambda d: search_witness(halving_orbit, d).witness,
        )
        assert len(results) == 7
        assert all(e.outcome.certified and e.note is None for e in results)
        assert [e.delta for e in results] == delta_grid()
        # Each entry replays the witness the search returns on its own.
        for e in results:
            assert e.witness == search_witness(halving_orbit, e.delta).witness
            assert e.outcome == certify_cauchy(halving_orbit, e.witness)
        # Certified diameters shrink with the grid.
        bounds = [e.outcome.certificate.diameter_bound for e in results]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_none_witness_passes_through(self, halving_orbit):
        results = certify_over_grid(halving_orbit, [0.1], lambda d: None)
        assert results == [(0.1, None, None, None)]

    def test_linear_fails_everywhere(self, linear_prefix):
        results = certify_over_grid(
            linear_prefix,
            [0.5, 0.25],
            lambda d: ShiftWitness(d, 1, 0.5, 1),
        )
        assert all(not e.outcome.certified for e in results)
        assert {e.outcome.failure_stage for e in results} == {"settling_index"}

    def test_short_prefix_is_a_note_on_both_paths(self, euclid):
        seq = SequencePrefix([1.0, 0.5, 0.25, 0.125, 0.0625], euclid)
        tight = SearchConfig(n0_values=(4,))  # no shift fits: the search itself raises

        explicit = certify_over_grid(seq, [0.1, 0.05], lambda d: ShiftWitness(d, 8, 0.5, 1))
        searched = certify_over_grid(seq, [0.1], lambda d: search_witness(seq, d, tight).witness)

        assert [e.witness.p for e in explicit] == [8, 8]
        assert all(e.outcome is None and "need N >=" in e.note for e in explicit)
        assert searched[0].witness is None and searched[0].outcome is None
        assert "too short" in searched[0].note

    def test_search_without_witness_is_passed_through(self, linear_prefix):
        results = certify_over_grid(
            linear_prefix, [0.5], lambda d: search_witness(linear_prefix, d).witness
        )
        # x_n = n leaves the band empty, so the first grid witness holds vacuously.
        assert results[0].witness == ShiftWitness(0.5, 1, 0.1, 1)
        assert results[0].outcome.failure_stage == "settling_index"

        # At delta just above the unit step, adjacent pairs trigger and a shift
        # never contracts them: no grid witness holds.
        results = certify_over_grid(
            linear_prefix, [1.01], lambda d: search_witness(linear_prefix, d).witness
        )
        assert results == [(1.01, None, None, None)]
