"""Sequence prefixes, the two finite-prefix conditions, oracle, and search."""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cauchycert import (
    ETA,
    DbMetric,
    MetricError,
    PrefixTooShort,
    SearchConfig,
    SequencePrefix,
    ShiftWitness,
    TailConfig,
    check_consecutive_decay,
    certify_cauchy,
    check_shift_contraction,
    consecutive_distances,
    make_metric,
    search_witness,
    tail_diameter,
)
from cauchycert import metrics
from cauchycert.metrics import available_metrics
from cauchycert.sequences import (
    GENERATORS,
    _shift_profile,
    _triggered,
    arithmetic_sequence,
    available_generators,
    constant_sequence,
    default_n0_grid,
    geometric_sequence,
    make_sequence,
)
from oracles import (
    argwhere_shift_contraction,
    chunked_shift_contraction,
    loop_consecutive_decay,
    loop_search_witness,
    copied_extension_matrix,
    masked_triggered,
    oneshot_shift_contraction,
    pair_distance,
    rebuilt_shift_profile,
    row_offsets,
    triu_tail_diameter,
)


def _outcome(scan, seq, w):
    """The report, or the message of the ``PrefixTooShort`` raised."""
    try:
        return scan(seq, w)
    except PrefixTooShort as exc:
        return str(exc)


def _search_outcome(search, seq, delta, cfg):
    """The search's ``to_dict()``, or the type and message of its exception."""
    try:
        return search(seq, delta, cfg).to_dict()
    except Exception as exc:
        return type(exc), str(exc)


class TestSequencePrefix:
    def test_needs_two_points(self, euclid):
        with pytest.raises(PrefixTooShort):
            SequencePrefix([1.0], euclid)

    def test_dimensions_must_agree(self):
        m = make_metric("euclid_nd")
        with pytest.raises(ValueError):
            SequencePrefix([[1.0], [1.0, 2.0]], m)

    def test_one_based_indexing(self, euclid):
        seq = SequencePrefix([10.0, 20.0, 30.0], euclid)
        assert seq.point(1).tolist() == [10.0]
        assert seq.point(3).tolist() == [30.0]
        assert pair_distance(seq, 1, 3) == 20.0
        for bad in (0, 4):
            with pytest.raises(IndexError):
                seq.point(bad)

    def test_distance_matrix_matches_pairwise(self, euclid):
        seq = SequencePrefix([1.0, 4.0, 9.0], euclid)
        dm = seq.distance_matrix()
        for n in range(1, 4):
            for m in range(1, 4):
                assert dm[n - 1, m - 1] == pair_distance(seq, n, m)
        assert np.array_equal(dm, dm.T)

    def test_matrix_built_once_per_prefix(self, monkeypatch):
        calls = []
        build = DbMetric.matrix

        def counted(metric, coords):
            calls.append(len(coords))
            return build(metric, coords)

        monkeypatch.setattr(DbMetric, "matrix", counted)
        seq = SequencePrefix([2.0**-k for k in range(1, 61)], make_metric("euclid_1d"))
        found = search_witness(seq, 0.1)
        outcome = certify_cauchy(seq, found.witness)
        assert outcome.certified
        assert tail_diameter(seq, 1) == 0.5 - 2.0**-60
        assert calls == [60]

    def test_matrix_is_read_only(self, euclid):
        seq = SequencePrefix([1.0, 4.0, 9.0], euclid)
        dm = seq.distance_matrix()
        with pytest.raises(ValueError):
            dm[0, 1] = 0.0
        with pytest.raises(ValueError):
            seq.coords[0, 0] = 0.0
        assert seq.distance_matrix() is dm
        assert dm[0, 1] == 3.0

    def test_consecutive_distances(self, linear_prefix):
        steps = consecutive_distances(linear_prefix)
        assert isinstance(steps, np.ndarray)
        assert steps.tolist() == [1.0] * 49


#: A metric outside the registry, asymmetric so that rows and columns differ.
ASYMMETRIC = DbMetric(
    name="asymmetric", s=1.0, rows_fn=lambda a, b: np.abs(a[..., 0] - 0.5 * b[..., 0]), dim=1
)


class TestExtend:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 4.0), min_size=3, max_size=30),
        cuts=st.tuples(st.integers(2, 30), st.integers(0, 30)),
        name=st.sampled_from(sorted(available_metrics()) + ["asymmetric"]),
        built=st.tuples(st.booleans(), st.booleans()),
    )
    def test_matrix_equals_a_fresh_build(self, values, cuts, name, built):
        # Two extensions, with or without a built matrix before each: the
        # copied block and the new rows and columns must match bit for bit.
        metric = ASYMMETRIC if name == "asymmetric" else make_metric(name)
        points = [[v, 1.0 - v] for v in values] if name == "euclid_nd" else values
        first = min(cuts[0], len(points))
        second = min(first + cuts[1], len(points))
        seq = SequencePrefix(points[:first], metric)
        if built[0]:
            seq.distance_matrix()
        seq = seq.extend(points[first:second])
        if built[1]:
            seq.distance_matrix()
        seq = seq.extend(points[second:])
        fresh = SequencePrefix(points, metric)
        assert np.array_equal(seq.coords, fresh.coords)
        got = seq.distance_matrix()
        assert got.tobytes() == fresh.distance_matrix().tobytes()
        assert not got.flags.writeable

    def test_only_the_first_matrix_is_a_full_build(self, monkeypatch):
        calls = []
        build = DbMetric.matrix

        def counted(metric, coords):
            calls.append(len(coords))
            return build(metric, coords)

        monkeypatch.setattr(DbMetric, "matrix", counted)
        seq = SequencePrefix([1.0, 2.0, 4.0], make_metric("euclid_1d"))
        seq.distance_matrix()
        for block in ([8.0], [16.0, 32.0]):
            seq = seq.extend(block)
            seq.distance_matrix()
        assert calls == [3]
        assert seq.distance_matrix()[0, 5] == 31.0
        # A prefix extended before building its matrix builds the longer one in full.
        seq = SequencePrefix([1.0, 2.0], make_metric("euclid_1d")).extend([4.0])
        seq.distance_matrix()
        assert calls == [3, 3]

    @pytest.mark.parametrize("spare", [False, True])
    def test_a_copy_holds_nothing_of_the_shorter_prefix(self, euclid, spare):
        # Past the capacity of the shorter prefix's buffer (a fresh build has
        # none to spare, a grown one C = 5 here), the longer prefix copies its
        # matrix; the shorter one's buffer dies with it, without gc.
        a = SequencePrefix([1.0, 2.0, 4.0], euclid)
        a.distance_matrix()
        if spare:
            a = a.extend([8.0])
        buffer = weakref.ref(a.distance_matrix().base)
        b = a.extend(np.arange(8.0))
        del a
        assert buffer() is None
        assert b.distance_matrix().tobytes() == SequencePrefix(b.coords, euclid).distance_matrix().tobytes()

    def test_new_points_are_validated(self, euclid):
        seq = SequencePrefix([1.0, 2.0], euclid)
        with pytest.raises(MetricError, match="x_4"):
            seq.extend([3.0, float("inf")])
        assert seq.extend([]) is seq


def _check_grown(seq: SequencePrefix, w: ShiftWitness) -> None:
    """``seq``'s matrix, shift report and shift profile at ``w`` equal the
    oracles' on a fresh prefix of the same points."""
    fresh = SequencePrefix(seq.coords, seq.metric)
    got = seq.distance_matrix()
    assert got.tobytes() == fresh.distance_matrix().tobytes()
    assert not got.flags.writeable
    expected = _outcome(chunked_shift_contraction, fresh, w)
    assert _outcome(check_shift_contraction, seq, w) == expected
    if not isinstance(expected, str):
        start, count, rowmax = _shift_profile(seq, w.delta, w.p, w.n0)
        oracle = rebuilt_shift_profile(fresh, w.delta, w.p, start)
        assert start == oracle[0] <= w.n0
        assert count.tolist() == oracle[1].tolist()
        assert rowmax.tolist() == oracle[2].tolist()


#: (delta, p, lam, n0) candidates; few enough that a grown prefix often
#: scans the (delta, p) its shorter prefix left in the profile slot.
_GROWN_WITNESSES = st.tuples(
    st.sampled_from([0.3, 1.0]), st.integers(1, 3), st.sampled_from([0.25, 0.9]), st.integers(1, 6)
)


class TestGrownPrefix:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, ETA, 0.125, 0.25, 0.5, 1.0]) | st.floats(0.0, 2.0),
            min_size=2,
            max_size=40,
        ),
        name=st.sampled_from(["euclid_1d", "euclid_nd", "asymmetric"]),
        first=st.integers(2, 12),
        # Per extend: the points added (0 is an empty extend), whether the
        # shorter prefix builds its matrix and scans a witness first.
        steps=st.lists(st.tuples(st.integers(0, 12), st.booleans(), _GROWN_WITNESSES), max_size=3),
        last=_GROWN_WITNESSES,
        twice=st.integers(0, 2),
        chunk=st.sampled_from([3, 7, metrics._CHUNK]),
    )
    def test_chain_of_extends_equals_fresh_builds(self, values, name, first, steps, last, twice, chunk):
        metric = ASYMMETRIC if name == "asymmetric" else make_metric(name)
        points = np.array([[v, 1.0 - v] for v in values] if name == "euclid_nd" else values)
        seq = SequencePrefix(points[:first], metric)
        at = len(seq)
        built = []  # (prefix, its matrix bytes) for every prefix built
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", chunk)
            mp.setattr(metrics, "_BUILD_CHUNK", chunk)
            for i, (size, build, candidate) in enumerate(steps):
                if build:
                    _check_grown(seq, ShiftWitness(*candidate))
                    built.append((seq, seq.distance_matrix().tobytes()))
                block = points[at : at + size]
                at += len(block)
                child = seq.extend(block)
                assert (child is seq) == (not len(block))
                if i == twice:
                    # The same shorter prefix extended a second time, by
                    # other points; its first child is built after it.
                    sibling = seq.extend(block[::-1] + 0.5)
                    _check_grown(sibling, ShiftWitness(*last))
                    built.append((sibling, sibling.distance_matrix().tobytes()))
                if build and len(block):
                    base = seq.distance_matrix()
                    assert child.distance_matrix().tobytes() == copied_extension_matrix(base, child).tobytes()
                seq = child
            _check_grown(seq, ShiftWitness(*last))
            # Longer prefixes grow into the buffer, never into a shorter
            # prefix's own corner.
            for prefix, matrix in built:
                assert prefix.distance_matrix().tobytes() == matrix

    def test_a_prefix_that_fits_takes_the_buffer(self, euclid):
        # At capacity C = ceil(5 N / 4) the buffer is taken; one point more
        # and the longer prefix copies.
        seq = SequencePrefix([1.0, 2.0, 4.0], euclid)
        seq.distance_matrix()
        grown = seq.extend([8.0, 16.0, 32.0, 64.0, 128.0])
        dm = grown.distance_matrix()
        assert dm.strides[0] // dm.itemsize == 10
        fits = grown.extend([256.0, 512.0])
        assert np.shares_memory(fits.distance_matrix(), dm)
        # A second longer prefix of the same prefix copies.
        again = grown.extend([256.0, 512.0])
        assert not np.shares_memory(again.distance_matrix(), dm)
        over = fits.extend([1024.0])
        assert not np.shares_memory(over.distance_matrix(), dm)
        assert over.distance_matrix().tobytes() == SequencePrefix(over.coords, euclid).distance_matrix().tobytes()

    def test_profile_is_kept_at_its_own_length_and_cutoff(self, euclid):
        seq = SequencePrefix([2.0**-k for k in range(12)], euclid)
        profile = _shift_profile(seq, 0.3, 2, 3)
        assert all(a is b for a, b in zip(_shift_profile(seq, 0.3, 2, 3), profile))
        assert all(a is b for a, b in zip(_shift_profile(seq, 0.3, 2, 5), profile))
        grown = seq.extend([2.0**-12])
        longer = _shift_profile(grown, 0.3, 2, 3)
        assert len(longer[1]) == len(profile[1]) + 1
        assert all(a is b for a, b in zip(_shift_profile(grown, 0.3, 2, 3), longer))


def _kernel_points(pieces, delta: float, seed: int) -> np.ndarray:
    """1-D points built from (kind, length) pieces at one ``delta``.

    ``period2`` alternates between 0 and 2 delta with noise below delta / 5,
    so its rows trigger every other column; ``decay`` is delta * 0.9^k, whose
    rows trigger one run of columns each; ``ties`` draws from
    {0, ETA, delta - ETA, delta}, whose distances tie both trigger bounds;
    ``dead`` points lie 10 apart and far from every other piece, so their
    rows trigger nothing; ``random`` is uniform on [0, 2 delta).
    """
    rng = np.random.default_rng(seed)
    out = []
    for i, (kind, size) in enumerate(pieces):
        k = np.arange(size)
        if kind == "period2":
            out.append(delta + (-1.0) ** k * delta + rng.uniform(0.0, delta / 5, size))
        elif kind == "decay":
            out.append(delta * 0.9**k)
        elif kind == "ties":
            out.append(rng.choice([0.0, ETA, delta - ETA, delta], size))
        elif kind == "dead":
            out.append(1e4 * (i + 1) + 10.0 * k)
        else:
            out.append(rng.uniform(0.0, 2 * delta, size))
    return np.concatenate(out)


_PIECES = st.lists(
    st.tuples(st.sampled_from(["period2", "decay", "ties", "dead", "random"]), st.integers(1, 150)),
    min_size=1,
    max_size=5,
)


class TestTriggeredKernel:
    """``_triggered`` (at most 64 rows a chunk from the diagonal on, and a
    masked or a blended maximum over each chunk's live rows) against
    ``masked_triggered`` (chunks bounded by elements, ``where=`` maxima)."""

    @settings(max_examples=300, deadline=None)
    @given(
        pieces=_PIECES,
        delta=st.sampled_from([0.3, 1.0]),
        # max_dislocated has positive self-distances, so the diagonal counts.
        name=st.sampled_from(["euclid_1d", "sq_abs", "max_dislocated"]),
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 4),
        chunk=st.sampled_from([7, 400, metrics._CHUNK]),
        data=st.data(),
    )
    # Past the 64-row cap: one period-2 run, one decaying run; and dead rows
    # before, between and after live ones, with a dead stretch that fills
    # whole chunks.
    @example(pieces=[("period2", 300)], delta=0.3, name="sq_abs", seed=0, p=1, chunk=metrics._CHUNK, data=None)
    @example(pieces=[("decay", 300)], delta=0.3, name="euclid_1d", seed=0, p=1, chunk=metrics._CHUNK, data=None)
    @example(
        pieces=[("dead", 20), ("period2", 40), ("dead", 140), ("ties", 30), ("decay", 70), ("dead", 30)],
        delta=1.0, name="euclid_1d", seed=1, p=2, chunk=metrics._CHUNK, data=None,
    )
    def test_equals_the_masked_kernel(self, pieces, delta, name, seed, p, chunk, data):
        points = _kernel_points(pieces, delta, seed)
        assume(len(points) >= p + 2)
        dm = SequencePrefix(points, make_metric(name)).distance_matrix()
        n = dm.shape[0]
        if data is None:  # the examples: every row, a ``left`` inside
            bounds = [(0, 0, n - p), (0, n // 3, n - p), (n // 5, n - p - 1, n - p)]
        else:
            end = data.draw(st.integers(1, n - p), label="end")
            lo = data.draw(st.integers(0, end - 1), label="lo")
            left = data.draw(st.integers(lo, end) | st.just(lo), label="left")
            bounds = [(lo, left, end)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", chunk)
            for lo, left, end in bounds:
                count, rowmax = _triggered(dm, delta, p, lo, left, end)
                want_count, want_max = masked_triggered(dm, delta, p, lo, left, end)
                assert count.tolist() == want_count.tolist()
                assert rowmax.tolist() == want_max.tolist()
                assert (rowmax == -np.inf).tolist() == (count == 0).tolist()

    def test_dead_chunks_and_ties(self, euclid):
        # Rows 0-69 trigger nothing (rows 0-63 are one whole chunk); rows
        # 70-73 hold values that tie both trigger bounds, and row 73 is dead
        # between live rows; rows 74-129 alternate between two levels far
        # from the rest; rows 130-199 are dead again.
        delta = 0.5
        values = np.concatenate([
            1e4 + 10.0 * np.arange(70),
            [0.0, ETA, delta - ETA, 0.25],
            2.0 + np.tile([0.0, 2 * delta], 28) + 0.001 * np.arange(56),
            2e4 + 10.0 * np.arange(70),
        ])
        dm = SequencePrefix(values, euclid).distance_matrix()
        count, rowmax = _triggered(dm, delta, 1, 0, 0, 199)
        want_count, want_max = masked_triggered(dm, delta, 1, 0, 0, 199)
        assert count.tolist() == want_count.tolist()
        assert rowmax.tolist() == want_max.tolist()
        # 0 meets ETA and delta - ETA, both untriggered, and 0.25; ETA meets
        # delta - ETA (at delta - 2 ETA) and 0.25.
        assert count[70:74].tolist() == [1, 2, 1, 0]
        assert count[:70].sum() == count[130:].sum() == 0
        assert count[74:128].tolist() == [27 - i // 2 for i in range(54)]


class TestRowOffsets:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 4.0), min_size=2, max_size=20),
        cut=st.integers(0, 20),
        shared=st.booleans(),
        lo=st.integers(0, 22),
        data=st.data(),
    )
    def test_view_reads_the_matrix(self, values, cut, shared, lo, data):
        # A fresh matrix, or (for 2 <= cut < N) one grown by extend: a corner
        # with spare capacity, whose spare columns a longer prefix has filled
        # when ``shared``.
        n = len(values)
        if 2 <= cut < n:
            seq = SequencePrefix(values[:cut], ASYMMETRIC)
            seq.distance_matrix()
            seq = seq.extend(values[cut:])
            dm = seq.distance_matrix()
            assert dm.base.size > n * (n + 2)
            if shared:
                child = seq.extend(values[: dm.strides[0] // dm.itemsize - n])
                assert np.shares_memory(child.distance_matrix(), dm)
        else:
            seq = SequencePrefix(values, ASYMMETRIC)
        dm = seq.distance_matrix()
        width = data.draw(st.integers(0, 2 * n + 1), label="width")
        view = seq.offsets(lo, width)
        assert view.shape == (max(n - lo, 0), width)
        assert not view.flags.writeable
        assert np.all(np.isfinite(view))  # the entries past the matrix too
        # The oracle checks the layout that ``offsets`` takes on trust: the
        # corner starts a flat (C, C) buffer padded by 2C zeros.
        assert np.array_equal(view, row_offsets(dm, lo, width))
        assert np.array_equal(seq.offsets(n, width), row_offsets(dm, n, width))
        for u in range(view.shape[0]):
            row = [dm[lo + u, lo + u + m] for m in range(min(width, n - lo - u))]
            assert view[u, : len(row)].tolist() == row


class TestWitnessValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0, "p": 1, "lam": 0.5, "n0": 1},
            {"delta": -1.0, "p": 1, "lam": 0.5, "n0": 1},
            {"delta": 0.1, "p": 0, "lam": 0.5, "n0": 1},
            {"delta": 0.1, "p": 1.5, "lam": 0.5, "n0": 1},
            {"delta": 0.1, "p": 1, "lam": 0.0, "n0": 1},
            {"delta": 0.1, "p": 1, "lam": 1.0, "n0": 1},
            {"delta": 0.1, "p": 1, "lam": 0.5, "n0": 0},
            {"delta": 0.1, "p": True, "lam": 0.5, "n0": 1},
            {"delta": 0.1, "p": 1, "lam": 0.5, "n0": True},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ShiftWitness(**kwargs)

    def test_to_dict_uses_lambda_key(self):
        w = ShiftWitness(delta=0.1, p=2, lam=0.5, n0=3)
        assert w.to_dict() == {"delta": 0.1, "p": 2, "lambda": 0.5, "n0": 3}

    def test_tail_config_validation(self):
        with pytest.raises(ValueError):
            TailConfig(tau=0.0)
        with pytest.raises(ValueError):
            TailConfig(tau=1.5)
        with pytest.raises(ValueError):
            TailConfig(eps=-1.0)


class TestConsecutiveDecay:
    def test_halving_orbit(self, halving_orbit):
        report = check_consecutive_decay(halving_orbit)
        assert report.holds
        assert report.window_start == 30  # ceil(0.5 * 59)
        assert report.tail_max == 2.0**-31
        assert report.first_good_index == 19  # 2**-20 <= 1e-6 < 2**-19
        assert report.eps == 1e-6

    def test_linear_fails_with_unit_tail(self, linear_prefix):
        report = check_consecutive_decay(linear_prefix)
        assert not report.holds
        assert report.tail_max == 1.0
        assert report.first_good_index is None

    def test_constant_sequence_trivially_holds(self, euclid):
        seq = SequencePrefix([5.0] * 10, euclid)
        report = check_consecutive_decay(seq)
        assert report.holds
        assert report.tail_max == 0.0
        assert report.first_good_index == 1

    def test_dislocated_constant_fails(self):
        # Self-distance never decays under max(x, y), and the check sees it.
        m = make_metric("max_dislocated")
        seq = SequencePrefix([1.0] * 10, m)
        report = check_consecutive_decay(seq)
        assert not report.holds
        assert report.tail_max == 1.0

    def test_full_window(self, halving_orbit):
        report = check_consecutive_decay(halving_orbit, TailConfig(tau=1.0))
        assert report.window_start == 59
        assert report.tail_max == 2.0**-60

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.floats(0.0, 2.0), min_size=2, max_size=3),
            st.lists(st.floats(0.0, 2.0), min_size=2, max_size=40),
            st.lists(st.sampled_from([0.0, 1e-6, 2e-6, 0.5, 1.0]), min_size=2, max_size=40),
            st.builds(lambda n, r: [r**k for k in range(n)], st.integers(2, 40), st.floats(0.01, 0.9)),
        ),
        name=st.sampled_from(sorted(available_metrics())),
        tau=st.sampled_from([1e-300, 1e-9, 0.5, 1.0]) | st.floats(0.0, 1.0, exclude_min=True),
        eps_from=st.sampled_from(["a step", "every step", "below every step", "free"]),
        pick=st.integers(0, 100),
        free=st.floats(0.0, 2.0),
    )
    @example(values=[1.0, 0.5], name="euclid_1d", tau=1.0, eps_from="a step", pick=0, free=0.0)
    @example(values=[1.0, 3.0], name="broken_asym", tau=1e-300, eps_from="free", pick=0, free=0.5)
    def test_matches_loop_oracle(self, values, name, tau, eps_from, pick, free):
        # Steps equal to eps, all steps good, all steps bad, and any eps.
        seq = SequencePrefix(values, make_metric(name))
        steps = consecutive_distances(seq)
        eps = {
            "a step": float(steps[pick % len(steps)]),
            "every step": float(np.max(steps)),
            "below every step": max(float(np.nextafter(np.min(steps), -np.inf)), 0.0),
            "free": free,
        }[eps_from]
        tail = TailConfig(tau=tau, eps=eps)
        got = check_consecutive_decay(seq, tail).to_dict()
        expected = loop_consecutive_decay(seq, tail).to_dict()
        assert got == expected
        assert repr(got) == repr(expected)  # the same Python types, so the same JSON


class TestShiftContraction:
    def test_halving_substantive_witness(self, halving_orbit):
        report = check_shift_contraction(halving_orbit, ShiftWitness(0.1, 2, 0.5, 1))
        assert report.holds
        assert report.pairs_checked == 1653  # 57 * 58 / 2
        assert report.pairs_triggered == 1080
        assert report.violating_pair is None

    def test_halving_violation_located(self, halving_orbit):
        report = check_shift_contraction(halving_orbit, ShiftWitness(0.1, 1, 0.4, 1))
        assert not report.holds
        assert report.pairs_checked == 1711
        assert report.pairs_triggered == 1106
        assert report.violating_pair == (3, 5)
        # The reported pair really is a violation: in band, shifted too large.
        base = pair_distance(halving_orbit, 3, 5)
        shifted = pair_distance(halving_orbit, 4, 6)
        assert ETA < base < 0.1 - ETA
        assert not (shifted < 0.1 * 0.4 - ETA)

    def test_linear_vacuous(self, linear_prefix):
        report = check_shift_contraction(linear_prefix, ShiftWitness(0.5, 1, 0.5, 1))
        assert report.holds
        assert report.pairs_triggered == 0
        assert report.pairs_checked == 1176  # 48 * 49 / 2

    def test_diagonal_self_distances_participate(self):
        # Constant sequence at offset 1: every pair (including n = m) sits in
        # the band (0, 2), and shifting cannot contract a fixed self-distance.
        m = make_metric("shifted_dislocated", offset=1.0)
        seq = SequencePrefix([1.0] * 5, m)
        report = check_shift_contraction(seq, ShiftWitness(2.0, 1, 0.5, 1))
        assert not report.holds
        assert report.violating_pair == (2, 2)
        assert report.pairs_triggered == 6

    def test_shifted_distance_on_the_bound_violates(self, euclid):
        # The shifted distance of (2, 3) is exactly delta * lam - eta, and the
        # condition asks for strictly less.
        seq = SequencePrefix([0.0, 0.25, 0.0, 0.5 - ETA], euclid)
        report = check_shift_contraction(seq, ShiftWitness(1.0, 1, 0.5, 1))
        assert pair_distance(seq, 3, 4) == 1.0 * 0.5 - ETA
        assert not report.holds
        assert report.violating_pair == (2, 3)
        assert report.pairs_triggered == 1

    def test_rescan_skips_pairs_on_the_band_edges(self, euclid):
        # Row n = 2 meets base distances of exactly eta (2, 3) and delta - eta
        # (2, 4), both outside the open band though their shifted distances
        # pass the bound, before its first violating pair (2, 5).
        high = 0.5 - ETA
        seq = SequencePrefix([5.0, 0.0, ETA, high, 0.3, 0.6], euclid)
        assert [pair_distance(seq, 2, m) for m in (3, 4)] == [ETA, high]
        w = ShiftWitness(0.5, 1, 0.5, 1)
        report = check_shift_contraction(seq, w)
        assert report.violating_pair == (2, 5)
        assert report == argwhere_shift_contraction(seq, w)

    def test_prefix_too_short(self, euclid):
        seq = SequencePrefix([1.0, 0.5, 0.25], euclid)
        with pytest.raises(PrefixTooShort):
            check_shift_contraction(seq, ShiftWitness(0.1, 1, 0.5, 1))

    def test_matches_independent_loop(self, halving_orbit):
        # Plain double loop over the same index range as ground truth.
        w = ShiftWitness(0.05, 1, 0.3, 2)
        n = len(halving_orbit)
        triggered = 0
        violating = None
        for i in range(w.n0 + 1, n - w.p + 1):
            for j in range(i, n - w.p + 1):
                base = pair_distance(halving_orbit, i, j)
                if ETA < base < w.delta - ETA:
                    triggered += 1
                    shifted = pair_distance(halving_orbit, i + w.p, j + w.p)
                    if not (shifted < w.delta * w.lam - ETA) and violating is None:
                        violating = (i, j)
        report = check_shift_contraction(halving_orbit, w)
        assert report.pairs_triggered == triggered
        assert report.violating_pair == violating
        assert report.holds == (violating is None)

    @settings(max_examples=600, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.floats(0.0, 2.0), min_size=2, max_size=40),
            # Ties and distances on the band edges.
            st.lists(
                st.sampled_from([0.0, ETA, 2 * ETA, 0.125, 0.25, 0.5, 1.0]), min_size=2, max_size=40
            ),
        ),
        name=st.sampled_from(sorted(available_metrics())),
        s=st.sampled_from([1.0, 2.0]),
        delta=st.floats(0.01, 3.0),
        p=st.integers(1, 6),
        lam=st.floats(0.05, 0.95),
        n0=st.integers(1, 8),
        chunk=st.sampled_from([7, 64, metrics._CHUNK]),
    )
    def test_matches_argwhere_oracle(self, values, name, s, delta, p, lam, n0, chunk):
        # The profile scan equals the row-chunked and whole-triangle scans it
        # replaced and the argwhere listing, report for report and message
        # for message.
        seq = SequencePrefix(values, make_metric(name, s=s))
        w = ShiftWitness(delta, p, lam, n0)
        expected = _outcome(oneshot_shift_contraction, seq, w)
        assert _outcome(argwhere_shift_contraction, seq, w) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", chunk)
            assert _outcome(chunked_shift_contraction, seq, w) == expected
            assert _outcome(check_shift_contraction, seq, w) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            # Distances inside the tiny band (ETA, 3 ETA) trigger at delta =
            # 4 ETA, where lam <= 0.25 puts the bound at or below zero.
            st.sampled_from([0.0, 1.5 * ETA, 3 * ETA, 0.125, 0.25, 0.5, 1.0]) | st.floats(0.0, 2.0),
            min_size=2,
            max_size=40,
        ),
        name=st.sampled_from(sorted(available_metrics())),
        s=st.sampled_from([1.0, 2.0]),
        candidates=st.lists(
            st.tuples(
                st.sampled_from([4 * ETA, 0.05, 0.3, 1.0]),
                st.integers(1, 4),
                st.sampled_from([0.1, 0.25, 0.5, 0.9]),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=12,
        ),
        n0_walk=st.lists(st.integers(1, 8), min_size=1, max_size=6),
        chunk=st.sampled_from([7, 64, metrics._CHUNK]),
    )
    def test_one_prefix_answers_many_witnesses(self, values, name, s, candidates, n0_walk, chunk):
        # Every witness is sent to the same prefix, so later calls read the
        # profile an earlier call left (or replace it): a repeated (delta, p),
        # cutoffs rising and falling, and a bound at or below zero.
        seq = SequencePrefix(values, make_metric(name, s=s))
        delta, p, lam, n0 = candidates[0]
        walk = [(delta, p, lam, m) for m in (n0, *n0_walk, n0 + 2, n0, 1, n0 + 1)]
        tiny = [(4 * ETA, p, 0.1, m) for m in (2, 1, 3)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", chunk)
            for candidate in [*candidates, *walk, *tiny, *candidates]:
                w = ShiftWitness(*candidate)
                expected = _outcome(chunked_shift_contraction, seq, w)
                assert _outcome(check_shift_contraction, seq, w) == expected, candidate


class TestTailDiameter:
    def test_linear_inclusive_cutoff(self, linear_prefix):
        assert tail_diameter(linear_prefix, 10) == 40.0
        assert tail_diameter(linear_prefix, 1) == 49.0

    def test_halving(self, halving_orbit):
        assert tail_diameter(halving_orbit, 20) == 2.0**-20 - 2.0**-60

    def test_matches_independent_loop(self, halving_orbit):
        n0 = 7
        n = len(halving_orbit)
        best = max(
            pair_distance(halving_orbit, i, j)
            for i in range(n0, n + 1)
            for j in range(i, n + 1)
        )
        assert tail_diameter(halving_orbit, n0) == best

    def test_monotone_in_cutoff(self, euclid):
        rng = np.random.default_rng(2)
        seq = SequencePrefix(rng.uniform(0, 10, 25).tolist(), euclid)
        values = [tail_diameter(seq, n0) for n0 in range(1, 25)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_dislocated_tail_cannot_hide(self):
        # All pairwise values equal the self-distance here; the diagonal keeps
        # the oracle honest even when every step looks like every other.
        m = make_metric("shifted_dislocated", offset=0.5)
        seq = SequencePrefix([3.0] * 6, m)
        assert tail_diameter(seq, 5) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=40),
        name=st.sampled_from(["euclid_1d", "shifted_dislocated", "broken_asym"]),
        n0=st.integers(1, 39),
    )
    def test_row_chunks_equal_the_whole_triangle(self, values, name, n0):
        seq = SequencePrefix(values, make_metric(name))
        n0 = min(n0, len(seq) - 1)
        whole = float(np.max(np.triu(seq.distance_matrix()[n0 - 1 :, n0 - 1 :])))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", 7)
            assert tail_diameter(seq, n0) == whole

    @pytest.mark.parametrize("bad", [0, 60, 61])
    def test_cutoff_validation(self, halving_orbit, bad):
        with pytest.raises(PrefixTooShort):
            tail_diameter(halving_orbit, bad)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=40),
        name=st.sampled_from(["euclid_1d", "shifted_dislocated", "broken_asym"]),
        data=st.data(),
        chunk=st.sampled_from([7, 400, metrics._CHUNK]),
    )
    def test_one_prefix_answers_every_cutoff(self, values, name, data, chunk):
        # The suffix maxima kept from the first cutoff answer every later one,
        # and a smaller cutoff rebuilds them; the refusals come first.
        seq = SequencePrefix(values, make_metric(name))
        n = len(seq)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", chunk)
            for n0 in data.draw(st.permutations(range(1, n)), label="cutoffs"):
                assert tail_diameter(seq, n0) == triu_tail_diameter(seq, n0)
        assert seq._tail[0] == 1
        for bad in (0, n):
            with pytest.raises(PrefixTooShort, match=f"cutoff n0 = {bad} leaves no tail pairs"):
                tail_diameter(seq, bad)

    def test_suffix_maxima_are_kept_from_their_cutoff_on(self, euclid):
        seq = SequencePrefix([2.0**-k for k in range(20)], euclid)
        tail_diameter(seq, 5)
        slot = seq._tail
        assert slot[0] == 5
        for n0 in (5, 9):  # the slot's own cutoff, then a later one
            tail_diameter(seq, n0)
            assert seq._tail is slot
        assert tail_diameter(seq, 4) == 2.0**-3 - 2.0**-19
        assert seq._tail[0] == 4

    def test_a_grown_prefix_keeps_neither_slot(self, euclid):
        # The oracle's suffix maxima and the induction summaries cover the
        # rows of the shorter prefix only: the grown prefix builds its own.
        seq = SequencePrefix([2.0**-k for k in range(40)], euclid)
        w = ShiftWitness(0.1, 2, 0.5, 1)
        short = certify_cauchy(seq, w)
        assert short.certified and tail_diameter(seq, 3) == 2.0**-2 - 2.0**-39
        assert seq._tail is not None and seq._induction is not None
        grown = seq.extend([2.0**-k for k in range(40, 60)])
        assert grown._tail is None and grown._induction is None
        fresh = SequencePrefix(grown.coords, euclid)
        assert tail_diameter(grown, 3) == tail_diameter(fresh, 3) == 2.0**-2 - 2.0**-59
        long = certify_cauchy(grown, w)
        assert long.to_dict() == certify_cauchy(fresh, w).to_dict()
        assert long.certificate.band_branch_steps > short.certificate.band_branch_steps


class TestWitnessSearch:
    def test_halving_first_hit(self, halving_orbit):
        found = search_witness(halving_orbit, 0.1)
        assert found.witness == ShiftWitness(0.1, 1, 0.1, 8)
        assert found.report.holds
        assert found.report.pairs_triggered == 839
        assert not found.truncated
        assert found.p_max_used == 8
        # Scan order: the only earlier grid combination fails, so this really
        # is the first holding one.
        earlier = check_shift_contraction(halving_orbit, ShiftWitness(0.1, 1, 0.1, 1))
        assert not earlier.holds

    def test_default_n0_grid(self):
        assert default_n0_grid(60) == (1, 8, 15)
        assert default_n0_grid(8) == (1, 2)
        assert default_n0_grid(50) == (1, 7, 13)

    def test_linear_vacuous_witness_flagged_by_trigger_count(self, linear_prefix):
        found = search_witness(linear_prefix, 0.5)
        assert found.witness == ShiftWitness(0.5, 1, 0.1, 1)
        assert found.report.pairs_triggered == 0  # vacuous, and visibly so

    def test_oscillator_has_no_witness(self, euclid):
        seq = SequencePrefix(
            [0.0 if k % 2 == 0 else 0.3 for k in range(30)], euclid
        )
        found = search_witness(seq, 0.31)
        assert found.witness is None
        assert found.report is None
        assert not found.truncated

    def test_truncation_flag(self, euclid):
        seq = SequencePrefix([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125], euclid)
        found = search_witness(seq, 10.0)
        assert found.truncated
        assert found.p_max_used == 3  # 6 - min(n0) - 2

    def test_too_short_for_any_shift(self, euclid):
        seq = SequencePrefix([1.0, 0.5, 0.25], euclid)
        with pytest.raises(PrefixTooShort):
            search_witness(seq, 0.1)

    def test_search_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(p_max=0)
        assert SearchConfig(p_max=1).p_max == 1
        for lambdas in ((0.5, 1.0), (0.0, 0.5)):
            with pytest.raises(ValueError):
                SearchConfig(lambdas=lambdas)
        for empty in ({"lambdas": ()}, {"n0_values": ()}, {"n0_values": []}):
            with pytest.raises(ValueError, match="must not be empty"):
                SearchConfig(**empty)

    def test_custom_grids_respected(self, halving_orbit):
        cfg = SearchConfig(p_max=2, lambdas=(0.5,), n0_values=(1,))
        found = search_witness(halving_orbit, 0.1, cfg)
        assert found.witness == ShiftWitness(0.1, 1, 0.5, 1)

    def test_grids_are_scanned_ascending(self, euclid):
        # The smallest holding (p, lambda, n0) whatever order the grids come in.
        seq = make_sequence("geometric", euclid, n=40)
        for lambdas in ((0.9, 0.5), (0.5, 0.9), (0.9, 0.5, 0.9)):
            cfg = SearchConfig(p_max=3, lambdas=lambdas, n0_values=(5, 5, 1))
            assert (cfg.lambdas, cfg.n0_values) == ((0.5, 0.9), (1, 5))
            assert search_witness(seq, 0.5, cfg).witness == ShiftWitness(0.5, 1, 0.5, 5)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.floats(0.0, 2.0), min_size=2, max_size=30),
            st.builds(lambda n, r: [r**k for k in range(n)], st.integers(2, 30), st.floats(0.3, 0.9)),
        ),
        delta=st.sampled_from([0.01, 0.1, 0.3, 1.0]),
        p_max=st.integers(1, 6),
        lambdas=st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]), min_size=1, max_size=8),
        n0_values=st.lists(st.integers(1, 30), min_size=1, max_size=8),
        rng=st.randoms(use_true_random=False),
    )
    def test_grid_order_and_repeats_do_not_matter(self, values, delta, p_max, lambdas, n0_values, rng):
        seq = SequencePrefix(values, make_metric("euclid_1d"))
        rng.shuffle(lambdas)
        rng.shuffle(n0_values)
        given_cfg = SearchConfig(p_max=p_max, lambdas=tuple(lambdas), n0_values=tuple(n0_values))
        sorted_cfg = SearchConfig(
            p_max=p_max, lambdas=tuple(sorted(set(lambdas))), n0_values=tuple(sorted(set(n0_values)))
        )
        assert given_cfg == sorted_cfg
        got = _search_outcome(search_witness, seq, delta, given_cfg)
        assert got == _search_outcome(
            search_witness, SequencePrefix(values, make_metric("euclid_1d")), delta, sorted_cfg
        )
        if isinstance(got, tuple):  # too short for any shift
            return
        # The witness is the smallest holding (p, lambda, n0) of the raw grids.
        holding = [
            (p, lam, n0)
            for p in range(1, got["p_max_used"] + 1)
            for lam in lambdas
            for n0 in n0_values
            if len(seq) >= n0 + p + 2
            and chunked_shift_contraction(seq, ShiftWitness(delta, p, lam, n0)).holds
        ]
        w = got["witness"]
        assert (w["p"], w["lambda"], w["n0"]) == min(holding) if holding else w is None

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.floats(0.0, 2.0), min_size=2, max_size=40),
            st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]), min_size=2, max_size=40),
            # Geometric decay, so that some searches find a witness.
            st.builds(lambda n, r: [r**k for k in range(n)], st.integers(2, 40), st.floats(0.3, 0.9)),
        ),
        name=st.sampled_from(sorted(available_metrics())),
        delta=st.sampled_from([0.01, 0.1, 0.3, 1.0]),
        cfg=st.sampled_from(
            [
                SearchConfig(),
                SearchConfig(p_max=3, lambdas=(0.5, 0.9)),
                SearchConfig(p_max=4, lambdas=(0.3, 0.7), n0_values=(5, 1, 3)),
                SearchConfig(p_max=2, n0_values=(9, 2)),
            ]
        ),
        chunk=st.sampled_from([7, metrics._CHUNK]),
    )
    def test_matches_loop_search_over_oracle_scan(self, values, name, delta, cfg, chunk):
        # Searches at two deltas on one prefix, so the second starts from
        # the profile the first left behind.
        seq = SequencePrefix(values, make_metric(name))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", chunk)
            for d in (delta, delta / 2, delta):
                assert _search_outcome(search_witness, seq, d, cfg) == _search_outcome(
                    loop_search_witness, seq, d, cfg
                )


class TestGenerators:
    def test_arithmetic_default_is_identity(self):
        assert arithmetic_sequence(5) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert arithmetic_sequence(3, start=0.0, step=2.0) == [0.0, 2.0, 4.0]

    def test_geometric(self):
        assert geometric_sequence(4) == [1.0, 0.5, 0.25, 0.125]
        assert geometric_sequence(3, start=9.0, ratio=1.0 / 3.0)[0] == 9.0

    def test_constant(self):
        assert constant_sequence(3, value=2.5) == [2.5, 2.5, 2.5]

    def test_minimum_length(self, euclid):
        # The generators leave the length to the prefix.
        for name in GENERATORS:
            with pytest.raises(PrefixTooShort, match="needs at least 2 points, got 1"):
                make_sequence(name, euclid, n=1)
            assert len(make_sequence(name, euclid, n=2)) == 2

    def test_make_sequence(self, euclid):
        seq = make_sequence("geometric", euclid, n=5)
        assert len(seq) == 5
        assert seq.point(5).tolist() == [0.0625]
        with pytest.raises(ValueError):
            make_sequence("no_such", euclid, n=5)

    def test_available_generators(self):
        assert set(available_generators()) == {"arithmetic", "geometric", "constant"}


@given(
    values=st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=3, max_size=20
    ),
    n0=st.integers(min_value=1, max_value=18),
)
def test_tail_diameter_monotone_property(values, n0):
    # Raising the cutoff shrinks the pair set, so the max cannot grow.
    seq = SequencePrefix(values, make_metric("euclid_1d"))
    n0 = max(1, min(n0, len(seq) - 2))
    assert tail_diameter(seq, n0) >= tail_diameter(seq, n0 + 1)
