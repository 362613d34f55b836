"""Metric instances, distance validation, and the sampled axiom checks."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cauchycert import (
    ETA,
    DbMetric,
    MetricError,
    Point,
    SamplerConfig,
    check_symmetry,
    check_zero_identity,
    estimate_minimal_s,
    make_metric,
    run_axiom_report,
)
from cauchycert import metrics
from cauchycert.metrics import (
    METRIC_BUILDERS,
    available_metrics,
    check_self_distance_zero,
    sample_pairs,
    sample_triples,
)
from oracles import (
    loop_axiom_report,
    loop_check_self_distance_zero,
    loop_check_symmetry,
    loop_check_zero_identity,
    loop_estimate_minimal_s,
    meshgrid_matrix,
    oneshot_cross,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestPoint:
    def test_scalar_becomes_one_vector(self):
        p = Point(3.5)
        assert p.dim == 1
        assert p.tolist() == [3.5]

    def test_vector(self):
        p = Point([1.0, 2.0, 3.0])
        assert p.dim == 3
        assert p.tolist() == [1.0, 2.0, 3.0]

    def test_repr_is_numpy_independent(self):
        # numpy 2 reprs a float64 scalar as np.float64(...); reports must not.
        assert repr(Point(np.float64(1.5))) == "Point(1.5)"
        assert repr(Point([1.0, 2.0])) == "Point([1.0, 2.0])"

    def test_coords_frozen(self):
        p = Point([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coords[0] = 9.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), [1.0, float("-inf")]])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(MetricError):
            Point(bad)

    @pytest.mark.parametrize("bad", [[], [[1.0, 2.0]]])
    def test_bad_shape_rejected(self, bad):
        with pytest.raises(MetricError):
            Point(bad)

    def test_equality_and_hash(self):
        assert Point([1.0, 2.0]) == Point([1.0, 2.0])
        assert Point(1.0) != Point(2.0)
        assert hash(Point([1.0, 2.0])) == hash(Point([1.0, 2.0]))
        assert Point(1.0) != (1.0,)


def constant_metric(name: str, value: float) -> DbMetric:
    """A metric outside the registry whose every distance is ``value``."""
    return DbMetric(
        name=name,
        s=1.0,
        rows_fn=lambda a, b: np.full(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]), value),
    )


class TestDbMetricValidation:
    def test_s_below_one_rejected(self):
        with pytest.raises(MetricError):
            DbMetric(name="bad", s=0.5, rows_fn=lambda a, b: np.abs(a[..., 0] - b[..., 0]))

    def test_dimension_mismatch(self):
        m = make_metric("euclid_1d")
        with pytest.raises(MetricError):
            m.distance(Point([1.0, 2.0]), Point([1.0, 2.0]))

    def test_mixed_dimensions(self):
        m = make_metric("euclid_nd")
        with pytest.raises(MetricError):
            m.distance(Point(1.0), Point([1.0, 2.0]))

    def test_negative_roundoff_clamped(self):
        m = constant_metric("tiny_neg", -1e-12)
        assert m.distance(Point(0.0), Point(1.0)) == 0.0

    def test_truly_negative_rejected(self):
        m = constant_metric("neg", -1.0)
        with pytest.raises(MetricError):
            m.distance(Point(0.0), Point(1.0))

    def test_error_names_the_first_offending_value(self):
        m = make_metric("max_dislocated")
        with pytest.raises(MetricError, match=r"negative distance -0\.5$"):
            m.rows([[1.0], [-0.5], [-2.0]], [[0.0], [-1.0], [-3.0]])
        with pytest.raises(MetricError, match=r"negative distance -1\.0$"):
            m.matrix([[-1.0], [-0.5]])
        vec = DbMetric(name="bad", s=1.0, rows_fn=lambda a, b: np.log(a[..., 0] - b[..., 0] + 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(MetricError, match="non-finite distance -inf$"):
                vec.rows([[0.0], [-1.0], [-2.0]], [[0.0], [0.0], [0.0]])

    def test_nan_rejected(self):
        for bad in (float("nan"), float("inf")):
            m = constant_metric("bad", bad)
            vec = DbMetric(name="bad", s=1.0, rows_fn=lambda a, b, v=bad: a[..., 0] * v)
            with pytest.raises(MetricError):
                m.distance(Point(0.0), Point(1.0))
            for metric in (m, vec):
                with pytest.raises(MetricError):
                    metric.rows([[1.0]], [[2.0]])
                with pytest.raises(MetricError):
                    metric.matrix([[1.0], [2.0]])


class TestBuiltins:
    def test_euclid_1d(self):
        m = make_metric("euclid_1d")
        assert m.distance(Point(3.0), Point(5.0)) == 2.0
        assert m.distance(Point(4.0), Point(4.0)) == 0.0
        assert m.s == 1.0 and m.zero_self_distance

    def test_euclid_nd(self):
        m = make_metric("euclid_nd")
        assert m.distance(Point([0.0, 0.0]), Point([3.0, 4.0])) == 5.0

    def test_sq_abs(self):
        m = make_metric("sq_abs")
        assert m.distance(Point(3.0), Point(5.0)) == 4.0
        assert m.s == 2.0

    def test_max_dislocated_positive_self_distance(self):
        m = make_metric("max_dislocated")
        assert m.distance(Point(2.0), Point(3.0)) == 3.0
        assert m.distance(Point(2.0), Point(2.0)) == 2.0
        assert not m.zero_self_distance

    def test_shifted_dislocated(self):
        m = make_metric("shifted_dislocated", offset=1.0)
        assert m.distance(Point(2.0), Point(3.0)) == 2.0
        assert m.distance(Point(2.0), Point(2.0)) == 1.0
        with pytest.raises(MetricError):
            make_metric("shifted_dislocated", offset=0.0)

    def test_broken_asym_is_asymmetric(self):
        m = make_metric("broken_asym")
        assert m.distance(Point(3.0), Point(1.0)) == 2.0
        assert m.distance(Point(1.0), Point(3.0)) == 0.0

    def test_make_metric_s_override(self):
        m = make_metric("sq_abs", s=4.0)
        assert m.s == 4.0
        assert m.name == "sq_abs"
        # The distance function itself is untouched by the override.
        assert m.distance(Point(0.0), Point(2.0)) == 4.0

    def test_make_metric_unknown(self):
        with pytest.raises(MetricError):
            make_metric("no_such_metric")

    def test_available_metrics(self):
        names = set(available_metrics())
        assert names == {
            "euclid_1d",
            "euclid_nd",
            "sq_abs",
            "max_dislocated",
            "shifted_dislocated",
            "broken_asym",
        }

    def test_matrix_rejects_non_broadcasting_rows_fn(self):
        m = DbMetric(name="rows_only", s=1.0, rows_fn=lambda a, b: np.abs(a[:, 0] - b[:, 0]))
        with pytest.raises(MetricError, match="broadcast"):
            m.matrix(np.array([[0.0], [1.0], [2.0]]))

    def test_matrix_agrees_with_pairwise_loop(self):
        m = make_metric("sq_abs")
        coords = np.array([[0.0], [1.0], [2.5], [7.0]])
        dm = m.matrix(coords)
        for i in range(4):
            for j in range(4):
                assert dm[i, j] == m.distance(Point(coords[i]), Point(coords[j]))


class TestAxiomChecks:
    def test_symmetry_holds_for_euclid(self):
        m = make_metric("euclid_1d")
        pairs = sample_pairs(SamplerConfig(), 1)
        assert check_symmetry(m, pairs).ok

    def test_symmetry_counterexample_is_real(self):
        m = make_metric("broken_asym")
        result = check_symmetry(m, sample_pairs(SamplerConfig(), 1))
        assert not result.ok
        x, y = result.counterexample
        assert abs(m.distance(x, y) - m.distance(y, x)) > ETA

    def test_zero_identity_fails_for_broken_asym(self):
        m = make_metric("broken_asym")
        result = check_zero_identity(m, sample_pairs(SamplerConfig(), 1))
        assert not result.ok
        x, y = result.counterexample
        assert m.distance(x, y) <= ETA and np.max(np.abs(x.coords - y.coords)) > ETA

    def test_zero_identity_holds_for_dislocated_instances(self):
        pairs = sample_pairs(SamplerConfig(), 1)
        for name in ["max_dislocated", "shifted_dislocated"]:
            assert check_zero_identity(make_metric(name), pairs).ok

    def test_self_distance_zero(self):
        pts = np.array([[0.0], [1.0], [2.5], [7.0]])
        assert check_self_distance_zero(make_metric("euclid_1d"), pts).ok
        result = check_self_distance_zero(make_metric("max_dislocated"), pts)
        assert not result.ok

    def test_empty_samples_rejected(self):
        m = make_metric("euclid_1d")
        empty = np.empty((0, 1))
        with pytest.raises(ValueError):
            check_symmetry(m, (empty, empty))
        with pytest.raises(ValueError):
            estimate_minimal_s(m, (empty, empty, empty))

    def test_estimate_minimal_s_matches_independent_scan(self):
        # Recompute the sampled supremum with a plain loop and compare.
        m = make_metric("sq_abs")
        triples = sample_triples(SamplerConfig(), 1)
        best = 0.0
        for x, y, z in zip(*triples):
            x, y, z = Point(x), Point(y), Point(z)
            legs = m.distance(x, y) + m.distance(y, z)
            if legs <= ETA:
                continue
            best = max(best, m.distance(x, z) / legs)
        assert estimate_minimal_s(m, triples).min_s == best

    def test_unconditional_violation_is_infinite(self):
        # Distances collapse below a threshold: two legs can vanish while the
        # direct distance does not, which no relaxation constant repairs.
        # The estimate is inf, and its triple is the first such in the sample.
        triples = sample_triples(SamplerConfig(), 1)
        first = next(
            (x, y, z)
            for x, y, z in (tuple(map(Point, row)) for row in zip(*triples))
            if THRESH.distance(x, y) + THRESH.distance(y, z) <= ETA and THRESH.distance(x, z) > ETA
        )
        min_s, worst = estimate_minimal_s(THRESH, triples)
        assert min_s == math.inf
        assert worst == first


class TestToleranceTies:
    """Each tolerance comparison at its tie: a value of exactly ETA lies
    within the tolerance, so it neither flags a pair nor excuses one."""

    def test_negative_distance_of_exactly_eta_is_clamped(self):
        m = DbMetric(name="dip", s=1.0, rows_fn=lambda a, b: -ETA * a[..., 0])
        assert m.rows([[1.0], [0.0]], [[0.0], [0.0]]).tolist() == [0.0, 0.0]
        with pytest.raises(MetricError, match=r"negative distance -2e-09$"):
            m.rows([[1.0], [2.0]], [[0.0], [0.0]])

    def test_asymmetry_of_exactly_eta_is_symmetric(self):
        m = DbMetric(name="tilt", s=1.0, rows_fn=lambda a, b: np.where(a[..., 0] > b[..., 0], ETA, 0.0))
        assert check_symmetry(m, (np.array([[1.0]]), np.array([[0.0]]))).ok

    def test_zero_identity_at_eta(self):
        # Points ETA apart are equal; a distance of ETA is zero.
        assert check_zero_identity(make_metric("euclid_1d"), (np.array([[0.0]]), np.array([[ETA]]))).ok
        flat = constant_metric("flat", ETA)
        assert not check_zero_identity(flat, (np.array([[0.0]]), np.array([[1.0]]))).ok

    def test_self_distance_of_exactly_eta_is_zero(self):
        assert check_self_distance_zero(make_metric("max_dislocated"), np.array([[ETA]])).ok

    def test_legs_of_exactly_eta_are_degenerate(self):
        # Both legs sum to ETA and the direct distance is ETA: the triple is
        # skipped, neither a ratio of 1 nor a violation.
        zero, tiny = np.array([[0.0]]), np.array([[ETA]])
        estimate = estimate_minimal_s(make_metric("euclid_1d"), (zero, zero, tiny))
        assert estimate.min_s == 0.0 and estimate.worst is None

    def test_estimated_s_of_exactly_the_declared_s_plus_eta_holds(self):
        # sq_abs needs s = 2.0, which is (2 - ETA) + ETA in floats.
        metric = make_metric("sq_abs", s=2.0 - ETA)
        assert metric.s + ETA == 2.0
        report = run_axiom_report(metric, SamplerConfig(pair_count=8, triple_count=8))
        assert report.estimated_min_s == 2.0
        assert report.triangle_ok

    def test_smallest_sampler(self):
        cfg = SamplerConfig(pair_count=1, triple_count=1, grid_points=2)
        assert len(sample_pairs(cfg, 2)[0]) == 1 + 4


class TestSampler:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(box_low=1.0, box_high=1.0)
        with pytest.raises(ValueError):
            SamplerConfig(pair_count=0)
        with pytest.raises(ValueError):
            SamplerConfig(grid_points=1)

    def test_sample_sizes(self):
        cfg = SamplerConfig()
        # 121 grid + 200 random + 25 identical
        assert [s.shape for s in sample_pairs(cfg, 1)] == [(346, 1)] * 2
        # 1331 grid + 121 midpoint + 400 random
        assert [s.shape for s in sample_triples(cfg, 1)] == [(1852, 1)] * 3
        assert [s.shape for s in sample_pairs(cfg, 3)] == [(225, 3)] * 2
        assert [s.shape for s in sample_triples(cfg, 3)] == [(400, 3)] * 3

    def test_sampling_is_deterministic(self):
        cfg = SamplerConfig(seed=11)
        for sample in (sample_pairs, sample_triples):
            a, b = sample(cfg, 2), sample(cfg, 2)
            assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_identical_pairs_present(self):
        x, y = sample_pairs(SamplerConfig(), 3)
        assert np.any(np.all(x == y, axis=1))


class TestAxiomReport:
    @pytest.mark.parametrize(
        "name,expected_s",
        [("euclid_1d", 1.0), ("euclid_nd", 1.0), ("sq_abs", 2.0), ("max_dislocated", 1.0)],
    )
    def test_estimated_min_s(self, name, expected_s):
        report = run_axiom_report(make_metric(name))
        assert report.estimated_min_s == expected_s
        assert report.triangle_ok
        assert report.all_ok

    def test_shifted_dislocated_below_one(self):
        report = run_axiom_report(make_metric("shifted_dislocated", offset=1.0))
        assert report.estimated_min_s <= 1.0 + ETA
        assert report.all_ok
        assert report.self_distance_zero_ok is None  # not a declared b-metric

    def test_declared_converse_checked(self):
        report = run_axiom_report(make_metric("euclid_1d"))
        assert report.self_distance_zero_ok is True

    def test_understated_s_flagged(self):
        report = run_axiom_report(make_metric("sq_abs", s=1.5))
        assert not report.triangle_ok
        assert report.estimated_min_s == 2.0
        assert report.violating_triple is not None
        assert not report.all_ok
        # The reported triple really attains a ratio above the declared s.
        m = make_metric("sq_abs", s=1.5)
        x, y, z = report.violating_triple
        ratio = m.distance(x, z) / (m.distance(x, y) + m.distance(y, z))
        assert ratio > 1.5 + ETA

    def test_unconditional_violation_reported_as_infinite(self):
        report = run_axiom_report(THRESH)
        assert not report.triangle_ok
        assert math.isinf(report.estimated_min_s)
        assert report.violating_triple is not None
        assert report.to_dict()["estimated_min_s"] is None  # JSON has no infinity

    def test_broken_asym_counterexamples(self):
        report = run_axiom_report(make_metric("broken_asym"))
        assert not report.symmetry_ok
        assert not report.zero_identity_ok
        assert [p.tolist() for p in report.symmetry_counterexample] == [[0.0], [1.0]]

    def test_report_is_deterministic(self):
        a = run_axiom_report(make_metric("sq_abs"))
        b = run_axiom_report(make_metric("sq_abs"))
        assert a == b
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_to_dict_is_json_serializable(self):
        report = run_axiom_report(make_metric("broken_asym"))
        data = json.loads(json.dumps(report.to_dict()))
        assert data["symmetry_counterexample"] == [[0.0], [1.0]]
        assert data["all_ok"] is False


@given(x=finite, y=finite, z=finite)
def test_euclid_triangle_property(x, y, z):
    m = make_metric("euclid_1d")
    px, py, pz = Point(x), Point(y), Point(z)
    tol = ETA * max(1.0, abs(x), abs(y), abs(z))
    assert m.distance(px, py) == m.distance(py, px)
    assert m.distance(px, pz) <= m.distance(px, py) + m.distance(py, pz) + tol


@given(x=finite, y=finite, z=finite)
def test_sq_abs_relaxed_triangle_property(x, y, z):
    # (a - c)^2 <= 2 * ((a - b)^2 + (b - c)^2) is the defining s = 2 bound.
    m = make_metric("sq_abs")
    px, py, pz = Point(x), Point(y), Point(z)
    legs = m.distance(px, py) + m.distance(py, pz)
    assert m.distance(px, pz) <= 2.0 * legs + ETA * max(1.0, legs)


#: A metric outside the registry, in any dimension: the sum of coordinate gaps.
TAXICAB = DbMetric(name="taxicab", s=1.0, rows_fn=lambda a, b: np.sum(np.abs(a - b), axis=-1))


@st.composite
def metric_and_coords(draw):
    name = draw(st.sampled_from(sorted(METRIC_BUILDERS) + ["taxicab"]))
    metric = TAXICAB if name == "taxicab" else make_metric(name)
    dim = metric.dim or draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    flat = draw(st.lists(unit, min_size=n * dim, max_size=n * dim))
    scale = 10.0 ** draw(st.integers(-8, 8))
    return metric, np.array(flat).reshape(n, dim) * scale


@settings(max_examples=300)
@given(case=metric_and_coords())
def test_broadcast_matrix_is_bit_identical_to_meshgrid_build(case):
    metric, coords = case
    try:
        expected = meshgrid_matrix(metric, coords)
    except MetricError:  # max(x, y) on negative reals is a negative distance
        with pytest.raises(MetricError):
            metric.matrix(coords)
        return
    got = metric.matrix(coords)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


#: A signed difference below x = 5 and its square root from there on: an
#: early row yields negative distances and a later one NaN (or inf, once the
#: difference overflows), which pins the order of the two errors across chunks.
PRECEDENCE = DbMetric(
    name="precedence",
    s=1.0,
    dim=1,
    rows_fn=lambda a, b: np.where(
        a[..., 0] < 5.0, a[..., 0] - b[..., 0], np.sqrt(a[..., 0] - b[..., 0])
    ),
)


def _build_outcome(build):
    """What a caller sees of one build: the matrix bytes, or the error."""
    try:
        out = build()
    except MetricError as exc:
        return type(exc), str(exc)
    return out.shape, out.tobytes()


@st.composite
def metric_and_cross_stacks(draw):
    name = draw(st.sampled_from(sorted(METRIC_BUILDERS) + ["taxicab", "precedence"]))
    metric = {"taxicab": TAXICAB, "precedence": PRECEDENCE}.get(name) or make_metric(name)
    dim = metric.dim or draw(st.integers(1, 6))
    # Values near the float range overflow sq_abs, euclid_nd and the signed
    # difference; negative ones make max_dislocated and PRECEDENCE negative.
    unit = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-1e308, 1e308, 1e160]))
    stacks = []
    for _ in range(2):
        n = draw(st.integers(1, 24))
        flat = draw(st.lists(unit, min_size=n * dim, max_size=n * dim))
        stacks.append(np.array(flat).reshape(n, dim))
    return metric, *stacks


@settings(max_examples=500, deadline=None)
@given(case=metric_and_cross_stacks(), budget=st.sampled_from([7, 64, metrics._BUILD_CHUNK]))
# Chunks of 7 // 3 = 2 rows: negatives in row 0, NaN in row 4 and inf in row 5.
@example(
    case=(PRECEDENCE, np.array([[0.0], [1.0], [2.0], [3.0], [6.0], [1e308]]),
          np.array([[1.0], [8.0], [-1e308]])),
    budget=7,
)
# A chunk whose minimum is exactly -ETA: round-off within the tolerance.
@example(case=(PRECEDENCE, np.array([[0.0]]), np.array([[ETA]])), budget=7)
# Rows of 24 points x 4 coordinates, each beyond the budget: one row a chunk.
@example(
    case=(TAXICAB, np.arange(12.0).reshape(3, 4), np.arange(96.0).reshape(24, 4) % 7.0),
    budget=64,
)
def test_chunked_cross_equals_the_oneshot_build(case, budget):
    metric, a, b = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_BUILD_CHUNK", budget)
        assert _build_outcome(lambda: metric.cross(a, b)) == _build_outcome(
            lambda: oneshot_cross(metric, a, b)
        )
        assert _build_outcome(lambda: metric.matrix(a)) == _build_outcome(
            lambda: oneshot_cross(metric, a, a)
        )


@st.composite
def metric_and_points(draw):
    name = draw(st.sampled_from(sorted(METRIC_BUILDERS) + ["taxicab"]))
    metric = TAXICAB if name == "taxicab" else make_metric(name)
    dim = metric.dim or draw(st.integers(1, 33))
    n = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    flat = draw(st.lists(unit, min_size=n * dim, max_size=n * dim))
    coords = np.array(flat).reshape(n, dim) * 10.0 ** draw(st.integers(-8, 8))
    if name == "max_dislocated":  # max(x, y) of negative reals is a negative distance
        coords = np.abs(coords)
    return metric, coords


@settings(max_examples=300, deadline=None)
@given(case=metric_and_points())
def test_distance_rows_and_matrix_are_bit_equal(case):
    metric, coords = case
    n = len(coords)
    points = [Point(c) for c in coords]
    one = np.array([[metric.distance(p, q) for q in points] for p in points])
    rows = metric.rows(np.repeat(coords, n, axis=0), np.tile(coords, (n, 1))).reshape(n, n)
    assert one.tobytes() == rows.tobytes() == metric.matrix(coords).tobytes()


#: Zero within distance 5, one beyond: two legs can vanish while the direct
#: distance does not, which no relaxation constant repairs.
THRESH = DbMetric(
    name="thresh",
    s=1.0,
    rows_fn=lambda a, b: np.where(np.abs(a[..., 0] - b[..., 0]) <= 5.0, 0.0, 1.0),
    dim=1,
)


@st.composite
def metric_and_stacks(draw, count: int):
    """A metric and ``count`` aligned stacks of k >= 0 rows; few distinct
    dyadic values, so zero distances, ties and collapsed legs are common."""
    name = draw(st.sampled_from(sorted(METRIC_BUILDERS) + ["taxicab", "thresh"]))
    metric = {"taxicab": TAXICAB, "thresh": THRESH}.get(name) or make_metric(name)
    dim = metric.dim or draw(st.integers(1, 3))
    k = draw(st.integers(0, 12))
    values = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.75, 6.0, 8.0])
    stacks = tuple(
        np.array(draw(st.lists(values, min_size=k * dim, max_size=k * dim))).reshape(k, dim)
        for _ in range(count)
    )
    return metric, stacks


def _points(*stacks) -> list[tuple[Point, ...]]:
    return [tuple(Point(row) for row in rows) for rows in zip(*stacks)]


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestChecksMatchLoopOracles:
    @settings(max_examples=400, deadline=None)
    @given(case=metric_and_stacks(2))
    def test_pair_checks(self, case):
        metric, (x, y) = case
        pairs = _points(x, y)
        for check, oracle in [
            (check_symmetry, loop_check_symmetry),
            (check_zero_identity, loop_check_zero_identity),
        ]:
            assert _outcome(check, metric, (x, y)) == _outcome(oracle, metric, pairs)
        assert _outcome(check_self_distance_zero, metric, x) == _outcome(
            loop_check_self_distance_zero, metric, [p for p, _ in pairs]
        )

    @settings(max_examples=400, deadline=None)
    @given(case=metric_and_stacks(3))
    def test_estimate_minimal_s(self, case):
        metric, triples = case
        assert _outcome(estimate_minimal_s, metric, triples) == _outcome(
            loop_estimate_minimal_s, metric, _points(*triples)
        )

    @pytest.mark.parametrize("s", [None, 1.5])
    @pytest.mark.parametrize("name", sorted(METRIC_BUILDERS))
    def test_axiom_report(self, name, s):
        metric = make_metric(name, s=s)
        for cfg in [
            SamplerConfig(seed=7),
            SamplerConfig(pair_count=50, triple_count=40, seed=7, box_low=-3.0, box_high=4.0,
                          grid_points=6),
            SamplerConfig(pair_count=13, triple_count=7, seed=7, box_low=0.25, box_high=3.5,
                          grid_points=3),
        ]:
            def report(run):
                try:
                    return run(metric, cfg).to_dict()
                except MetricError as exc:  # max(x, y) on the negative box
                    return str(exc)

            assert report(run_axiom_report) == report(loop_axiom_report)
