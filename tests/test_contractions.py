"""Contraction maps, shift derivation, and the certified fixed-point solver."""

from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cauchycert import (
    ETA,
    Contraction,
    ContractionError,
    DbMetric,
    MetricError,
    Point,
    ShiftWitness,
    SolverConfig,
    SolverError,
    derive_shift,
    estimate_contraction_constant,
    iterate,
    make_contraction,
    make_metric,
    solve_fixed_point,
)
from cauchycert.contractions import (
    SHIFT_CAP,
    affine_1d,
    affine_nd,
    constant_map,
    halving,
    logistic_damped,
)
from cauchycert.registry import documented
from oracles import blockwise_solve_fixed_point, loop_estimate_contraction_constant


class TestContraction:
    @pytest.mark.parametrize("c", [1.0, 1.5, -0.1])
    def test_constant_must_lie_in_unit_interval(self, c):
        with pytest.raises(ContractionError):
            Contraction(name="bad", fn=lambda x: x, c=c)

    def test_apply_wraps_scalars(self):
        f = halving()
        out = f.apply(Point(3.0))
        assert out == Point(1.5)
        assert out.coords.shape == (1,)

    def test_apply_rejects_non_finite_images(self):
        f = Contraction(name="inv", fn=lambda x: 1.0 / x, c=0.5, dim=1)
        with np.errstate(divide="ignore"), pytest.raises(ContractionError):
            f.apply(Point(0.0))


class TestIterate:
    def test_halving_orbit_values(self, euclid):
        seq = iterate(halving(), Point(1.0), 5, euclid)
        assert len(seq) == 5
        assert seq.coords[:, 0].tolist() == [
            0.5,
            0.25,
            0.125,
            0.0625,
            0.03125,
        ]

    def test_seed_is_excluded_from_the_prefix(self, euclid):
        seq = iterate(constant_map(2.0), Point(7.0), 3, euclid)
        assert seq.coords.tolist() == [[2.0]] * 3

    def test_needs_two_iterates(self, euclid):
        with pytest.raises(ValueError):
            iterate(halving(), Point(1.0), 1, euclid)
        assert iterate(halving(), Point(1.0), 2, euclid).coords[:, 0].tolist() == [0.5, 0.25]

    def test_non_finite_iterate_names_its_input(self, euclid):
        # Halving on the sampling box [0, 10], so the sampled ratio is 0.5;
        # outside it the map grows by 1e100 and x_4 = f(2e301) overflows.
        f = Contraction(
            name="blowup",
            fn=lambda x: np.where(np.abs(x) <= 10.0, 0.5 * x, x * 1e100),
            c=0.5,
            dim=1,
        )
        x3 = 20.0 * 1e100 * 1e100 * 1e100
        message = f"map 'blowup' produced non-finite values at {Point(x3)}"
        assert message == "map 'blowup' produced non-finite values at Point(2e+301)"
        with pytest.raises(ContractionError) as got:
            iterate(f, Point(20.0), 10, euclid)
        assert str(got.value) == message
        with pytest.raises(ContractionError) as got:
            solve_fixed_point(f, euclid, Point(20.0), 0.01)
        assert str(got.value) == message


#: A map, a metric and an x0 whose dimensions disagree, and the message.
_DIMENSION_MISMATCHES = [
    (affine_1d(0.5), "euclid_nd", [0.0, 0.0], "x0 has dimension 2, but the map 'affine_1d' declares dimension 1"),
    (halving(), "euclid_1d", [0.0, 0.0], "x0 has dimension 2, but the metric 'euclid_1d' declares dimension 1"),
    (affine_nd(0.5 * np.eye(2), [1.0, 1.0], 0.5), "euclid_nd", [0.0, 0.0, 0.0],
     "x0 has dimension 3, but the map 'affine_nd' declares dimension 2"),
]


class TestSeedDimension:
    @pytest.mark.parametrize("f, metric_name, x0, message", _DIMENSION_MISMATCHES)
    def test_iterate_and_solve_refuse_a_dimension_mismatch(self, f, metric_name, x0, message):
        metric = make_metric(metric_name)
        with pytest.raises(MetricError) as got:
            iterate(f, Point(x0), 8, metric)
        assert str(got.value) == message
        with pytest.raises(MetricError) as got:
            solve_fixed_point(f, metric, Point(x0), 0.01)
        assert str(got.value) == message

    @pytest.mark.parametrize("dim", [1, 3])
    def test_verification_pairs_take_the_dimension_of_x0(self, dim, monkeypatch):
        # Neither halving nor euclid_nd declares a dimension.
        shapes = []
        estimate = estimate_contraction_constant

        def spy(f, metric, pairs):
            shapes.append([side.shape for side in pairs])
            return estimate(f, metric, pairs)

        monkeypatch.setattr("cauchycert.contractions.estimate_contraction_constant", spy)
        result = solve_fixed_point(halving(), make_metric("euclid_nd"), Point([1.0] * dim), 0.01)
        assert shapes == [[(32, dim), (32, dim)]]
        assert result.fixed_point.dim == dim


def _scripted(orbit: list, c: float = 0.5) -> Contraction:
    """Halving, except that it maps each ``orbit[i]`` to ``orbit[i + 1]`` and
    fixes the last point: an orbit with chosen steps, whose sampled ratio on
    the box [0, 10] is exactly 1/2."""
    def fn(x):
        out = 0.5 * x
        for a, b in zip(orbit, orbit[1:] + orbit[-1:]):
            out = np.where(x == a, b, out)
        return out

    return Contraction(name="scripted", fn=fn, c=c, dim=1)


def _stacks(*rows):
    return tuple(np.array(col, dtype=float).reshape(-1, 1) for col in zip(*rows))


class TestEstimateContractionConstant:
    def test_halving_ratio_is_exact(self, euclid):
        pairs = _stacks((0.0, 4.0), (1.0, 3.0))
        est = estimate_contraction_constant(halving(), euclid, pairs)
        assert est.ratio == 0.5
        assert not est.violation
        assert est.worst_pair in ((Point(0.0), Point(4.0)), (Point(1.0), Point(3.0)))

    def test_understated_c_is_flagged(self, euclid):
        liar = Contraction(name="liar", fn=lambda x: x / 2.0, c=0.3, dim=1)
        est = estimate_contraction_constant(liar, euclid, _stacks((0.0, 4.0)))
        assert est.violation
        assert est.ratio == 0.5
        assert est.worst_pair == (Point(0.0), Point(4.0))

    def test_degenerate_pairs_are_rejected(self, euclid):
        with pytest.raises(ContractionError):
            estimate_contraction_constant(halving(), euclid, _stacks((2.0, 2.0)))

    def test_zero_distance_pairs_are_skipped_not_counted(self, euclid):
        pairs = _stacks((2.0, 2.0), (0.0, 1.0))
        est = estimate_contraction_constant(halving(), euclid, pairs)
        assert est.ratio == 0.5

    def test_a_pair_at_distance_eta_is_degenerate(self, euclid):
        with pytest.raises(ContractionError, match="degenerate"):
            estimate_contraction_constant(halving(), euclid, _stacks((0.0, ETA)))

    def test_ratio_at_c_plus_eta_is_no_violation(self, euclid):
        f = Contraction(name="edge", fn=lambda x: (0.5 + ETA) * x, c=0.5, dim=1)
        est = estimate_contraction_constant(f, euclid, _stacks((0.0, 1.0)))
        assert est.ratio == 0.5 + ETA
        assert not est.violation

    @settings(max_examples=400, deadline=None)
    @given(
        case=st.sampled_from([
            (halving(), "euclid_1d"),
            (halving(), "sq_abs"),
            (affine_1d(-0.5, 1.0), "euclid_1d"),
            (constant_map(2.0), "euclid_1d"),
            (Contraction(name="liar", fn=lambda x: 0.9 * x, c=0.3, dim=1), "euclid_1d"),
            # A non-finite image at 6: the first one met, in pair order, is reported.
            (Contraction(name="hole", fn=lambda x: np.where(x == 6.0, np.nan, 0.5 * x), c=0.5),
             "euclid_1d"),
            (affine_nd([[0.5, 0.25], [0.0, -0.5]], [1.0, 0.0], c=0.3), "euclid_nd"),
        ]),
        data=st.data(),
    )
    def test_matches_loop_oracle(self, case, data):
        f, name = case
        metric = make_metric(name)
        dim = f.dim or 1
        k = data.draw(st.integers(0, 10))
        values = st.sampled_from([0.0, 0.5, 1.0, 2.0, 6.0])
        x, y = (
            np.array(data.draw(st.lists(values, min_size=k * dim, max_size=k * dim))).reshape(k, dim)
            for _ in range(2)
        )

        def outcome(estimate, pairs):
            try:
                return estimate(f, metric, pairs)
            except ContractionError as exc:
                return str(exc)

        pairs = [(Point(a), Point(b)) for a, b in zip(x, y)]
        assert outcome(estimate_contraction_constant, (x, y)) == outcome(
            loop_estimate_contraction_constant, pairs
        )


class TestDeriveShift:
    @pytest.mark.parametrize(
        "c, lam, s, expected",
        [
            (0.25, 0.5, 2.0, 2),
            (0.5, 0.5, 2.0, 3),
            (0.9, 0.5, 1.0, 7),
            (0.0, 0.5, 1.0, 1),
        ],
    )
    def test_worked_values(self, c, lam, s, expected):
        assert derive_shift(c, lam, s) == expected

    @pytest.mark.parametrize(
        "c, lam, s",
        [(-0.1, 0.5, 1.0), (1.0, 0.5, 1.0), (0.5, 0.0, 1.0), (0.5, 1.0, 1.0), (0.5, 0.5, 0.9)],
    )
    def test_argument_validation(self, c, lam, s):
        with pytest.raises(ValueError):
            derive_shift(c, lam, s)

    def test_target_below_tolerance_is_unsatisfiable(self):
        with pytest.raises(ContractionError):
            derive_shift(0.5, 1e-10, 1.0)
        # lam / s - eta is exactly 0 here.
        with pytest.raises(ContractionError, match="below tolerance"):
            derive_shift(0.5, ETA, 1.0)

    def test_a_power_equal_to_the_target_does_not_satisfy_it(self):
        lam = 0.25 + ETA
        assert lam / 1.0 - ETA == 0.25 == 0.5**2
        assert derive_shift(0.5, lam, 1.0) == 3

    def test_cap_guards_runaway_constants(self):
        with pytest.raises(ContractionError):
            derive_shift(0.999999, 0.5, 1.0)
        # The cap itself is still a shift.
        assert derive_shift(0.9993067464838122, 0.5, 1.0) == SHIFT_CAP

    @given(
        c=st.floats(min_value=0.01, max_value=0.95),
        lam=st.floats(min_value=0.05, max_value=0.95),
        s=st.sampled_from([1.0, 2.0, 4.0]),
    )
    def test_result_is_minimal(self, c, lam, s):
        p = derive_shift(c, lam, s)
        target = lam / s - ETA
        power = 1.0
        for _ in range(p):
            power *= c
        assert power < target
        if p > 1:
            shorter = 1.0
            for _ in range(p - 1):
                shorter *= c
            assert not (shorter < target)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert (cfg.lam, cfg.block, cfg.max_iterations, cfg.eps) == (0.5, 32, 10_000, 1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block": 0},
            {"block": 64, "max_iterations": 32},
            {"eps": -5e-324},
            {"eps": math.inf},
            {"eps": math.nan},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("eps", [0.0, sys.float_info.max])
    def test_admitted_eps(self, eps):
        assert SolverConfig(eps=eps).eps == eps


class TestSolveFixedPoint:
    def test_affine_certified_solution(self, euclid):
        result = solve_fixed_point(affine_1d(0.9, 0.1), euclid, Point(0.0), 0.01)
        assert result.iterations == 128
        assert result.fixed_point.coords[0] == 0.9999986099154762
        assert abs(result.fixed_point.coords[0] - 1.0) < 0.015
        assert result.residual == result.residual_bound
        assert result.residual < 1.5e-7
        assert result.contraction_ratio <= 0.9 + 1e-6
        cert = result.certificate
        assert cert.witness == ShiftWitness(0.01, 7, 0.5, 1)
        assert cert.oracle_tail_diameter < cert.diameter_bound

    def test_one_full_matrix_build_per_solve(self, euclid, monkeypatch):
        # Each block extends the prefix, so only the first certified prefix
        # builds its matrix from scratch.
        calls = []
        build = DbMetric.matrix

        def counted(metric, coords):
            calls.append(len(coords))
            return build(metric, coords)

        monkeypatch.setattr(DbMetric, "matrix", counted)
        result = solve_fixed_point(affine_1d(0.9, 0.1), euclid, Point(0.0), 0.01, SolverConfig(block=8))
        assert result.iterations == 112
        assert calls == [16]

    def test_grown_matrix_allocates_less_than_two_matrices(self, euclid):
        # Copying the shorter prefix's matrix into a new one held two N x N
        # matrices at the last block.  Growing into spare capacity holds one
        # buffer of ceil(5 N / 4) rows, and two only while a regrowth copies.
        # The solve is the benchmark's a = 0.99 shape: x* = 0, |x0 - x*| = 5.86.
        tracemalloc.start()
        try:
            result = solve_fixed_point(affine_1d(0.99, 0.0), euclid, Point(5.86), 0.01, SolverConfig(block=32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = result.iterations
        assert n == 1120
        assert peak < 2 * n * n * 8

    def test_halving_lands_on_dyadic_iterate(self, euclid):
        result = solve_fixed_point(halving(), euclid, Point(1.0), 0.01)
        assert result.iterations == 32
        assert result.fixed_point.coords[0] == 2.0**-32
        assert result.residual == 2.0**-33

    def test_constant_map_immediate_residual_zero(self, euclid):
        result = solve_fixed_point(constant_map(3.0), euclid, Point(0.0), 0.01)
        assert result.iterations == 32  # one block is the floor
        assert result.fixed_point == Point(3.0)
        assert result.residual == 0.0
        assert result.residual_bound == 0.0

    def test_logistic_collapses_to_origin(self, euclid):
        result = solve_fixed_point(logistic_damped(0.8), euclid, Point(0.5), 0.01)
        assert result.iterations == 64
        assert result.fixed_point.coords[0] == pytest.approx(0.0, abs=1e-7)
        assert result.residual <= result.residual_bound + ETA

    def test_multidimensional_contraction(self):
        m = make_metric("euclid_nd")
        f = affine_nd(0.5 * np.eye(2), np.array([1.0, 2.0]), 0.5)
        result = solve_fixed_point(f, m, Point([0.0, 0.0]), 0.01)
        # True fixed point solves x = 0.5 x + (1, 2), i.e. (2, 4).
        assert np.allclose(result.fixed_point.coords, [2.0, 4.0], atol=1e-6)

    def test_budget_exhaustion_raises(self, euclid):
        with pytest.raises(SolverError) as exc:
            solve_fixed_point(
                halving(), euclid, Point(1.0), 0.01,
                SolverConfig(block=8, max_iterations=8),
            )
        assert "within 8 iterations" in str(exc.value)

    def test_understated_c_rejected_before_iterating(self, euclid):
        liar = Contraction(name="liar", fn=lambda x: 0.9 * x, c=0.3, dim=1)
        with pytest.raises(ContractionError) as exc:
            solve_fixed_point(liar, euclid, Point(1.0), 0.01)
        assert "exceeds declared c" in str(exc.value)

    def test_hypothesis_rechecked_along_the_orbit(self, euclid):
        # Contracts on the sampling box [0, 10] but expands below zero; the
        # up-front sample cannot see that, the orbit from -1 does.
        kinked = Contraction(
            name="kinked",
            fn=lambda x: np.where(x < 0.0, 1.5 * x, 0.5 * x),
            c=0.5,
            dim=1,
        )
        with pytest.raises(ContractionError) as exc:
            solve_fixed_point(kinked, euclid, Point(-1.0), 0.01)
        assert "mid-run" in str(exc.value)

    def test_target_delta_must_be_positive(self, euclid):
        with pytest.raises(ValueError, match="target delta must be positive, got 0.0"):
            solve_fixed_point(halving(), euclid, Point(1.0), 0.0)

    def test_a_step_at_eta_is_no_ratio_base(self, euclid):
        # Steps eta, 0.9 eta, 0, ...: a base at eta would give the ratio 0.9.
        f = _scripted([-1.0, 0.0, ETA, 1.9 * ETA])
        result = solve_fixed_point(f, euclid, Point(-1.0), 0.01)
        assert result.contraction_ratio == 0.5

    def test_a_step_ratio_at_c_plus_eta_holds(self, euclid):
        # Steps 1, 0.5 + eta, 0, ...
        f = _scripted([2.0, 1.0, 0.0, 0.5 + ETA])
        result = solve_fixed_point(f, euclid, Point(2.0), 0.01)
        assert result.contraction_ratio == 0.5 + ETA

    def test_result_serializes(self, euclid):
        import json

        result = solve_fixed_point(halving(), euclid, Point(1.0), 0.01)
        data = json.loads(json.dumps(result.to_dict()))
        assert data["fixed_point"] == [2.0**-32]
        assert data["certificate"]["witness"]["p"] == 2


_coord = st.floats(-5.0, 5.0)

#: (contraction, metric name, seed point) over the registry's contractions;
#: affine_nd declares a c independent of its matrix, so the sampled check can fail.
_SOLVE_CASES = st.one_of(
    st.tuples(
        st.builds(affine_1d, st.floats(-0.95, 0.95), _coord),
        st.sampled_from(["euclid_1d", "sq_abs"]),
        _coord,
    ),
    st.tuples(st.just(halving()), st.sampled_from(["euclid_1d", "sq_abs"]), _coord),
    st.tuples(st.just(halving()), st.just("euclid_nd"), st.lists(_coord, min_size=1, max_size=3)),
    st.tuples(
        st.builds(logistic_damped, st.floats(0.05, 0.95)),
        st.just("euclid_1d"),
        st.floats(0.0, 1.0),
    ),
    st.tuples(st.builds(constant_map, _coord), st.just("euclid_1d"), _coord),
    st.tuples(
        st.builds(
            affine_nd,
            st.lists(st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=2), min_size=2, max_size=2),
            st.lists(_coord, min_size=2, max_size=2),
            st.floats(0.05, 0.95),
        ),
        st.just("euclid_nd"),
        st.lists(_coord, min_size=2, max_size=2),
    ),
)


class TestSolverMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        case=_SOLVE_CASES,
        block=st.integers(1, 33),
        max_iterations=st.integers(33, 160),
        eps=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.5]),
        target_delta=st.sampled_from([0.5, 0.01, 1e-4]),
        lam=st.sampled_from([0.3, 0.5, 0.8]),
        n0=st.integers(1, 4),
        seed=st.integers(0, 3),
    )
    def test_same_result_or_error(
        self, case, block, max_iterations, eps, target_delta, lam, n0, seed
    ):
        f, metric_name, x0 = case
        metric = make_metric(metric_name)
        cfg = SolverConfig(
            lam=lam, n0=n0, block=block, max_iterations=max_iterations,
            eps=eps, seed=seed,
        )

        def run(solve):
            try:
                return solve(f, metric, Point(x0), target_delta, cfg)
            except (SolverError, ContractionError) as exc:
                return type(exc), str(exc)

        assert run(solve_fixed_point) == run(blockwise_solve_fixed_point)


class TestRegistry:
    def test_available(self):
        names = set(documented()["contractions"])
        assert names == {"halving", "affine_1d", "affine_nd", "logistic_damped", "constant"}

    def test_unknown_name(self):
        with pytest.raises(ContractionError):
            make_contraction("spiral")

    def test_bad_parameters(self):
        with pytest.raises(ContractionError):
            make_contraction("affine_1d", a=1.5)
        with pytest.raises(ContractionError):
            make_contraction("logistic_damped", r=1.2)
        for a in (1.0, -1.0):
            with pytest.raises(ContractionError, match="affine slope must satisfy"):
                affine_1d(a)
        for r in (0.0, 1.0):
            with pytest.raises(ContractionError, match="damping must satisfy"):
                logistic_damped(r)
        with pytest.raises(ContractionError):
            affine_nd(np.eye(2), np.zeros(3), 0.5)

    def test_constant_vector_dimension(self):
        f = make_contraction("constant", value=[1.0, 2.0])
        assert f.dim == 2
        assert f.c == 0.0
