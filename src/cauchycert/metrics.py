"""Dislocated b-metric instances and sampled axiom checking.

A dislocated b-metric is a symmetric, nonnegative distance function where
``rho(x, y) = 0`` forces ``x = y`` (but ``rho(x, x)`` may be positive) and the
triangle inequality holds up to a relaxation factor ``s >= 1``:

    rho(x, z) <= s * (rho(x, y) + rho(y, z)).

The declared ``s`` is user-supplied metadata; checkers compare sampled
behaviour against it and never mutate it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import MetricError
from .registry import factory
from .reports import JsonReport, to_json  # noqa: F401  (to_json: re-exported)

#: Comparison tolerance used for every equality / strictness test on distances.
ETA = 1e-9

#: Elements per row chunk of a scan over a distance matrix; bounds the
#: scan's temporaries independently of N.  The build has its own, smaller
#: budget, :data:`_BUILD_CHUNK`.
_CHUNK = 2**18

#: Pairs times coordinates per row chunk of a matrix build (:meth:`DbMetric.cross`).
#: A distance function may make ``(rows, len(b), d)`` temporaries, so the
#: budget counts coordinates.  It is smaller than :data:`_CHUNK` so that each
#: float temporary stays at or under 128 KiB: glibc then serves it from the
#: heap it keeps, where a larger one is mapped, trimmed on free and faulted
#: in again by the next chunk.
_BUILD_CHUNK = 2**14


def chunk_rows(width: int) -> int:
    """Rows per chunk of a scan whose rows hold ``width`` elements
    (at least 1; a matrix build sizes its chunks by :data:`_BUILD_CHUNK`)."""
    return max(1, _CHUNK // max(width, 1))


def matrix_buffer(rows: int, cols: int) -> np.ndarray:
    """A zeroed ``(rows, cols)`` array with ``rows + cols`` spare zeros after it in its buffer."""
    return np.zeros(rows * cols + rows + cols)[: rows * cols].reshape(rows, cols)


class Point(JsonReport):
    """A point of the ground set: a fixed-length vector of finite reals.

    Scalars are accepted and stored as 1-vectors.  Coordinates are frozen at
    construction and non-finite components are rejected.  In a report a
    point is the list of its coordinates.
    """

    __slots__ = ("coords",)

    def __init__(self, value):
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1 or arr.size == 0:
            raise MetricError(
                f"a point must be a scalar or a nonempty 1-d vector, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise MetricError(f"point has non-finite components: {arr.tolist()}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.coords = arr

    @property
    def dim(self) -> int:
        return self.coords.size

    def tolist(self) -> list[float]:
        return self.coords.tolist()

    json_items = tolist

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it.
        return hash((self.coords + 0.0).tobytes())

    def __repr__(self) -> str:
        if self.dim == 1:
            return f"Point({self.coords.item()!r})"
        return f"Point({self.coords.tolist()!r})"


@dataclass(frozen=True)
class DbMetric:
    """A distance oracle together with its declared relaxation constant.

    Parameters
    ----------
    name : str
        Registry identifier.
    s : float
        Declared triangle relaxation constant, ``s >= 1``.
    rows_fn : callable
        The distance function: maps two broadcastable ``(..., d)`` stacks to
        the ``(...)`` array of their distances.  Every evaluation -- one
        pair, aligned rows or the all-pairs matrix -- goes through it, so
        they agree bit for bit.
    dim : int or None
        Required point dimension; ``None`` accepts any dimension.
    zero_self_distance : bool
        Instance is declared to satisfy ``rho(x, x) = 0`` (the b-metric
        convention).  Dislocated instances leave this False, and only
        declared instances are held to the converse check.
    """

    name: str
    s: float
    rows_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim: Optional[int] = None
    zero_self_distance: bool = False

    def __post_init__(self):
        if not (isinstance(self.s, (int, float)) and math.isfinite(self.s) and self.s >= 1.0):
            raise MetricError(f"relaxation constant must be a finite real >= 1, got {self.s!r}")

    def _check_dims(self, a: np.ndarray, b: np.ndarray) -> None:
        for d in (a.shape[-1], b.shape[-1]):
            if self.dim is not None and d != self.dim:
                raise MetricError(
                    f"metric {self.name!r} expects dimension {self.dim}, got point of dimension {d}"
                )
        if a.shape[-1] != b.shape[-1]:
            raise MetricError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")

    def _fill(self, out: np.ndarray, a: np.ndarray, b: np.ndarray) -> Optional[float]:
        """Write the distances between ``(..., d)`` stacks ``a`` and ``b``,
        broadcast to ``out.shape``, into ``out``.

        A non-finite distance raises at once, naming the first one in
        row-major order.  The first distance below ``-ETA`` is returned, not
        raised, so that a caller filling ``out`` in pieces reports a
        non-finite value in a later piece first.  Negative round-off within
        the tolerance is clamped to zero.  Callers run this with numpy's
        overflow and invalid warnings off: those values are reported here.
        """
        block = np.asarray(self.rows_fn(a, b), dtype=float)
        if block.shape != out.shape:
            raise MetricError(
                f"metric {self.name!r}: rows_fn must broadcast over leading axes, "
                f"got shape {block.shape} for stacks of shapes {a.shape} and {b.shape}"
            )
        # Two reductions that allocate nothing and propagate NaN; the masks
        # that name the offending value are built only when one is there.
        low = float(block.min(initial=0.0))
        high = float(block.max(initial=0.0))
        if not (math.isfinite(low) and math.isfinite(high)):
            value = float(block[~np.isfinite(block)][0])
            raise MetricError(f"metric {self.name!r} produced a non-finite distance {value}")
        negative = float(block[block < -ETA][0]) if low < -ETA else None
        # clip turns -0.0 into +0.0, where np.maximum may keep it.
        np.clip(block, 0.0, None, out=out)
        return negative

    def _reject_negative(self, value: Optional[float]) -> None:
        if value is not None:
            raise MetricError(f"metric {self.name!r} produced a negative distance {value}")

    def distance(self, x: Point, y: Point) -> float:
        """rho(x, y): the one-pair case of :meth:`rows`."""
        return float(self.rows(x.coords, y.coords)[0])

    def rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distances between aligned rows of two ``(k, d)`` stacks."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        self._check_dims(a, b)
        out = np.empty(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        with np.errstate(over="ignore", invalid="ignore"):
            self._reject_negative(self._fill(out, a, b))
        return out

    def cross(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Validated ``(len(a), len(b))`` matrix; entry [i, j] is rho(a_i, b_j).

        The output is allocated once and filled in row chunks of
        ``_BUILD_CHUNK // (len(b) * d)`` rows, or one row when a row holds
        more coordinates than :data:`_BUILD_CHUNK`.  The temporaries stay
        bounded whatever N and d: a built-in metric's are at most 128 KiB
        each, or one row's worth.  Each chunk broadcasts the distance
        function over ``a[rows, None]`` and ``b[None, :]``, so every entry is
        evaluated exactly as in :meth:`rows` and the square :meth:`matrix`,
        and blocks of a matrix built this way are bit-identical to the full
        build.  A non-finite distance anywhere is reported before a negative
        one anywhere, each by its first value in row-major order.
        """
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        self._check_dims(a, b)
        out = matrix_buffer(len(a), len(b))
        rows = max(1, _BUILD_CHUNK // max(b.size, 1))
        negative = None
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, len(a), rows):
                first = self._fill(out[i : i + rows], a[i : i + rows, None], b[None, :])
                negative = first if negative is None else negative
        self._reject_negative(negative)
        return out

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        """Read-only all-pairs distance matrix for an ``(N, d)`` coordinate stack."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        out = self.cross(coords, coords)
        out.setflags(write=False)
        return out


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------

def euclid_1d() -> DbMetric:
    """Absolute difference on the reals (genuine metric, s = 1)."""
    return DbMetric(
        name="euclid_1d",
        s=1.0,
        dim=1,
        zero_self_distance=True,
        rows_fn=lambda a, b: np.abs(a[..., 0] - b[..., 0]),
    )


def euclid_nd() -> DbMetric:
    """Euclidean norm distance in any dimension (genuine metric, s = 1)."""
    return DbMetric(
        name="euclid_nd",
        s=1.0,
        dim=None,
        zero_self_distance=True,
        rows_fn=lambda a, b: np.linalg.norm(a - b, axis=-1),
    )


def sq_abs() -> DbMetric:
    """Squared difference on the reals: a b-metric with s = 2, not a metric."""
    return DbMetric(
        name="sq_abs",
        s=2.0,
        dim=1,
        zero_self_distance=True,
        rows_fn=lambda a, b: (a[..., 0] - b[..., 0]) ** 2,
    )


def max_dislocated() -> DbMetric:
    """rho(x, y) = max(x, y) on the nonnegative reals.

    Self-distance rho(x, x) = x is positive away from zero, which is what
    makes the instance dislocated; s = 1.
    """
    return DbMetric(
        name="max_dislocated",
        s=1.0,
        dim=1,
        rows_fn=lambda a, b: np.maximum(a[..., 0], b[..., 0]),
    )


def shifted_dislocated(offset: float = 1.0) -> DbMetric:
    """rho(x, y) = |x - y| + offset with offset > 0: uniformly dislocated, s = 1."""
    offset = float(offset)
    if not (math.isfinite(offset) and offset > 0.0):
        raise MetricError(f"shift offset must be a positive real, got {offset!r}")
    return DbMetric(
        name="shifted_dislocated",
        s=1.0,
        dim=1,
        rows_fn=lambda a, b: np.abs(a[..., 0] - b[..., 0]) + offset,
    )


def broken_asym() -> DbMetric:
    """rho(x, y) = max(x - y, 0): deliberately asymmetric, for negative tests."""
    return DbMetric(
        name="broken_asym",
        s=1.0,
        dim=1,
        rows_fn=lambda a, b: np.maximum(a[..., 0] - b[..., 0], 0.0),
    )


def make_metric(name: str, s: Optional[float] = None, **params) -> DbMetric:
    """Build a registered metric, optionally overriding the declared ``s``."""
    metric = factory("metrics", name)(**params)
    if s is not None:
        metric = dataclasses.replace(metric, s=float(s))
    return metric


# ---------------------------------------------------------------------------
# Sampled axiom checks
# ---------------------------------------------------------------------------

#: Aligned ``(k, d)`` coordinate stacks; row i of each stack is sample i.
Pairs = tuple[np.ndarray, np.ndarray]
Triples = tuple[np.ndarray, np.ndarray, np.ndarray]


class PairCheck(NamedTuple):
    ok: bool
    counterexample: Optional[tuple[Point, Point]]


class TriangleEstimate(NamedTuple):
    min_s: float
    worst: Optional[tuple[Point, Point, Point]]


def _nonempty(rows: np.ndarray, what: str) -> None:
    if len(rows) == 0:
        raise ValueError(f"a nonempty {what} sample is required")


def _row(i: int, *stacks: np.ndarray) -> tuple[Point, ...]:
    return tuple(Point(stack[i]) for stack in stacks)


def _pair_check(bad: np.ndarray, x: np.ndarray, y: np.ndarray) -> PairCheck:
    """Fails at the first flagged row, in sample order."""
    if not np.any(bad):
        return PairCheck(True, None)
    return PairCheck(False, _row(int(np.argmax(bad)), x, y))


def check_symmetry(metric: DbMetric, pairs: Pairs) -> PairCheck:
    """Require |rho(x, y) - rho(y, x)| <= tolerance on every sampled pair.

    Returns the first failing pair in sample order, so a reported
    counterexample is reproducible by re-evaluating both orientations.
    """
    x, y = pairs
    _nonempty(x, "pair")
    return _pair_check(np.abs(metric.rows(x, y) - metric.rows(y, x)) > ETA, x, y)


def check_zero_identity(metric: DbMetric, pairs: Pairs) -> PairCheck:
    """Pairs at (numerically) zero distance must be componentwise equal."""
    x, y = pairs
    _nonempty(x, "pair")
    apart = np.max(np.abs(x - y), axis=-1) > ETA
    return _pair_check((metric.rows(x, y) <= ETA) & apart, x, y)


def check_self_distance_zero(metric: DbMetric, points: np.ndarray) -> PairCheck:
    """Converse check for declared b-metric instances: rho(x, x) = 0."""
    _nonempty(points, "point")
    return _pair_check(metric.rows(points, points) > ETA, points, points)


def estimate_minimal_s(metric: DbMetric, triples: Triples) -> TriangleEstimate:
    """Supremum of rho(x, z) / (rho(x, y) + rho(y, z)) over the sample.

    This is exhaustive brute force over the given triples, so the estimate
    never exceeds the true sampled supremum; ``worst`` is its first
    maximizer, or None when every ratio is zero.  Triples whose two legs sum
    to (numerically) zero are skipped, unless the direct distance is
    positive -- that violates the relaxed triangle inequality for every s,
    so the estimate is ``inf`` and ``worst`` is the first such triple.
    """
    x, y, z = triples
    _nonempty(x, "triple")
    legs = metric.rows(x, y) + metric.rows(y, z)
    direct = metric.rows(x, z)
    degenerate = legs <= ETA
    violation = degenerate & (direct > ETA)
    if np.any(violation):
        return TriangleEstimate(math.inf, _row(int(np.argmax(violation)), x, y, z))
    ratio = np.divide(direct, legs, out=np.zeros_like(direct), where=~degenerate)
    i = int(np.argmax(ratio))
    best = float(ratio[i])
    return TriangleEstimate(best, _row(i, x, y, z) if best > 0.0 else None)


# ---------------------------------------------------------------------------
# Deterministic sampling and the aggregate report
# ---------------------------------------------------------------------------

#: Sampled coordinates are snapped to multiples of 1 / _SNAP (see _rng_points).
_SNAP = 2.0**20


@dataclass(frozen=True)
class SamplerConfig:
    """Grid-plus-seeded-uniform sampling over a box (default [0, 10] per axis)."""

    pair_count: int = 200
    triple_count: int = 200
    seed: int = 0
    box_low: float = 0.0
    box_high: float = 10.0
    grid_points: int = 11

    def __post_init__(self):
        if self.box_high <= self.box_low:
            raise ValueError("sampling box must have positive width")
        if not (math.isfinite(self.box_low * _SNAP) and math.isfinite(self.box_high * _SNAP)):
            raise ValueError(
                f"sampling box bounds times 2**20 must be finite, got [{self.box_low}, {self.box_high}]"
            )
        if self.pair_count < 1 or self.triple_count < 1:
            raise ValueError("sample counts must be positive")
        if self.grid_points < 2:
            raise ValueError("need at least two grid points per axis")


def _rng_points(rng: np.random.Generator, cfg: SamplerConfig, dim: int, count: int) -> np.ndarray:
    # Draws are snapped to dyadic rationals (multiples of 2**-20) so that
    # differences, midpoints and their squares are exact in double precision.
    # Without this, a midpoint triple can push a triangle ratio past its true
    # supremum by a few ulps, which matters when the estimate is compared
    # against the declared s at tight tolerance.
    raw = rng.uniform(cfg.box_low, cfg.box_high, size=(count, dim))
    return np.round(raw * _SNAP) / _SNAP


def _grid(cfg: SamplerConfig, axes: int) -> list[np.ndarray]:
    """Every combination of 1-d grid values, first axis slowest, as ``(g**axes, 1)`` columns."""
    grid = np.linspace(cfg.box_low, cfg.box_high, cfg.grid_points)
    return [g.reshape(-1, 1) for g in np.meshgrid(*[grid] * axes, indexing="ij")]


def sample_pairs(cfg: SamplerConfig, dim: int) -> Pairs:
    """Sampled pairs as ``(x, y)`` stacks, in this order: 1-d grid pairs (when
    dim == 1), uniform draws, identical pairs."""
    rng = np.random.default_rng(cfg.seed)
    parts = [_grid(cfg, 2)] if dim == 1 else []
    x = _rng_points(rng, cfg, dim, cfg.pair_count)
    y = _rng_points(rng, cfg, dim, cfg.pair_count)
    # Identical pairs exercise self-distances explicitly.
    c = _rng_points(rng, cfg, dim, max(cfg.pair_count // 8, 4))
    parts += [(x, y), (c, c)]
    return tuple(np.concatenate(stack) for stack in zip(*parts))


def sample_triples(cfg: SamplerConfig, dim: int) -> Triples:
    """Sampled triples as ``(x, y, z)`` stacks, always including equispaced
    (x, midpoint, z) triples.  In order: 1-d grid triples and grid midpoint
    triples (when dim == 1), uniform draws, their midpoint triples.

    The midpoint triples matter: for quadratic-type instances they are the
    maximizers of the triangle ratio, so omitting them systematically
    underestimates the minimal s.
    """
    rng = np.random.default_rng(cfg.seed + 1)
    parts = []
    if dim == 1:
        a, b = _grid(cfg, 2)
        parts += [_grid(cfg, 3), (a, (a + b) / 2.0, b)]
    x = _rng_points(rng, cfg, dim, cfg.triple_count)
    y = _rng_points(rng, cfg, dim, cfg.triple_count)
    z = _rng_points(rng, cfg, dim, cfg.triple_count)
    parts += [(x, y, z), (x, (x + z) / 2.0, z)]
    return tuple(np.concatenate(stack) for stack in zip(*parts))


@dataclass(frozen=True)
class AxiomReport(JsonReport):
    """Aggregate result of the sampled axiom checks for one metric instance."""

    metric_name: str = dataclasses.field(metadata={"json": "metric"})
    declared_s: float
    symmetry_ok: bool
    zero_identity_ok: bool
    triangle_ok: bool
    estimated_min_s: float
    symmetry_counterexample: Optional[tuple[Point, Point]]
    zero_identity_counterexample: Optional[tuple[Point, Point]]
    violating_triple: Optional[tuple[Point, Point, Point]]
    self_distance_zero_ok: Optional[bool]
    samples_used: int
    seed: int

    @property
    def all_ok(self) -> bool:
        converse = self.self_distance_zero_ok in (None, True)
        return self.symmetry_ok and self.zero_identity_ok and self.triangle_ok and converse

    def json_items(self) -> dict:
        # A triple no s can satisfy makes the estimate infinite; JSON has no inf.
        finite = math.isfinite(self.estimated_min_s)
        return super().json_items() | {
            "estimated_min_s": self.estimated_min_s if finite else None,
            "all_ok": self.all_ok,
        }


def run_axiom_report(metric: DbMetric, cfg: SamplerConfig = SamplerConfig()) -> AxiomReport:
    """Run all sampled axiom checks with a deterministic sample.

    The same metric, configuration and seed always produce a bit-identical
    report.  ``triangle_ok`` is true exactly when the estimated minimal s does
    not exceed the declared s (within tolerance); the violating triple is the
    sampled maximizer when it does, or the unconditional violation when the
    relaxed inequality fails outright.
    """
    dim = metric.dim if metric.dim is not None else 1
    pairs = sample_pairs(cfg, dim)
    triples = sample_triples(cfg, dim)

    symmetry = check_symmetry(metric, pairs)
    zero_identity = check_zero_identity(metric, pairs)

    estimate = estimate_minimal_s(metric, triples)
    triangle_ok = estimate.min_s <= metric.s + ETA

    converse: Optional[bool] = None
    if metric.zero_self_distance:
        points = pairs[0][: max(len(pairs[0]) // 4, 8)]
        converse = check_self_distance_zero(metric, points).ok

    return AxiomReport(
        metric_name=metric.name,
        declared_s=metric.s,
        symmetry_ok=symmetry.ok,
        zero_identity_ok=zero_identity.ok,
        triangle_ok=triangle_ok,
        estimated_min_s=estimate.min_s,
        symmetry_counterexample=symmetry.counterexample,
        zero_identity_counterexample=zero_identity.counterexample,
        violating_triple=None if triangle_ok else estimate.worst,
        self_distance_zero_ok=converse,
        samples_used=len(pairs[0]) + len(triples[0]),
        seed=cfg.seed,
    )
