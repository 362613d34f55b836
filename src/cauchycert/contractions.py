"""Contraction mappings and certified fixed-point iteration.

The classical Banach iteration is driven here with a certified stopping rule
instead of a bare step-size heuristic: the orbit is grown in blocks until the
certification module issues a tail diameter certificate at the requested
delta *and* the last step distance falls below the tail threshold.  For a
c-contraction the required shift witness is not searched for -- it is derived
from c, since distances contract by c**p under a shift by p.

Orbits are indexed x_n = f^n(x0) starting at n = 1; the seed x0 itself is not
part of the sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .certificates import CauchyCertificate, certify_cauchy, diameter_bound
from .errors import ContractionError, SolverError
from .metrics import ETA, DbMetric, JsonReport, Pairs, Point
from .sequences import SequencePrefix, ShiftWitness, TailConfig, consecutive_distances

#: Hard cap for the derived shift; beyond this the witness is unsatisfiable.
SHIFT_CAP = 1000

#: Sampled pairs on which the solver verifies the declared contraction constant.
VERIFY_PAIRS = 32


@dataclass(frozen=True)
class Contraction:
    """A self-map with a declared contraction constant c in [0, 1).

    The declared c is metadata, like a metric's declared s: it is verified by
    sampling (see :func:`estimate_contraction_constant`), never trusted
    blindly.  ``sample_low`` / ``sample_high`` bound the box the map is meant
    to contract on, used when sampling verification pairs.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    c: float
    dim: Optional[int] = None
    sample_low: float = 0.0
    sample_high: float = 10.0

    def __post_init__(self):
        if not (0.0 <= self.c < 1.0):
            raise ContractionError(f"declared contraction constant must lie in [0, 1), got {self.c}")

    def apply(self, p: Point) -> Point:
        return Point(_orbit(self, p.coords, 1)[0])


def _orbit(f: Contraction, x: np.ndarray, n: int) -> np.ndarray:
    """The iterates f(x), ..., f^n(x) of the 1-d coordinates x, one row each,
    checked for finiteness together: a non-finite row raises
    :class:`ContractionError` naming the iterate it was computed from."""
    rows = [x]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, as a non-finite row
        for _ in range(n):
            rows.append(np.atleast_1d(np.asarray(f.fn(rows[-1]), dtype=float)))
    block = np.array(rows[1:])
    bad = np.flatnonzero(~np.all(np.isfinite(block.reshape(n, -1)), axis=1))
    if bad.size:
        raise ContractionError(f"map {f.name!r} produced non-finite values at {Point(rows[bad[0]])}")
    return block


def iterate(f: Contraction, x0: Point, n: int, metric: DbMetric) -> SequencePrefix:
    """The orbit prefix x_1 = f(x0), ..., x_n = f^n(x0)."""
    if n < 2:
        raise ValueError("an orbit prefix needs at least 2 iterates")
    return SequencePrefix(_orbit(f, x0.coords, n), metric)


class ContractionEstimate(NamedTuple):
    ratio: float
    violation: bool
    worst_pair: Optional[tuple[Point, Point]]


def estimate_contraction_constant(
    f: Contraction, metric: DbMetric, pairs: Pairs
) -> ContractionEstimate:
    """Supremum of rho(f x, f y) / rho(x, y) over sampled nondegenerate pairs.

    ``pairs`` are aligned ``(k, d)`` stacks.  Pairs at (numerically) zero
    distance carry no ratio information and are skipped (f is not applied to
    them); a sample consisting only of such pairs raises ContractionError.
    ``worst_pair`` is the first maximizer, or None when every ratio is zero.
    ``violation`` flags a sup exceeding the declared c beyond tolerance.
    """
    x, y = pairs
    base = metric.rows(x, y)
    used = base > ETA
    if not np.any(used):
        raise ContractionError("all sampled pairs are degenerate (zero base distance)")
    x, y = x[used], y[used]
    # f(x_1), f(y_1), f(x_2), ...: the order in which a failing image surfaces.
    images = np.array([f.apply(Point(p)).coords for pair in zip(x, y) for p in pair])
    ratio = metric.rows(images[0::2], images[1::2]) / base[used]
    i = int(np.argmax(ratio))
    best = float(ratio[i])
    worst = (Point(x[i]), Point(y[i])) if best > 0.0 else None
    return ContractionEstimate(best, best > f.c + ETA, worst)


def derive_shift(c: float, lam: float, s: float) -> int:
    """Smallest shift p >= 1 with c**p < lam / s - eta.

    For a c-contraction, distances contract by exactly c**p under a shift by
    p, so this p makes any witness (delta, p, lam, n0) hold at every scale
    delta.  The result is minimal by construction: p - 1 does not satisfy the
    inequality (p = 1 trivially so, since c**0 = 1 >= lam / s).
    """
    if not (0.0 <= c):
        raise ValueError(f"contraction constant must be nonnegative, got {c}")
    if c >= 1.0:
        raise ValueError(f"no shift exists for c >= 1, got {c}")
    if not (0.0 < lam < 1.0):
        raise ValueError(f"lam must lie strictly in (0, 1), got {lam}")
    if s < 1.0:
        raise ValueError(f"relaxation constant must be >= 1, got {s}")
    target = lam / s - ETA
    if target <= 0.0:
        raise ContractionError(f"lam / s = {lam / s} is below tolerance: unsatisfiable")
    p = 1
    power = c
    while not (power < target):
        p += 1
        power *= c
        if p > SHIFT_CAP:
            raise ContractionError(
                f"required shift exceeds cap {SHIFT_CAP} for c={c}, lam={lam}, s={s}: unsatisfiable"
            )
    return p


# ---------------------------------------------------------------------------
# Certified fixed-point iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    lam: float = 0.5
    n0: int = 1
    block: int = 32
    max_iterations: int = 10_000
    tail: TailConfig = TailConfig()
    seed: int = 0

    def __post_init__(self):
        if self.block < 1 or self.max_iterations < self.block:
            raise ValueError("need block >= 1 and max_iterations >= block")


@dataclass(frozen=True)
class SolveResult(JsonReport):
    """A certified approximate fixed point.

    ``residual`` is rho(x*, f x*) and ``residual_bound`` the dislocated-safe
    form s * (rho(x*, f x*) + rho(f x*, f x*)); for a genuine metric (s = 1,
    zero self-distance) the two coincide.
    """

    fixed_point: Point
    iterations: int
    certificate: CauchyCertificate
    residual: float
    residual_bound: float
    contraction_ratio: float


def _verification_pairs(f: Contraction, metric: DbMetric, rng: np.random.Generator) -> Pairs:
    dim = metric.dim if metric.dim is not None else (f.dim or 1)
    a = rng.uniform(f.sample_low, f.sample_high, size=(VERIFY_PAIRS, dim))
    b = rng.uniform(f.sample_low, f.sample_high, size=(VERIFY_PAIRS, dim))
    return a, b


def solve_fixed_point(
    f: Contraction,
    metric: DbMetric,
    x0: Point,
    target_delta: float,
    cfg: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Iterate f from x0 until a certificate at target_delta is issued.

    The contraction hypothesis is verified up front on sampled pairs and
    re-checked along the orbit itself (consecutive step ratios); a violation
    aborts with ContractionError.  The orbit grows in blocks; after each block
    the certificate for the derived witness (target_delta, derived p, lam, n0)
    is attempted with the consecutive-decay report at ``cfg.tail``.  Each
    block extends the prefix, whose distance matrix and shift profile then
    gain only the new rows and columns.  The method returns as soon as a certificate is issued
    and the last step distance rho(x_N, x_{N-1}) is at most ``cfg.tail.eps``;
    exhausting the iteration budget first raises SolverError, and so does,
    before any iteration, a diameter bound at target_delta that overflows a
    float.
    """
    if target_delta <= 0.0:
        raise ValueError(f"target delta must be positive, got {target_delta}")
    sample = _verification_pairs(f, metric, np.random.default_rng(cfg.seed))
    estimate = estimate_contraction_constant(f, metric, sample)
    if estimate.violation:
        raise ContractionError(
            f"sampled contraction ratio {estimate.ratio} exceeds declared c = {f.c} "
            f"at pair {estimate.worst_pair}"
        )

    p = derive_shift(f.c, cfg.lam, metric.s)
    witness = ShiftWitness(delta=target_delta, p=p, lam=cfg.lam, n0=cfg.n0)
    if not math.isfinite(diameter_bound(witness, metric.s)):
        raise SolverError(f"the diameter bound at delta = {target_delta} overflows a float")
    min_len = max(cfg.n0 + p + 2, 4)

    # Certification starts at the first block boundary at or past min_len;
    # after that the prefix grows one block at a time and extends its matrix.
    pts = _orbit(f, x0.coords, min(-(-min_len // cfg.block) * cfg.block, cfg.max_iterations))
    seq = SequencePrefix(pts, metric) if len(pts) >= min_len else None
    ratio_seen = estimate.ratio
    while seq is not None:
        # Mid-run hypothesis check: consecutive step ratios are image/base
        # ratios of the map, so they must also respect the declared c.
        steps = consecutive_distances(seq)
        nz = steps[:-1] > ETA
        if np.any(nz):
            ratios = steps[1:][nz] / steps[:-1][nz]
            ratio_seen = max(ratio_seen, float(np.max(ratios)))
            if ratio_seen > f.c + ETA:
                raise ContractionError(
                    f"contraction hypothesis violated mid-run: step ratio {ratio_seen} "
                    f"exceeds declared c = {f.c}"
                )

        outcome = certify_cauchy(seq, witness, cfg.tail)
        if outcome.certified and steps[-1] <= cfg.tail.eps:
            x_star = seq.point(len(seq))
            fx = f.apply(x_star)
            residual = metric.distance(x_star, fx)
            self_dist = metric.distance(fx, fx)
            return SolveResult(
                fixed_point=x_star,
                iterations=len(seq),
                certificate=outcome.certificate,
                residual=residual,
                residual_bound=metric.s * (residual + self_dist),
                contraction_ratio=ratio_seen,
            )
        room = cfg.max_iterations - len(seq)
        seq = seq.extend(_orbit(f, seq.coords[-1], min(cfg.block, room))) if room else None
    raise SolverError(
        f"no certificate at delta = {target_delta} within {cfg.max_iterations} iterations"
    )


# ---------------------------------------------------------------------------
# Registry (CLI contraction sources)
# ---------------------------------------------------------------------------

def halving() -> Contraction:
    """f(x) = x / 2, c = 1/2, any dimension."""
    return Contraction(name="halving", fn=lambda x: x / 2.0, c=0.5, dim=None)


def affine_1d(a: float, b: float = 0.0) -> Contraction:
    """f(x) = a x + b with |a| < 1; c = |a|."""
    a, b = float(a), float(b)
    if not abs(a) < 1.0:
        raise ContractionError(f"affine slope must satisfy |a| < 1, got {a}")
    return Contraction(name="affine_1d", fn=lambda x: a * x + b, c=abs(a), dim=1)


def affine_nd(matrix, offset, c: float) -> Contraction:
    """f(x) = M x + b with declared constant c (verified by sampling).

    The caller is responsible for c matching the operator norm of M; the
    sampled verification will flag a declared c that is too small.
    """
    m = np.asarray(matrix, dtype=float)
    b = np.asarray(offset, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or b.shape != (m.shape[0],):
        raise ContractionError(
            f"need a square matrix and a matching offset, got {m.shape} and {b.shape}"
        )
    return Contraction(name="affine_nd", fn=lambda x: m @ x + b, c=float(c), dim=m.shape[0])


def logistic_damped(r: float = 0.8) -> Contraction:
    """f(x) = r x (1 - x) on [0, 1] with 0 < r < 1; c = r.

    The derivative magnitude r |1 - 2x| is bounded by r on [0, 1], so the map
    contracts there (and only there -- the sampling box is [0, 1]).
    """
    r = float(r)
    if not (0.0 < r < 1.0):
        raise ContractionError(f"damping must satisfy 0 < r < 1, got {r}")
    return Contraction(
        name="logistic_damped",
        fn=lambda x: r * x * (1.0 - x),
        c=r,
        dim=1,
        sample_low=0.0,
        sample_high=1.0,
    )


def constant_map(value) -> Contraction:
    """f == value: the degenerate contraction with c = 0."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    return Contraction(name="constant", fn=lambda x: arr.copy(), c=0.0, dim=arr.size)


CONTRACTION_BUILDERS: dict[str, tuple[Callable[..., Contraction], dict[str, str]]] = {
    "halving": (halving, {}),
    "affine_1d": (affine_1d, {"a": "slope, |a| < 1", "b": "intercept (default 0.0)"}),
    "affine_nd": (
        affine_nd,
        {"matrix": "square matrix as nested lists", "offset": "offset vector", "c": "declared constant"},
    ),
    "logistic_damped": (logistic_damped, {"r": "damping, 0 < r < 1 (default 0.8)"}),
    "constant": (constant_map, {"value": "the constant image (scalar or vector)"}),
}


def make_contraction(name: str, **params) -> Contraction:
    if name not in CONTRACTION_BUILDERS:
        raise ContractionError(
            f"unknown contraction {name!r}; available: {sorted(CONTRACTION_BUILDERS)}"
        )
    factory, _ = CONTRACTION_BUILDERS[name]
    return factory(**params)


def available_contractions() -> dict[str, dict[str, str]]:
    return {name: dict(params) for name, (_, params) in CONTRACTION_BUILDERS.items()}
