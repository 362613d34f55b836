"""Finite sequence prefixes and the two finite-prefix Cauchy conditions.

A prefix x_1 .. x_N is scanned for two mechanically checkable conditions:

* consecutive decay -- the step distances rho(x_{n+1}, x_n) become small over
  a trailing window;
* shift contraction -- whenever a pair sits strictly inside the band
  (0, delta), shifting both indices by p contracts its distance below
  delta * lam / s, beyond a cutoff n0.

Together (and only together: a witness can hold vacuously) these imply a
certified diameter bound for the whole tail, which the certification module
replays step by step.  Indices are 1-based everywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MetricError, PrefixTooShort
from .metrics import ETA, DbMetric, Point, chunk_rows


@dataclass(frozen=True)
class TailConfig:
    """Trailing-window configuration for the consecutive-decay check.

    The window starts at step index ceil(tau * (N - 1)); a prefix passes when
    every step distance in the window is at most ``eps``.
    """

    tau: float = 0.5
    eps: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.eps < 0.0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")


@dataclass(frozen=True)
class ShiftWitness:
    """Parameters instantiating the shift-contraction condition.

    ``delta`` is the distance band, ``p`` the index shift, ``lam`` the
    contraction factor (0 < lam < 1) and ``n0`` the cutoff below which pairs
    are ignored.
    """

    delta: float
    p: int
    lam: float
    n0: int

    def __post_init__(self):
        if not (isinstance(self.delta, (int, float)) and self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        # bool is an int subclass, but True is no shift.
        if isinstance(self.p, bool) or not (isinstance(self.p, int) and self.p >= 1):
            raise ValueError(f"shift p must be an integer >= 1, got {self.p!r}")
        if not (0.0 < self.lam < 1.0):
            raise ValueError(f"lam must lie strictly in (0, 1), got {self.lam!r}")
        if isinstance(self.n0, bool) or not (isinstance(self.n0, int) and self.n0 >= 1):
            raise ValueError(f"cutoff n0 must be an integer >= 1, got {self.n0!r}")

    def to_dict(self) -> dict:
        return {"delta": self.delta, "p": self.p, "lambda": self.lam, "n0": self.n0}


def _stack(points: Sequence) -> np.ndarray:
    """:class:`Point` objects or plain scalars / vectors as one row each."""
    coords = np.array([p.coords if isinstance(p, Point) else p for p in points], dtype=float)
    return coords.reshape(-1, 1) if coords.ndim == 1 else coords


class SequencePrefix:
    """A finite prefix x_1 .. x_N together with its metric.

    The points are stored once, as the read-only ``(N, d)`` float64 array
    ``coords``, validated at construction (finiteness, one dimension, the
    metric's dimension).  A prefix is immutable, so its distance matrix is
    built on first use and kept for every later scan; a prefix grown by
    :meth:`extend` builds it from the shorter prefix's matrix.
    """

    def __init__(self, points: Sequence, metric: DbMetric):
        """``points`` holds :class:`Point` objects or plain scalars / vectors."""
        coords = _stack(points)
        if coords.shape[0] < 2:
            raise PrefixTooShort(f"a prefix needs at least 2 points, got {coords.shape[0]}")
        if coords.ndim != 2 or coords.shape[1] == 0:
            raise MetricError(
                f"points must be scalars or nonempty 1-d vectors, got a stack of shape {coords.shape}"
            )
        finite = np.all(np.isfinite(coords), axis=1)
        if not np.all(finite):
            i = int(np.argmin(finite))
            raise MetricError(f"point x_{i + 1} has non-finite components: {coords[i].tolist()}")
        if metric.dim is not None and coords.shape[1] != metric.dim:
            raise MetricError(
                f"metric {metric.name!r} expects dimension {metric.dim}, "
                f"got points of dimension {coords.shape[1]}"
            )
        coords.setflags(write=False)
        self.coords = coords
        self.metric = metric
        self._matrix: Optional[np.ndarray] = None
        self._base: Optional[np.ndarray] = None  # matrix of a leading sub-prefix

    @classmethod
    def from_values(cls, values: Sequence, metric: DbMetric) -> "SequencePrefix":
        return cls(values, metric)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def point(self, n: int) -> Point:
        """1-based access to x_n."""
        if not (1 <= n <= len(self)):
            raise IndexError(f"index {n} outside 1..{len(self)}")
        return Point(self.coords[n - 1])

    def distance(self, n: int, m: int) -> float:
        return self.metric.distance(self.point(n), self.point(m))

    def extend(self, points: Sequence) -> "SequencePrefix":
        """This prefix followed by ``points``, validated like a new prefix.

        The longer prefix keeps this prefix's distance matrix, if one was
        built, and its own matrix copies it and evaluates only the rows and
        columns of the new points.
        """
        new = _stack(points)
        if not len(new):
            return self
        grown = SequencePrefix(np.concatenate([self.coords, new]), self.metric)
        grown._base = self._matrix
        return grown

    def distance_matrix(self) -> np.ndarray:
        """Validated read-only all-pairs matrix; entry [i, j] is rho(x_{i+1}, x_{j+1})."""
        if self._matrix is None:
            base, self._base = self._base, None
            if base is None:
                self._matrix = self.metric.matrix(self.coords)
            else:
                n = base.shape[0]
                out = np.empty((len(self), len(self)))
                out[:n, :n] = base
                out[:n, n:] = self.metric.cross(self.coords[:n], self.coords[n:])
                out[n:] = self.metric.cross(self.coords[n:], self.coords)
                out.setflags(write=False)
                self._matrix = out
        return self._matrix


def consecutive_distances(seq: SequencePrefix) -> list[float]:
    """[rho(x_2, x_1), rho(x_3, x_2), ...]; length N - 1."""
    return seq.metric.rows(seq.coords[1:], seq.coords[:-1]).tolist()


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsecutiveDecayReport:
    holds: bool
    tail_max: float
    first_good_index: Optional[int]
    window_start: int
    eps: float

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "tail_max": self.tail_max,
            "first_good_index": self.first_good_index,
            "window_start": self.window_start,
            "eps": self.eps,
        }


def check_consecutive_decay(
    seq: SequencePrefix, tail: TailConfig = TailConfig()
) -> ConsecutiveDecayReport:
    """Check that step distances stay below ``tail.eps`` over the trailing window.

    ``tail_max`` is the maximum of rho(x_{n+1}, x_n) for window indices
    n >= ceil(tau * (N - 1)); the report holds iff that maximum is at most
    ``eps``.  ``first_good_index`` is the smallest n from which the *entire*
    remaining suffix stays below ``eps`` (None if even the last step is above).
    """
    steps = consecutive_distances(seq)
    count = len(steps)
    window_start = max(1, math.ceil(tail.tau * count))
    if window_start > count:
        raise PrefixTooShort(f"window start {window_start} beyond last step index {count}")
    tail_max = max(steps[window_start - 1 :])

    first_good: Optional[int] = None
    for n in range(count, 0, -1):
        if steps[n - 1] <= tail.eps:
            first_good = n
        else:
            break

    return ConsecutiveDecayReport(
        holds=tail_max <= tail.eps,
        tail_max=tail_max,
        first_good_index=first_good,
        window_start=window_start,
        eps=tail.eps,
    )


@dataclass(frozen=True)
class ShiftContractionReport:
    holds: bool
    pairs_checked: int
    pairs_triggered: int
    violating_pair: Optional[tuple[int, int]]

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "pairs_checked": self.pairs_checked,
            "pairs_triggered": self.pairs_triggered,
            "violating_pair": (
                None if self.violating_pair is None else list(self.violating_pair)
            ),
        }


def check_shift_contraction(seq: SequencePrefix, w: ShiftWitness) -> ShiftContractionReport:
    """Scan every pair n0 < n <= m <= N - p for the shift-contraction property.

    A pair is *triggered* when eta < rho(x_n, x_m) < delta - eta; a triggered
    pair must satisfy rho(x_{n+p}, x_{m+p}) < delta * lam / s - eta.  The scan
    includes the diagonal n = m, so positive self-distances participate.  The
    report carries the lexicographically smallest violating pair, if any; a
    vacuously true condition is visible through ``pairs_triggered == 0``.
    """
    n = len(seq)
    if n < w.n0 + w.p + 2:
        raise PrefixTooShort(
            f"need N >= n0 + p + 2 = {w.n0 + w.p + 2} for at least one checkable pair, got N = {n}"
        )
    dm = seq.distance_matrix()
    high = w.delta - ETA
    bound = w.delta * w.lam / seq.metric.s - ETA

    # Row chunks of the upper triangle: 0-based rows/cols n0 .. N - p - 1 hold
    # 1-based n in (n0, N - p], and the same block shifted by p.  A chunk
    # reads only the columns at or right of its first row; the triangle's
    # edge inside it falls in its leading square, masked by ``upper``.
    t = n - w.n0 - w.p
    rows = chunk_rows(t)
    upper = np.triu(np.ones((min(rows, t),) * 2, dtype=bool))
    pairs_triggered = 0
    violating: Optional[tuple[int, int]] = None
    for i in range(0, t, rows):
        k = min(rows, t - i)
        block = dm[w.n0 + i : w.n0 + i + k, w.n0 + i : w.n0 + t]
        triggered = block > ETA
        triggered &= block < high
        triggered[:, :k] &= upper[:k, :k]
        pairs_triggered += int(np.count_nonzero(triggered))
        if violating is None:
            shifted = dm[w.n0 + w.p + i : w.n0 + w.p + i + k, w.n0 + w.p + i :]
            bad = shifted >= bound  # the matrix is finite, so this is ~(shifted < bound)
            bad &= triggered
            first = int(np.argmax(bad))  # row-major order = lexicographic in (n, m)
            if bad.flat[first]:
                r, c = divmod(first, t - i)
                violating = (w.n0 + i + r + 1, w.n0 + i + c + 1)

    return ShiftContractionReport(
        holds=violating is None,
        pairs_checked=t * (t + 1) // 2,
        pairs_triggered=pairs_triggered,
        violating_pair=violating,
    )


def tail_diameter(seq: SequencePrefix, n0: int) -> float:
    """Brute-force oracle: max rho(x_n, x_m) over n0 <= n <= m <= N.

    Self-distances are included, so a dislocated tail cannot hide.  This is
    the ground truth every certificate is compared against; it is monotone
    nonincreasing in n0.
    """
    n = len(seq)
    if not (1 <= n0 < n):
        raise PrefixTooShort(f"cutoff n0 = {n0} leaves no tail pairs in a prefix of length {n}")
    tail = seq.distance_matrix()[n0 - 1 :, n0 - 1 :]
    rows = chunk_rows(tail.shape[0])
    return max(
        float(np.max(np.triu(tail[i : i + rows, i:]))) for i in range(0, tail.shape[0], rows)
    )


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Grids for the witness search.

    ``n0_values`` of None derives the cutoff grid {1, ceil(N/8), ceil(N/4)}
    from the prefix length.
    """

    p_max: int = 8
    lambdas: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    n0_values: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.p_max < 1:
            raise ValueError("p_max must be >= 1")
        for lam in self.lambdas:
            if not (0.0 < lam < 1.0):
                raise ValueError(f"lambda grid entries must lie in (0, 1), got {lam}")


@dataclass(frozen=True)
class WitnessSearch:
    witness: Optional[ShiftWitness]
    report: Optional[ShiftContractionReport]
    p_max_used: int
    truncated: bool

    def to_dict(self) -> dict:
        return {
            "witness": None if self.witness is None else self.witness.to_dict(),
            "report": None if self.report is None else self.report.to_dict(),
            "p_max_used": self.p_max_used,
            "truncated": self.truncated,
        }


def default_n0_grid(n: int) -> tuple[int, ...]:
    return tuple(sorted({1, math.ceil(n / 8), math.ceil(n / 4)}))


def search_witness(
    seq: SequencePrefix, delta: float, cfg: SearchConfig = SearchConfig()
) -> WitnessSearch:
    """Scan (p asc, then lam asc, then n0 asc) for the first holding witness.

    The scan order is part of the contract: the returned witness is the
    lexicographically smallest over (p, lam, n0) among holding ones.  Grid
    combinations the prefix is too short for are skipped and flagged via
    ``truncated``; callers should check ``report.pairs_triggered`` to tell a
    vacuous witness from a substantive one.
    """
    n = len(seq)
    n0s = cfg.n0_values if cfg.n0_values is not None else default_n0_grid(n)

    p_cap = n - min(n0s) - 2
    p_max_used = min(cfg.p_max, max(p_cap, 0))
    truncated = p_max_used < cfg.p_max
    if p_max_used < 1:
        raise PrefixTooShort(f"prefix of length {n} is too short for any shift with n0 grid {n0s}")

    for p in range(1, p_max_used + 1):
        for lam in cfg.lambdas:
            for n0 in n0s:
                if n < n0 + p + 2:
                    truncated = True
                    continue
                w = ShiftWitness(delta=delta, p=p, lam=lam, n0=n0)
                report = check_shift_contraction(seq, w)
                if report.holds:
                    return WitnessSearch(w, report, p_max_used, truncated)
    return WitnessSearch(None, None, p_max_used, truncated)


# ---------------------------------------------------------------------------
# Named generators (CLI sequence sources)
# ---------------------------------------------------------------------------

def arithmetic_sequence(n: int, start: float = 1.0, step: float = 1.0) -> list[float]:
    """x_k = start + (k - 1) * step; the defaults give x_k = k."""
    if n < 2:
        raise ValueError("need at least 2 terms")
    return [start + (k - 1) * step for k in range(1, n + 1)]


def geometric_sequence(n: int, start: float = 1.0, ratio: float = 0.5) -> list[float]:
    """x_k = start * ratio**(k - 1)."""
    if n < 2:
        raise ValueError("need at least 2 terms")
    return [start * ratio ** (k - 1) for k in range(1, n + 1)]


def constant_sequence(n: int, value: float = 1.0) -> list[float]:
    if n < 2:
        raise ValueError("need at least 2 terms")
    return [float(value)] * n


GENERATORS: dict[str, tuple[Callable[..., list[float]], dict[str, str]]] = {
    "arithmetic": (
        arithmetic_sequence,
        {"n": "number of terms", "start": "first term (default 1.0)", "step": "increment (default 1.0)"},
    ),
    "geometric": (
        geometric_sequence,
        {"n": "number of terms", "start": "first term (default 1.0)", "ratio": "common ratio (default 0.5)"},
    ),
    "constant": (
        constant_sequence,
        {"n": "number of terms", "value": "repeated value (default 1.0)"},
    ),
}


def make_sequence(name: str, metric: DbMetric, **params) -> SequencePrefix:
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}; available: {sorted(GENERATORS)}")
    factory, _ = GENERATORS[name]
    return SequencePrefix.from_values(factory(**params), metric)


def available_generators() -> dict[str, dict[str, str]]:
    return {name: dict(params) for name, (_, params) in GENERATORS.items()}
