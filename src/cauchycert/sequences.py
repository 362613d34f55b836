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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MetricError, PrefixTooShort
from .metrics import ETA, DbMetric, JsonReport, Point, chunk_rows, matrix_buffer


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
class ShiftWitness(JsonReport):
    """Parameters instantiating the shift-contraction condition.

    ``delta`` is the distance band, ``p`` the index shift, ``lam`` the
    contraction factor (0 < lam < 1) and ``n0`` the cutoff below which pairs
    are ignored.
    """

    delta: float
    p: int
    lam: float = field(metadata={"json": "lambda"})
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


def _stack(points: Sequence) -> np.ndarray:
    """:class:`Point` objects, plain scalars / vectors or an array, one row each."""
    if not isinstance(points, np.ndarray):
        points = [p.coords if isinstance(p, Point) else p for p in points]
    coords = np.array(points, dtype=float)
    return coords.reshape(-1, 1) if coords.ndim == 1 else coords


class SequencePrefix:
    """A finite prefix x_1 .. x_N together with its metric.

    The points are stored once, as the read-only ``(N, d)`` float64 array
    ``coords``, validated at construction (finiteness, one dimension, the
    metric's dimension).  A prefix is immutable, so its distance matrix is
    built on first use and kept for every later scan.  Three per-row
    summaries of it are kept the same way, one slot each, so that the calls
    of a delta grid share one O(N^2) pass each: the shift profile of the last
    (delta, p) scanned (:func:`_shift_profile`), the suffix maxima that
    :func:`tail_diameter` answers from, and the block-induction summaries of
    the last shift p (``certificates.run_block_induction``).  Each covers the
    rows from the smallest cutoff it was built for and is rebuilt for a
    smaller one.

    A prefix grown by :meth:`extend` from a prefix with a built matrix
    inherits the matrix and the shift profile, so that each grown block costs
    O(N * block) distance evaluations and scans, not O(N^2): its matrix is
    written when it is made, as the top-left corner of a buffer with spare
    rows and columns that later prefixes grow into, and its profile scans
    only the pairs with a new index.  It starts with neither of the other
    two slots.
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
        # The writable (C, C) buffer whose corner is ``_matrix``, until a child takes it.
        self._spare: Optional[np.ndarray] = None
        self._profile: Optional[tuple] = None  # the last shift profile, see _shift_profile
        self._tail: Optional[tuple] = None  # (start, suffix), see tail_diameter
        self._induction: Optional[tuple] = None  # (p, start, summaries), see run_block_induction

    def __len__(self) -> int:
        return self.coords.shape[0]

    def point(self, n: int) -> Point:
        """1-based access to x_n."""
        if not (1 <= n <= len(self)):
            raise IndexError(f"index {n} outside 1..{len(self)}")
        return Point(self.coords[n - 1])

    def extend(self, points: Sequence) -> "SequencePrefix":
        """This prefix followed by ``points``, validated like a new prefix.

        If this prefix's distance matrix was built, the longer prefix's
        matrix is written at once, and the longer prefix keeps this one's
        shift profile (but not its oracle or induction summaries, whose rows
        all change).  Only the rows and columns of the new points are
        evaluated (a :class:`MetricError` among them is raised here), into
        the top-left corner of a ``(C, C)`` :func:`matrix_buffer`: the first
        longer prefix that fits in this matrix's buffer takes the buffer, and
        any other copies this matrix into a new one with C = ceil(5 N / 4).
        This prefix's own matrix never changes.
        """
        new = _stack(points)
        if not len(new):
            return self
        grown = SequencePrefix(np.concatenate([self.coords, new]), self.metric)
        if self._matrix is not None:
            n, size = len(self), len(grown)
            top = self.metric.cross(grown.coords[:n], grown.coords[n:])
            bottom = self.metric.cross(grown.coords[n:], grown.coords)
            buf = self._spare
            if buf is not None and buf.shape[0] >= size:
                self._spare = None
            else:
                cap = -(-5 * size // 4)
                buf = matrix_buffer(cap, cap)
                buf[:n, :n] = self._matrix
            buf[:n, n:size] = top
            buf[n:size, :size] = bottom
            grown._matrix = buf[:size, :size]
            grown._matrix.setflags(write=False)
            grown._spare = buf
            grown._profile = self._profile
        return grown

    def distance_matrix(self) -> np.ndarray:
        """Validated read-only all-pairs matrix; entry [i, j] is rho(x_{i+1}, x_{j+1}).

        Built with :meth:`DbMetric.matrix` on first use, unless :meth:`extend`
        wrote it when the prefix was made.
        """
        if self._matrix is None:
            self._matrix = self.metric.matrix(self.coords)
        return self._matrix

    def offsets(self, lo: int, width: int) -> np.ndarray:
        """The read-only ``(max(N - lo, 0), width)`` view E[u, m] = rho(x_{lo+u+1}, x_{lo+u+m+1}).

        The distance matrix is the top-left corner of a ``(C, C)``
        :func:`matrix_buffer` (C = N unless :meth:`extend` wrote it), so its
        rows are windows of the flat buffer that start on the diagonal, C + 1
        entries apart.  Where lo + u + m >= N they run on into the buffer's
        spare columns, the next row or the spare zeros after it, all finite,
        which cover widths up to 2N + 1; callers mask those.
        """
        dm = self.distance_matrix()
        step = dm.strides[0] // dm.itemsize + 1
        return np.lib.stride_tricks.as_strided(
            dm.base[lo * step :],
            shape=(max(len(self) - lo, 0), width),
            strides=(step * dm.itemsize, dm.itemsize),
            writeable=False,
        )


def consecutive_distances(seq: SequencePrefix) -> np.ndarray:
    """[rho(x_2, x_1), rho(x_3, x_2), ...]; length N - 1."""
    return seq.metric.rows(seq.coords[1:], seq.coords[:-1])


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsecutiveDecayReport(JsonReport):
    holds: bool
    tail_max: float
    first_good_index: Optional[int]
    window_start: int
    eps: float


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
    # tau <= 1 and N >= 2 keep the window start at or before the last step.
    window_start = max(1, math.ceil(tail.tau * count))
    tail_max = float(np.max(steps[window_start - 1 :]))
    above = np.flatnonzero(steps > tail.eps)
    first_good = int(above[-1]) + 2 if above.size else 1  # the step after the last one above eps

    return ConsecutiveDecayReport(
        holds=tail_max <= tail.eps,
        tail_max=tail_max,
        first_good_index=first_good if first_good <= count else None,
        window_start=window_start,
        eps=tail.eps,
    )


@dataclass(frozen=True)
class ShiftContractionReport(JsonReport):
    holds: bool
    pairs_checked: int
    pairs_triggered: int
    violating_pair: Optional[tuple[int, int]]


def check_shift_contraction(seq: SequencePrefix, w: ShiftWitness) -> ShiftContractionReport:
    """Scan every pair n0 < n <= m <= N - p for the shift-contraction property.

    A pair is *triggered* when eta < rho(x_n, x_m) < delta - eta; a triggered
    pair must satisfy rho(x_{n+p}, x_{m+p}) < delta * lam / s - eta.  The scan
    includes the diagonal n = m, so positive self-distances participate.  The
    report carries the lexicographically smallest violating pair, if any; a
    vacuously true condition is visible through ``pairs_triggered == 0``.

    The pairs are read through the prefix's shift profile for (delta, p), so
    witnesses that differ only in ``lam`` and ``n0`` share one O(N^2) pass
    and each is answered in O(N).
    """
    n = len(seq)
    if n < w.n0 + w.p + 2:
        raise PrefixTooShort(
            f"need N >= n0 + p + 2 = {w.n0 + w.p + 2} for at least one checkable pair, got N = {n}"
        )
    start, count, rowmax = _shift_profile(seq, w.delta, w.p, w.n0)
    bound = w.delta * w.lam / seq.metric.s - ETA
    tail = slice(w.n0 - start, None)  # the profile rows past this cutoff

    # "every x < bound" is "max x < bound" in floats, and the matrix is finite.
    bad = rowmax[tail] >= bound
    violating: Optional[tuple[int, int]] = None
    first = int(np.argmax(bad))
    if bad[first]:
        r = w.n0 + first  # 0-based row of the first violating pair
        dm = seq.distance_matrix()
        base = dm[r, r : n - w.p]
        hit = (base > ETA) & (base < w.delta - ETA) & (dm[r + w.p, r + w.p :] >= bound)
        violating = (r + 1, r + int(np.argmax(hit)) + 1)

    t = n - w.n0 - w.p
    return ShiftContractionReport(
        holds=violating is None,
        pairs_checked=t * (t + 1) // 2,
        pairs_triggered=int(count[tail].sum()),
        violating_pair=violating,
    )


def _shift_profile(
    seq: SequencePrefix, delta: float, p: int, n0: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """``(start, count, rowmax)`` over the 0-based rows r in [start, N - p).

    ``count[r - start]`` is the number of triggered pairs (r, j) with
    r <= j < N - p, and ``rowmax[r - start]`` the largest shifted distance
    dm[r + p, j + p] over them (-inf when there is none).  A row covers the
    same columns for every cutoff, so a profile built from ``start`` answers
    every n0 >= start.  The prefix keeps the last profile built; a call with
    another (delta, p), or with n0 < start, replaces it.

    A prefix grown by :meth:`SequencePrefix.extend` starts with the shorter
    prefix's profile, which covers the rows and columns below c = the old
    N - p.  A call that can use it scans only the pairs with j >= c: the
    new columns of the old rows, then the new rows.  Counts are integers and
    a maximum is exact, so the result equals a full rebuild.
    """
    slot = seq._profile
    if slot is None or slot[:2] != (delta, p) or slot[2] > n0:
        slot = (delta, p, n0, np.zeros(0, dtype=np.int64), np.zeros(0))  # every pair is new
    start, kept_count, kept_max = slot[2:]
    kept = len(kept_count)
    end = len(seq) - p
    if start + kept == end:
        return slot[2:]
    count, rowmax = _triggered(seq.distance_matrix(), delta, p, start, start + kept, end)
    count[:kept] += kept_count
    np.maximum(rowmax[:kept], kept_max, out=rowmax[:kept])
    count.setflags(write=False)
    rowmax.setflags(write=False)
    seq._profile = (delta, p, start, count, rowmax)
    return start, count, rowmax


def _triggered(
    dm: np.ndarray, delta: float, p: int, lo: int, left: int, end: int
) -> tuple[np.ndarray, np.ndarray]:
    """The triggered count and shifted maximum of each row r in [lo, end),
    over the pairs (r, j) with max(r, left) <= j < end."""
    t = end - lo
    mid = max(lo, left)  # the first row that starts on the diagonal
    width = end - mid  # the widest row's columns
    high = delta - ETA
    count = np.empty(t, dtype=np.int64)
    rowmax = np.full(t, -np.inf)
    # Row chunks: 0-based rows/cols r < N - p hold 1-based n <= N - p, and
    # the same block shifted by p.  A chunk reads the columns from its first
    # row or from ``left``, whichever is later; its rows from ``left`` on
    # meet the triangle's edge inside the chunk, in a square masked by ``upper``.
    # The rows before ``left`` read one rectangle in chunks of ``chunk_rows``;
    # the rows from it on take at most 64 rows a chunk, so that the square's
    # masked-off half stays a small part of the entries a chunk reads.
    rows = chunk_rows(width)
    square = min(rows, 64)
    starts = [*range(lo, mid, rows), *range(mid, end, square)]
    ar = np.arange(min(square, width))
    upper = ar[:, None] <= ar
    # Summing the mask's bytes into the narrowest type that holds a row's
    # count is several times faster than ``np.count_nonzero(..., axis=1)``.
    counter = np.min_scalar_type(width)
    for r, stop in zip(starts, [*starts[1:], end]):
        k = stop - r
        i = r - lo
        c = max(r, left)
        block = dm[r : r + k, c:end]
        triggered = block > ETA
        triggered &= block < high
        d = min(c - r, k)  # the chunk's rows before ``left``; the rest start on the diagonal
        triggered[d:, : k - d] &= upper[: k - d, : k - d]
        count[i : i + k] = np.add.reduce(triggered.view(np.uint8), axis=1, dtype=counter)
        live = np.flatnonzero(count[i : i + k])
        if not len(live):
            continue  # every row keeps -inf
        # The maximum over the live span, where rows without a triggered pair
        # reduce to -inf.  A masked reduction (``where=``) pays once per run
        # of true entries, a blend with -inf and a plain reduction once per
        # entry.  With at most one run a row (two edges), as a converging
        # orbit gives, the masked reduction reads less; a period-2 mask has
        # runs of one entry, and the blend is several times faster there.
        a, b = live[0], live[-1] + 1
        mask = triggered[a:b]
        shifted = dm[r + p + a : r + p + b, c + p : end + p]
        out = rowmax[i + a : i + b]
        edges = np.count_nonzero(mask[:, 1:] != mask[:, :-1])
        if edges <= 2 * (b - a):  # flip-equivalent: both branches give the same maxima
            np.maximum.reduce(shifted, axis=1, where=mask, initial=-np.inf, out=out)
        else:
            np.maximum.reduce(np.where(mask, shifted, -np.inf), axis=1, out=out)
    return count, rowmax


def tail_diameter(seq: SequencePrefix, n0: int) -> float:
    """Brute-force oracle: max rho(x_n, x_m) over n0 <= n <= m <= N.

    Self-distances are included, so a dislocated tail cannot hide.  This is
    the ground truth every certificate is compared against; it is monotone
    nonincreasing in n0.

    One chunked pass over the triangle from row n0 - 1 takes each row's
    maximum, and their suffix maxima answer every larger cutoff with one
    lookup.  The prefix keeps them as ``(start, suffix)``: suffix[r] is the
    largest dm[i, j] over start - 1 + r <= i <= j < N.  A cutoff below
    ``start`` rebuilds them from its own row.
    """
    n = len(seq)
    if not (1 <= n0 < n):
        raise PrefixTooShort(f"cutoff n0 = {n0} leaves no tail pairs in a prefix of length {n}")
    if seq._tail is None or seq._tail[0] > n0:
        tail = seq.distance_matrix()[n0 - 1 :, n0 - 1 :]
        t = tail.shape[0]
        rowmax = np.empty(t)
        rows = chunk_rows(t)
        for i in range(0, t, rows):
            k = min(rows, t - i)
            # Only a chunk's leading square meets the diagonal: the columns
            # past it are read in place, with no masked copy.
            np.max(np.triu(tail[i : i + k, i : i + k]), axis=1, out=rowmax[i : i + k])
            right = np.max(tail[i : i + k, i + k :], axis=1, initial=-np.inf)
            np.maximum(rowmax[i : i + k], right, out=rowmax[i : i + k])
        suffix = np.maximum.accumulate(rowmax[::-1])[::-1]
        suffix.setflags(write=False)
        seq._tail = (n0, suffix)
    start, suffix = seq._tail
    return float(suffix[n0 - start])


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Grids for the witness search.

    ``n0_values`` of None derives the cutoff grid {1, ceil(N/8), ceil(N/4)}
    from the prefix length.  The grids may be given in any order and with
    repeats; they are stored sorted ascending without duplicates, the order
    :func:`search_witness` scans them in.
    """

    p_max: int = 8
    lambdas: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    n0_values: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.p_max < 1:
            raise ValueError("p_max must be >= 1")
        if not self.lambdas or (self.n0_values is not None and not self.n0_values):
            raise ValueError("the lambda and n0 grids must not be empty")
        if self.n0_values is not None and min(self.n0_values) < 1:
            raise ValueError(f"n0 grid entries must be >= 1, got {min(self.n0_values)}")
        for lam in self.lambdas:
            if not (0.0 < lam < 1.0):
                raise ValueError(f"lambda grid entries must lie in (0, 1), got {lam}")
        object.__setattr__(self, "lambdas", tuple(sorted(set(self.lambdas))))
        if self.n0_values is not None:
            object.__setattr__(self, "n0_values", tuple(sorted(set(self.n0_values))))


@dataclass(frozen=True)
class WitnessSearch(JsonReport):
    witness: Optional[ShiftWitness]
    report: Optional[ShiftContractionReport]
    p_max_used: int
    truncated: bool


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
    return [start + (k - 1) * step for k in range(1, n + 1)]


def geometric_sequence(n: int, start: float = 1.0, ratio: float = 0.5) -> list[float]:
    """x_k = start * ratio**(k - 1)."""
    try:
        return [start * ratio ** (k - 1) for k in range(1, n + 1)]
    except OverflowError:
        raise ValueError(f"ratio {ratio} to the power {n - 1} overflows") from None


def constant_sequence(n: int, value: float = 1.0) -> list[float]:
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
    return SequencePrefix(factory(**params), metric)


def available_generators() -> dict[str, dict[str, str]]:
    return {name: dict(params) for name, (_, params) in GENERATORS.items()}
