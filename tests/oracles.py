"""Reference versions of library code, kept as test oracles.

``pair_distance`` is the scalar pair accessor ``SequencePrefix.distance`` that
the prefix no longer has: one ``DbMetric.distance`` call on two ``Point``s,
computed apart from the distance matrix.  ``loop_consecutive_decay`` is the
consecutive-decay check over a list of steps, with its suffix walked in a
Python loop.  ``chain_bound`` and ``self_distance_bound`` evaluate one
telescoped bound at a time through ``pair_distance``; ``_chain_stage`` must
agree with them.  ``meshgrid_matrix`` is the all-pairs build that ``DbMetric.matrix``
replaced: every pair gathered into two flat ``(N*N, d)`` stacks and passed
through ``DbMetric.rows``; ``oneshot_cross`` is the build that the row-chunked
``DbMetric.cross`` replaced: the distance function over all of
``a[:, None]`` and ``b[None, :]`` at once, then the whole result validated and
clamped.  ``oneshot_shift_contraction`` is the shift scan before row chunks,
with whole-triangle masks, ``chunked_shift_contraction`` the row-chunked scan
that the shift profile replaced (one full pass per witness), and
``argwhere_shift_contraction`` lists every violating pair with ``np.argwhere``
and keeps the first; ``rebuilt_shift_profile`` is the shift profile built
over every pair, as ``_shift_profile`` built it before a grown prefix kept the
shorter prefix's profile; ``masked_triggered`` is the profile's row kernel
with row chunks bounded by their element count alone and every row maximum
a masked (``where=``) reduction, which chunks of at most 64 rows from the
diagonal on, each choosing that reduction or a blend with -inf by its mask's
edges, replaced; ``copied_extension_matrix`` is the grown matrix as
``distance_matrix`` built it before it kept spare capacity: the shorter
prefix's matrix copied into a new buffer of exactly N x N;
``loop_search_witness`` is the witness search over
``chunked_shift_contraction``, and
``blockwise_solve_fixed_point`` grows the orbit point by point and reads the
last step through the scalar ``pair_distance``.
``chunked_block_induction`` is block induction as one chunked pass over the
blocks of its own ``n_low``, which stops at the first chunk with a failing
block, and ``triu_tail_diameter`` the oracle as one pass over the ``np.triu``
row chunks of its own cutoff; the per-row summaries that a prefix keeps for
every ``n_low`` and every cutoff replaced them.
``loop_block_induction`` checks the blocks of one n per Python iteration, and
``triu_pair_scan`` gathers every tail pair through ``np.triu_indices``; both
replay the same float expressions as the row-offset scans in
``certificates``.  ``class_loop_block_induction`` and ``class_loop_pair_scan``
are the induction and the pair scan with one Python iteration per residue
class mod p, and ``slab_pair_scan`` is the class-batched pair scan over
(i, r, v) slabs and (r, v) base-index tables; the row-offset views replaced
these.  ``padded_pair_scan`` is the row-offset pair scan that re-checked every
component of every pair, from any ``n_low``, reading the offset parts through
a view of a padded copy of E[:, :p]; the scan that checks only what settling
and block induction leave unchecked replaced it.  ``matmul_chain_stage`` is the chain stage with one
sliding-window matmul per offset, which the running sums replaced.  The ``loop_*`` axiom and contraction checks walk lists of
``Point`` pairs and triples one ``DbMetric.distance`` call at a time, over
samples built by ``loop_sample_pairs`` / ``loop_sample_triples``, and
``loop_axiom_report`` assembles the axiom report from them; the vectorised
checks in ``metrics`` and ``contractions`` must agree with them exactly.
``appended_certify_cauchy`` assembles the certification outcome the way
``certify_cauchy`` did before every stage raised ``CertificateFailure``: it
translates each stage's own failure signal by hand (a report with
``holds=False``, a ``None`` settling index from ``scan_settling_index``, a
raised failure) and appends each stage's verdict to a list as it goes; its
pair scan is ``triu_pair_scan``, its induction ``chunked_block_induction`` and
its oracle ``triu_tail_diameter``, so it is independent of ``_pair_scan``,
``run_block_induction`` and ``tail_diameter``.
``row_offsets`` is the offset view that ``SequencePrefix.offsets`` replaced:
it finds the matrix's buffer from ``dm.base`` and the strides, checks the
layout on every call, and slices a sliding-window view of the whole buffer,
where ``offsets`` makes one strided view of the rows it returns.
``text_mode_read_csv_points`` is the CSV reader that ``config.read_csv_points`` replaced: it iterates a file opened in text mode as
``utf-8-sig``, so a decode error escapes without its line, and it passes
non-finite values on to the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np

from cauchycert import (
    ETA,
    AxiomReport,
    CauchyCertificate,
    CertificateFailure,
    ConsecutiveDecayReport,
    ContractionError,
    DbMetric,
    DivergenceError,
    InductionTrace,
    MetricError,
    Point,
    PrefixTooShort,
    SearchConfig,
    SequencePrefix,
    ShiftContractionReport,
    ShiftWitness,
    SolverConfig,
    SolverError,
    SolveResult,
    TailConfig,
    WitnessSearch,
    certify_cauchy,
    check_consecutive_decay,
    check_shift_contraction,
    derive_shift,
    diameter_bound,
    estimate_contraction_constant,
)
from cauchycert.certificates import _chain_stage, _first_true, _induction_failure
from cauchycert.contractions import Contraction, ContractionEstimate
from cauchycert.errors import ConfigError
from cauchycert.metrics import (
    PairCheck, SamplerConfig, TriangleEstimate, _rng_points, chunk_rows, matrix_buffer,
)
from cauchycert.sequences import consecutive_distances, default_n0_grid


def pair_distance(seq: SequencePrefix, n: int, m: int) -> float:
    """rho(x_n, x_m) for 1-based n and m, evaluated on its own."""
    return seq.metric.distance(seq.point(n), seq.point(m))


def text_mode_read_csv_points(path: str, header: bool = False) -> list[list[float]]:
    """One point per row, comma-separated coordinates; malformed rows are
    hard errors reported with their line number.

    Blank lines are skipped; with ``header``, so is the first nonblank line.
    The file is UTF-8, and one leading byte-order mark is dropped.
    """
    rows: list[list[float]] = []
    width: Optional[int] = None
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read csv {path!r}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if header:
                header = False
                continue
            cells = [c.strip() for c in line.split(",")]
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: malformed row {line!r}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ConfigError(
                    f"{path}:{lineno}: expected {width} coordinates, got {len(row)}"
                )
            rows.append(row)
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least 2 points, got {len(rows)}")
    return rows


def row_offsets(dm: np.ndarray, lo: int, width: int) -> np.ndarray:
    """The read-only ``(max(N - lo, 0), width)`` view E[u, m] = dm[lo + u, lo + u + m].

    ``dm`` is the top-left ``(N, N)`` corner of a square ``(C, C)``
    :func:`matrix_buffer`, C >= N (C = N for a fresh build).  Its rows are
    windows of the flat buffer that start on the diagonal, C + 1 entries
    apart.  Where lo + u + m >= N they run on into the buffer's spare columns,
    the next row or the spare zeros after it, all finite, which cover widths
    up to 2N + 1; callers mask those.
    """
    n = dm.shape[0]
    flat = dm.base
    cap = dm.strides[0] // dm.itemsize
    if (
        flat is None
        or flat.ndim != 1
        or dm.shape != (n, n)
        or dm.strides[1] != dm.itemsize
        or cap < n
        or flat.size != cap * (cap + 2)
        or dm.ctypes.data != flat.ctypes.data
    ):
        raise ValueError("row_offsets needs the top-left corner of a square matrix built by matrix_buffer")
    windows = np.lib.stride_tricks.sliding_window_view(flat, width)
    return windows[lo * (cap + 1) : n * (cap + 1) : cap + 1]


def loop_consecutive_decay(
    seq: SequencePrefix, tail: TailConfig = TailConfig()
) -> ConsecutiveDecayReport:
    """``check_consecutive_decay`` over a list of steps, with the all-good
    suffix found by walking back from the last step."""
    steps = consecutive_distances(seq).tolist()
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
class ChainBound:
    """A telescoped bound rho(x_{n+q}, x_n) <= sum of weighted step distances.

    ``terms[j - 1]`` is s**min(j, q - 1) * rho(x_{n+j-1}, x_{n+j}); the last
    two steps share the coefficient s**(q - 1) because the final triangle
    application splits one leg into two.
    """

    n: int
    q: int
    terms: tuple[float, ...]
    total: float
    direct: float


def chain_bound(seq: SequencePrefix, n: int, q: int) -> ChainBound:
    """Telescoped relaxed-triangle bound for the offset-q distance at n.

    Requires q >= 2 (offsets 0 and 1 have dedicated bounds) and n + q <= N.
    The bound is verified against the directly evaluated distance; a violation
    means the declared s is too small for this data and raises MetricError.
    """
    if q < 2:
        raise ValueError(f"chain bound needs q >= 2, got {q}")
    if not (1 <= n and n + q <= len(seq)):
        raise IndexError(f"chain {n}..{n + q} outside prefix of length {len(seq)}")
    s = seq.metric.s
    terms = tuple(
        s ** min(j, q - 1) * pair_distance(seq, n + j - 1, n + j) for j in range(1, q + 1)
    )
    total = float(sum(terms))
    direct = pair_distance(seq, n, n + q)
    if direct > total + ETA:
        raise MetricError(
            f"chain bound violated at n={n}, q={q}: direct {direct} > telescoped {total}; "
            f"the declared s={s} does not hold on this data"
        )
    return ChainBound(n=n, q=q, terms=terms, total=total, direct=direct)


def self_distance_bound(seq: SequencePrefix, n: int) -> float:
    """The doubled step bound rho(x_n, x_n) <= 2 s rho(x_{n+1}, x_n).

    Follows from symmetry plus one relaxed triangle through x_{n+1}, so it
    holds in every dislocated b-metric; it is verified directly and a
    violation raises MetricError.
    """
    if not (1 <= n < len(seq)):
        raise IndexError(f"need n + 1 <= N, got n={n}, N={len(seq)}")
    s = seq.metric.s
    bound = 2.0 * s * pair_distance(seq, n + 1, n)
    direct = pair_distance(seq, n, n)
    if direct > bound + ETA:
        raise MetricError(
            f"self-distance bound violated at n={n}: rho(x_n, x_n) = {direct} > {bound}; "
            f"the declared s={s} does not hold on this data"
        )
    return bound


def meshgrid_matrix(metric: DbMetric, coords: np.ndarray) -> np.ndarray:
    """All-pairs distance matrix through index grids and ``DbMetric.rows``."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    n = coords.shape[0]
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    flat = metric.rows(coords[ii.ravel()], coords[jj.ravel()])
    return flat.reshape(n, n)


def oneshot_cross(metric: DbMetric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``DbMetric.cross`` evaluated and validated as one ``(len(a), len(b))`` block."""
    a = np.atleast_2d(np.asarray(a, dtype=float))[:, None]
    b = np.atleast_2d(np.asarray(b, dtype=float))[None, :]
    for d in (a.shape[-1], b.shape[-1]):
        if metric.dim is not None and d != metric.dim:
            raise MetricError(
                f"metric {metric.name!r} expects dimension {metric.dim}, got point of dimension {d}"
            )
    if a.shape[-1] != b.shape[-1]:
        raise MetricError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(metric.rows_fn(a, b), dtype=float)
    if not np.all(np.isfinite(out)):
        value = float(out[~np.isfinite(out)][0])
        raise MetricError(f"metric {metric.name!r} produced a non-finite distance {value}")
    if np.any(out < -ETA):
        value = float(out[out < -ETA][0])
        raise MetricError(f"metric {metric.name!r} produced a negative distance {value}")
    return np.clip(out, 0.0, None)


def oneshot_shift_contraction(seq: SequencePrefix, w: ShiftWitness) -> ShiftContractionReport:
    """``check_shift_contraction`` with T x T masks over the whole scanned block."""
    n = len(seq)
    if n < w.n0 + w.p + 2:
        raise PrefixTooShort(
            f"need N >= n0 + p + 2 = {w.n0 + w.p + 2} for at least one checkable pair, got N = {n}"
        )
    dm = seq.distance_matrix()
    sub = dm[w.n0 : n - w.p, w.n0 : n - w.p]
    shifted = dm[w.n0 + w.p :, w.n0 + w.p :]
    triggered = np.triu((sub > ETA) & (sub < w.delta - ETA))
    bad = triggered & ~(shifted < w.delta * w.lam / seq.metric.s - ETA)
    t = sub.shape[0]
    violating: Optional[tuple[int, int]] = None
    first = int(np.argmax(bad))
    if bad.flat[first]:
        i, j = divmod(first, t)
        violating = (w.n0 + i + 1, w.n0 + j + 1)
    return ShiftContractionReport(
        holds=violating is None,
        pairs_checked=t * (t + 1) // 2,
        pairs_triggered=int(np.count_nonzero(triggered)),
        violating_pair=violating,
    )


def chunked_shift_contraction(seq: SequencePrefix, w: ShiftWitness) -> ShiftContractionReport:
    """``check_shift_contraction`` as one row-chunked pass per call, which
    stops comparing shifted distances after the first violating chunk."""
    n = len(seq)
    if n < w.n0 + w.p + 2:
        raise PrefixTooShort(
            f"need N >= n0 + p + 2 = {w.n0 + w.p + 2} for at least one checkable pair, got N = {n}"
        )
    dm = seq.distance_matrix()
    high = w.delta - ETA
    bound = w.delta * w.lam / seq.metric.s - ETA
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


def rebuilt_shift_profile(
    seq: SequencePrefix, delta: float, p: int, n0: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """``(n0, count, rowmax)`` of ``_shift_profile``, every pair scanned anew
    and nothing kept on the prefix."""
    dm = seq.distance_matrix()
    t = len(seq) - n0 - p
    high = delta - ETA
    count = np.empty(t, dtype=np.int64)
    rowmax = np.empty(t)
    rows = chunk_rows(t)
    upper = np.triu(np.ones((min(rows, t),) * 2, dtype=bool))
    counter = np.min_scalar_type(t)
    for i in range(0, t, rows):
        k = min(rows, t - i)
        block = dm[n0 + i : n0 + i + k, n0 + i : n0 + t]
        triggered = block > ETA
        triggered &= block < high
        triggered[:, :k] &= upper[:k, :k]
        count[i : i + k] = np.add.reduce(triggered.view(np.uint8), axis=1, dtype=counter)
        shifted = dm[n0 + p + i : n0 + p + i + k, n0 + p + i :]
        np.max(shifted, axis=1, where=triggered, initial=-np.inf, out=rowmax[i : i + k])
    return n0, count, rowmax


def masked_triggered(
    dm: np.ndarray, delta: float, p: int, lo: int, left: int, end: int
) -> tuple[np.ndarray, np.ndarray]:
    """``sequences._triggered`` with each row chunk as wide as ``chunk_rows``
    allows and the shifted maximum as one masked reduction (``where=``)."""
    t = end - lo
    width = end - max(lo, left)
    high = delta - ETA
    count = np.empty(t, dtype=np.int64)
    rowmax = np.empty(t)
    rows = chunk_rows(width)
    upper = np.triu(np.ones((min(rows, width),) * 2, dtype=bool))
    counter = np.min_scalar_type(width)
    for i in range(0, t, rows):
        k = min(rows, t - i)
        r = lo + i
        c = max(r, left)
        block = dm[r : r + k, c:end]
        triggered = block > ETA
        triggered &= block < high
        d = min(c - r, k)
        triggered[d:, : k - d] &= upper[: k - d, : k - d]
        count[i : i + k] = np.add.reduce(triggered.view(np.uint8), axis=1, dtype=counter)
        shifted = dm[r + p : r + p + k, c + p : end + p]
        np.max(shifted, axis=1, where=triggered, initial=-np.inf, out=rowmax[i : i + k])
    return count, rowmax


def copied_extension_matrix(base: np.ndarray, seq: SequencePrefix) -> np.ndarray:
    """The matrix of ``seq``, whose leading prefix has the matrix ``base``:
    ``base`` copied into a new N x N buffer, the new rows and columns evaluated."""
    n = base.shape[0]
    out = matrix_buffer(len(seq), len(seq))
    out[:n, :n] = base
    out[:n, n:] = seq.metric.cross(seq.coords[:n], seq.coords[n:])
    out[n:] = seq.metric.cross(seq.coords[n:], seq.coords)
    out.setflags(write=False)
    return out


def loop_search_witness(
    seq: SequencePrefix, delta: float, cfg: SearchConfig = SearchConfig()
) -> WitnessSearch:
    """``search_witness`` with every candidate scanned by
    :func:`chunked_shift_contraction`."""
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
                report = chunked_shift_contraction(seq, w)
                if report.holds:
                    return WitnessSearch(w, report, p_max_used, truncated)
    return WitnessSearch(None, None, p_max_used, truncated)


def argwhere_shift_contraction(seq: SequencePrefix, w: ShiftWitness) -> ShiftContractionReport:
    """``check_shift_contraction`` with an explicit upper mask and ``np.argwhere``."""
    n = len(seq)
    if n < w.n0 + w.p + 2:
        raise PrefixTooShort(
            f"need N >= n0 + p + 2 = {w.n0 + w.p + 2} for at least one checkable pair, got N = {n}"
        )
    dm = seq.distance_matrix()
    s = seq.metric.s
    sub = dm[w.n0 : n - w.p, w.n0 : n - w.p]
    shifted = dm[w.n0 + w.p :, w.n0 + w.p :]
    upper = np.triu(np.ones(sub.shape, dtype=bool))

    triggered = upper & (sub > ETA) & (sub < w.delta - ETA)
    bad = triggered & ~(shifted < w.delta * w.lam / s - ETA)

    t = sub.shape[0]
    violating: Optional[tuple[int, int]] = None
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        violating = (w.n0 + int(i) + 1, w.n0 + int(j) + 1)
    return ShiftContractionReport(
        holds=violating is None,
        pairs_checked=t * (t + 1) // 2,
        pairs_triggered=int(np.count_nonzero(triggered)),
        violating_pair=violating,
    )


def blockwise_solve_fixed_point(
    f: Contraction,
    metric: DbMetric,
    x0: Point,
    target_delta: float,
    cfg: SolverConfig = SolverConfig(),
) -> SolveResult:
    """``solve_fixed_point`` with its own orbit loop, 32 verification pairs
    in x0's dimension (which the map and the metric must work in),
    certification at the default tail, and the stopping step evaluated once
    more through the scalar ``pair_distance``."""
    if target_delta <= 0.0:
        raise ValueError(f"target delta must be positive, got {target_delta}")
    rng = np.random.default_rng(cfg.seed)
    a = rng.uniform(f.sample_low, f.sample_high, size=(32, x0.dim))
    b = rng.uniform(f.sample_low, f.sample_high, size=(32, x0.dim))
    estimate = estimate_contraction_constant(f, metric, (a, b))
    if estimate.violation:
        raise ContractionError(
            f"sampled contraction ratio {estimate.ratio} exceeds declared c = {f.c} "
            f"at pair {estimate.worst_pair}"
        )

    p = derive_shift(f.c, cfg.lam, metric.s)
    witness = ShiftWitness(delta=target_delta, p=p, lam=cfg.lam, n0=cfg.n0)
    min_len = max(cfg.n0 + p + 2, 4)

    pts: list[Point] = []
    cur = x0
    ratio_seen = estimate.ratio
    while len(pts) < cfg.max_iterations:
        for _ in range(min(cfg.block, cfg.max_iterations - len(pts))):
            cur = f.apply(cur)
            pts.append(cur)
        if len(pts) < min_len:
            continue
        seq = SequencePrefix(pts, metric)

        steps = metric.rows(seq.coords[1:], seq.coords[:-1])
        nz = steps[:-1] > ETA
        if np.any(nz):
            ratios = steps[1:][nz] / steps[:-1][nz]
            ratio_seen = max(ratio_seen, float(np.max(ratios)))
            if ratio_seen > f.c + ETA:
                raise ContractionError(
                    f"contraction hypothesis violated mid-run: step ratio {ratio_seen} "
                    f"exceeds declared c = {f.c}"
                )

        outcome = certify_cauchy(seq, witness)
        last_step = pair_distance(seq, len(pts) - 1, len(pts))
        if outcome.certified and last_step <= cfg.tail.eps:
            x_star = pts[-1]
            fx = f.apply(x_star)
            residual = metric.distance(x_star, fx)
            self_dist = metric.distance(fx, fx)
            return SolveResult(
                fixed_point=x_star,
                iterations=len(pts),
                certificate=outcome.certificate,
                residual=residual,
                residual_bound=metric.s * (residual + self_dist),
                contraction_ratio=ratio_seen,
            )
    raise SolverError(
        f"no certificate at delta = {target_delta} within {cfg.max_iterations} iterations"
    )


def loop_block_induction(seq: SequencePrefix, w: ShiftWitness, settling: int) -> InductionTrace:
    """``run_block_induction`` with one Python iteration per n.

    Scans n in (max(settling, n0), N] and k >= 1 with n + k p <= N.  The
    direct bound failing is a :class:`CertificateFailure` carrying the first
    offending (n, k).  Each passing step is then re-justified along the proof
    route chosen by the previous block distance: a zero previous block repeats
    the settled offset bound, a positive one combines a shift-contraction pair
    with the settled offset bound (the two contributions sum to exactly
    delta * lam + delta * (1 - lam) = delta).  A step whose direct bound holds
    but whose justification does not raises :class:`DivergenceError`.
    """
    n_len = len(seq)
    dm = seq.distance_matrix()
    s = seq.metric.s
    n_low = max(settling, w.n0)
    delta, lam, p = w.delta, w.lam, w.p

    depth = 0
    zero_steps = 0
    band_steps = 0

    for n in range(n_low + 1, n_len + 1):
        k_max = (n_len - n) // p
        if k_max < 1:
            continue

        # All blocks at this n at once; rows are k = 1 .. k_max.
        ks = np.arange(1, k_max + 1)
        value = dm[n - 1, n + ks * p - 1]
        prev = dm[n - 1, n + (ks - 1) * p - 1]
        step = dm[n + (ks - 1) * p - 1, n + ks * p - 1]
        zero_mask = prev <= ETA
        shifted_block = s * dm[n + p - 1, n + ks * p - 1]
        settled_offset = s * float(dm[n - 1, n + p - 1])

        bad_value = ~(value < delta - ETA)
        bad_zero = zero_mask & ~(s * step < delta * (1.0 - lam))
        bad_band = ~zero_mask & ~(
            (shifted_block < delta * lam) & (settled_offset < delta * (1.0 - lam))
        )
        bad = bad_value | bad_zero | bad_band
        if np.any(bad):
            i = int(np.argmax(bad))  # smallest offending k
            k = int(ks[i])
            if bad_value[i]:
                raise CertificateFailure(
                    "block_induction",
                    f"rho(x_{n + k * p}, x_{n}) = {float(value[i])} not below delta = {delta}",
                    where=(n, k),
                )
            if bad_zero[i]:
                raise DivergenceError(
                    f"zero-branch justification failed at (n={n}, k={k}): "
                    f"s * {float(step[i])} not below {delta * (1.0 - lam)}"
                )
            raise DivergenceError(
                f"band-branch justification failed at (n={n}, k={k}): "
                f"{float(shifted_block[i])} / {settled_offset} vs "
                f"{delta * lam} / {delta * (1.0 - lam)}"
            )

        depth = max(depth, k_max)
        n_zero = int(np.count_nonzero(zero_mask))
        zero_steps += n_zero
        band_steps += k_max - n_zero

    return InductionTrace(depth=depth, zero_branch_steps=zero_steps, band_branch_steps=band_steps)


def triu_pair_scan(seq: SequencePrefix, w: ShiftWitness, n_low: int) -> None:
    """``_pair_scan`` over ``np.triu_indices`` of the whole tail.

    For each pair n_low < n <= m <= N, with k = (m - n) // p and
    q = (m - n) mod p, the components A = rho(x_{n + k p}, x_m) and
    B = rho(x_n, x_{n + k p}) must satisfy A < delta (1 - lam) / s - eta and
    B < delta - eta, the relaxed triangle through the base point must hold,
    and the assembled bound s A + s B must stay below the certified diameter
    delta (1 - lam) + s delta.  Component failures are certification
    failures, as is a diameter that overflows a float; an assembled-bound
    failure with passing components is a bug.
    """
    n_len = len(seq)
    dm = seq.distance_matrix()
    s = seq.metric.s
    delta, lam, p = w.delta, w.lam, w.p
    theta = delta * (1.0 - lam) / s
    fb = delta * (1.0 - lam) + s * delta
    if not math.isfinite(fb):
        raise CertificateFailure(
            "pair_scan", f"the diameter bound at delta = {delta}, s = {s} overflows a float"
        )

    idx = np.arange(n_low + 1, n_len + 1)
    iu = np.triu_indices(idx.size)
    n_arr = idx[iu[0]]
    m_arr = idx[iu[1]]
    diff = m_arr - n_arr
    k_arr = diff // p
    base = n_arr + k_arr * p

    a = dm[base - 1, m_arr - 1]
    b = dm[n_arr - 1, base - 1]
    direct = dm[n_arr - 1, m_arr - 1]

    comp_ok = (a < theta - ETA) & (b < delta - ETA)
    triangle_ok = direct <= s * (a + b) + ETA
    assembled = s * a + s * b
    assembled_ok = (assembled < fb) & (direct < fb - ETA)

    bad_comp = ~(comp_ok & triangle_ok)
    if np.any(bad_comp):
        i = int(np.argmax(bad_comp))  # pairs are in lexicographic (n, m) order
        raise CertificateFailure(
            "pair_scan",
            f"pair (n={int(n_arr[i])}, m={int(m_arr[i])}): offset part {float(a[i])}, "
            f"block part {float(b[i])}, direct {float(direct[i])} "
            f"(need offset < {theta}, block < {delta}, triangle at s={s})",
            where=(int(n_arr[i]), int(m_arr[i])),
        )
    bad_assembled = ~assembled_ok
    if np.any(bad_assembled):
        i = int(np.argmax(bad_assembled))
        raise DivergenceError(
            f"pair (n={int(n_arr[i])}, m={int(m_arr[i])}) passed component checks but "
            f"assembled bound {float(assembled[i])} / direct {float(direct[i])} "
            f"escaped the certified diameter {fb}"
        )


def matmul_chain_stage(seq: SequencePrefix, w: ShiftWitness, n_low: int) -> tuple[tuple[int, float], ...]:
    """``_chain_stage`` with one sliding-window matmul per offset q.

    Not bit-equal to the scalar ``chain_bound`` on arbitrary floats: the
    matmul may sum in another order.

    For q >= 2 the bound on rho(x_n, x_{n+q}) is the sum over j = 1 .. q of
    s**min(j, q - 1) * rho(x_{n+j-1}, x_{n+j}); the last two steps share the
    top coefficient because the final triangle application splits one leg in
    two.  Offset 1 is bounded by the step itself and offset 0 by the doubled
    step 2 s rho(x_n, x_{n+1}), which holds in every dislocated b-metric.
    Each bound is cross-checked against the direct distance; a violation
    means the declared s does not hold on this data and raises
    :class:`CertificateFailure` at the first offending (n, q).
    """
    n_len = len(seq)
    dm = seq.distance_matrix()
    s = seq.metric.s
    steps = np.diagonal(dm, offset=1)  # steps[i] = rho(x_{i+1}, x_{i+2}), 0-based
    out: list[tuple[int, float]] = []

    for q in range(w.p + 1):
        lo = n_low + 1  # first 1-based n in range
        hi = (n_len - 1 if q == 0 else n_len - q)  # last n with the bound evaluable
        if hi < lo:
            continue
        r = np.arange(lo - 1, hi)  # 0-based rows
        if q == 0:
            bounds = 2.0 * s * steps[r]
            direct = np.diagonal(dm)[r]
        elif q == 1:
            bounds = steps[r]
            direct = steps[r]
        else:
            coeffs = np.array([s ** min(j, q - 1) for j in range(1, q + 1)])
            windows = np.lib.stride_tricks.sliding_window_view(steps, q)
            bounds = windows[r] @ coeffs
            direct = dm[r, r + q]
        gap = direct - bounds
        if np.any(gap > ETA):
            i = int(np.argmax(gap > ETA))
            n = int(r[i]) + 1
            raise CertificateFailure(
                "chain_bounds",
                f"chain bound violated at n={n}, q={q}: "
                f"direct {float(direct[i])} > telescoped {float(bounds[i])}",
                where=(n, q),
            )
        out.append((q, float(np.max(bounds))))
    return tuple(out)


def _first_true_2d(mask: np.ndarray) -> Optional[tuple[int, int]]:
    """(row, column) of the first true entry of a 2-d mask in row-major order."""
    flat = int(np.argmax(mask))
    return divmod(flat, mask.shape[1]) if mask.flat[flat] else None


def class_loop_pair_scan(seq: SequencePrefix, w: ShiftWitness, n_low: int) -> None:
    """``_pair_scan`` with one Python iteration per residue class r.

    For each pair n_low < n <= m <= N, with k = (m - n) // p and
    q = (m - n) mod p, the components A = rho(x_{n + k p}, x_m) and
    B = rho(x_n, x_{n + k p}) must satisfy A < delta (1 - lam) / s - eta and
    B < delta - eta, the relaxed triangle through the base point must hold,
    and the assembled bound s A + s B must stay below the certified diameter
    delta (1 - lam) + s delta.  Component failures are certification
    failures; an assembled-bound failure with passing components is a bug.

    On D = dm[n_low:, n_low:] with local indices u = n - n_low - 1 and
    v = m - n_low - 1, the base point n + k p of a row u in residue class
    r = u mod p is the last index of that class at or before v,
    r + (v - r) // p * p, which depends on v alone.  So per class A is one
    vector over v, B a column gather of the rows D[r::p], and the direct
    distances the view D[r::p, r:]; the rows are scanned in chunks.
    """
    dm = seq.distance_matrix()
    s = seq.metric.s
    delta, lam, p = w.delta, w.lam, w.p
    theta = delta * (1.0 - lam) / s
    fb = diameter_bound(w, s)

    d = dm[n_low:, n_low:]
    t = d.shape[0]
    first_comp: Optional[tuple[int, int]] = None  # smallest offending (u, v)
    first_assembled: Optional[tuple[int, int]] = None
    for r in range(min(p, t)):
        cols = np.arange(t - r)  # column c is v = r + c
        base = r + cols // p * p
        offset_part = d[base, r + cols]
        rows = d[r::p]  # row i is u = r + i p
        chunk = chunk_rows(t - r)
        for i0 in range(0, rows.shape[0], chunk):
            if first_comp is not None and r + i0 * p > first_comp[0]:
                break
            i1 = min(i0 + chunk, rows.shape[0])
            c0 = i0 * p  # earlier columns pair with no row of the chunk
            a = offset_part[c0:]
            b = rows[i0:i1][:, base[c0:]]
            direct = rows[i0:i1, r + c0 :]
            in_tail = cols[c0:] >= (np.arange(i0, i1) * p)[:, None]  # v >= u

            comp_ok = (a < theta - ETA) & (b < delta - ETA)
            triangle_ok = direct <= s * (a + b) + ETA
            assembled = s * a + s * b
            assembled_ok = (assembled < fb) & (direct < fb - ETA)

            hit = _first_true_2d(in_tail & ~(comp_ok & triangle_ok))
            if hit is not None:
                pair = (r + (i0 + hit[0]) * p, r + c0 + hit[1])
                first_comp = min(first_comp or pair, pair)
                break
            hit = _first_true_2d(in_tail & ~assembled_ok)
            if hit is not None:
                pair = (r + (i0 + hit[0]) * p, r + c0 + hit[1])
                first_assembled = min(first_assembled or pair, pair)

    first = first_comp or first_assembled
    if first is None:
        return
    n, m = n_low + 1 + first[0], n_low + 1 + first[1]
    base = n + (m - n) // p * p
    a, b, direct = float(dm[base - 1, m - 1]), float(dm[n - 1, base - 1]), float(dm[n - 1, m - 1])
    if first_comp is not None:
        raise CertificateFailure(
            "pair_scan",
            f"pair (n={n}, m={m}): offset part {a}, "
            f"block part {b}, direct {direct} "
            f"(need offset < {theta}, block < {delta}, triangle at s={s})",
            where=(n, m),
        )
    raise DivergenceError(
        f"pair (n={n}, m={m}) passed component checks but "
        f"assembled bound {s * a + s * b} / direct {direct} "
        f"escaped the certified diameter {fb}"
    )


def chunked_block_induction(seq: SequencePrefix, w: ShiftWitness, settling: int) -> InductionTrace:
    """``run_block_induction`` as one chunked pass over the blocks of its own n_low.

    With u = n - n_low - 1 and E = ``seq.offsets(n_low, width)``, block k of
    row u is V[u, k] on V = E[:, ::p], its previous block V[u, k - 1] and its
    shifted block V[u + p, k - 1]; its step E[u + (k - 1) p, p] and its
    settled offset E[u, p] are offsets p, judged once per row.  Rows are
    scanned in chunks, and the first chunk with a failing block raises.
    """
    dm = seq.distance_matrix()
    s = seq.metric.s
    n_low = max(settling, w.n0)
    delta, lam, p = w.delta, w.lam, w.p

    t = max(len(seq) - n_low, 0)
    depth = max((t - 1) // p, 0)
    if depth == 0:
        return InductionTrace(0, 0, 0)
    e = seq.offsets(n_low, depth * p + 1)
    blocks = e[:, ::p]
    offset_bad = np.zeros(t + depth * p, dtype=bool)  # rows past t are never in range
    offset_bad[:t] = s * e[:, p] >= delta * (1.0 - lam)
    step_bad = np.lib.stride_tricks.sliding_window_view(offset_bad, depth * p)[:, ::p]
    zero_steps = 0
    all_steps = p * depth * (depth - 1) // 2 + depth * (t - depth * p)  # sum of (t - 1 - u) // p
    rows = chunk_rows(depth)
    for u0 in range(0, t - p, rows):
        u1 = min(u0 + rows, t - p)
        k0, k1 = (t - u1) // p, (t - 1 - u0) // p  # every row reaches block k0, the first k1
        zero = blocks[u0:u1, :k1] <= ETA
        band_bad = (s * blocks[u0 + p : u1 + p, :k1] >= delta * lam) | offset_bad[u0:u1, None]
        bad = np.where(zero, step_bad[u0:u1, :k1], band_bad)
        bad |= blocks[u0:u1, 1 : k1 + 1] >= delta - ETA
        in_range = np.arange(u0, u1)[:, None] + np.arange(k0 + 1, k1 + 1) * p < t
        bad[:, k0:] &= in_range
        zero[:, k0:] &= in_range
        hit = _first_true(bad)
        if hit is not None:
            raise _induction_failure(dm, s, w, n_low + 1 + u0 + hit[0], hit[1] + 1)
        zero_steps += int(np.count_nonzero(zero))
    return InductionTrace(depth, zero_steps, all_steps - zero_steps)


def triu_tail_diameter(seq: SequencePrefix, n0: int) -> float:
    """``tail_diameter`` as one pass over the triangle of its own cutoff:
    the largest ``np.triu`` entry of each row chunk of the tail."""
    n = len(seq)
    if not (1 <= n0 < n):
        raise PrefixTooShort(f"cutoff n0 = {n0} leaves no tail pairs in a prefix of length {n}")
    tail = seq.distance_matrix()[n0 - 1 :, n0 - 1 :]
    rows = chunk_rows(tail.shape[0])
    return max(
        float(np.max(np.triu(tail[i : i + rows, i:]))) for i in range(0, tail.shape[0], rows)
    )


def class_loop_block_induction(seq: SequencePrefix, w: ShiftWitness, settling: int) -> InductionTrace:
    """``run_block_induction`` with one Python iteration per residue class.

    Verifies rho(x_{n + k p}, x_n) < delta - eta for all blocks in range.

    Scans n in (max(settling, n0), N] and k >= 1 with n + k p <= N.  The
    direct bound failing is a :class:`CertificateFailure` carrying the first
    offending (n, k).  Each passing step is then re-justified along the proof
    route chosen by the previous block distance: a zero previous block repeats
    the settled offset bound, a positive one combines a shift-contraction pair
    with the settled offset bound (the two contributions sum to exactly
    delta * lam + delta * (1 - lam) = delta).  A step whose direct bound holds
    but whose justification does not raises :class:`DivergenceError`.

    The blocks of n stay in its residue class mod p: with the local index
    u = n - n_low - 1 = r + i p and L = D[r::p, r::p] on D = dm[n_low:, n_low:],
    the block k is L[i, j] for j = i + k, its previous block L[i, j - 1], its
    step L[j - 1, j], its shifted block L[i + 1, j] and the settled offset
    L[i, i + 1].  Each class is scanned in row chunks of bounded size.
    """
    dm = seq.distance_matrix()
    s = seq.metric.s
    n_low = max(settling, w.n0)
    delta, lam, p = w.delta, w.lam, w.p

    d = dm[n_low:, n_low:]
    t = d.shape[0]
    first: Optional[tuple[int, int]] = None  # smallest offending (u, k)
    zero_steps = 0
    all_steps = 0
    largest = -(-t // p)  # the rows of class 0; every class takes chunks of this many
    rows = chunk_rows(largest)
    # Column c of a chunk from row i0 is j = i0 + 1 + c: j > i is its upper
    # triangle, whose edge falls in the chunk's leading square.
    upper = np.triu(np.ones((min(rows, largest),) * 2, dtype=bool))
    for r in range(min(p, t)):
        blocks = d[r::p, r::p]
        m = blocks.shape[0]
        all_steps += m * (m - 1) // 2
        # Offset i is L[i, i + 1]: the settled offset of row i and the step of column i + 1.
        offset = np.diagonal(blocks, 1)
        offset_ok = s * offset < delta * (1.0 - lam)
        for i0 in range(0, m - 1, rows):
            if first is not None and r + i0 * p > first[0]:
                break
            i1 = min(i0 + rows, m - 1)
            value = blocks[i0:i1, i0 + 1 :]
            zero = blocks[i0:i1, i0:-1] <= ETA
            shifted_block = s * blocks[i0 + 1 : i1 + 1, i0 + 1 :]
            bad_value = ~(value < delta - ETA)
            bad_zero = zero & ~offset_ok[i0:]
            bad_band = ~zero & ~((shifted_block < delta * lam) & offset_ok[i0:i1, None])
            bad = bad_value | bad_zero | bad_band
            bad[:, : i1 - i0] &= upper[: i1 - i0, : i1 - i0]
            hit = _first_true(bad)
            if hit is not None:
                block = (r + (i0 + hit[0]) * p, hit[1] + 1 - hit[0])
                first = min(first or block, block)
                break
            zero[:, : i1 - i0] &= upper[: i1 - i0, : i1 - i0]
            zero_steps += int(np.count_nonzero(zero))

    if first is not None:
        raise _induction_failure(dm, s, w, n_low + 1 + first[0], first[1])
    return InductionTrace(
        depth=max((t - 1) // p, 0),
        zero_branch_steps=zero_steps,
        band_branch_steps=all_steps - zero_steps,
    )


def slab_pair_scan(seq: SequencePrefix, w: ShiftWitness, n_low: int) -> None:
    """``_pair_scan`` over (i, r, v) slabs with (r, v) base-index tables.

    Bounds every tail pair via the m = n + k p + q decomposition.

    For each pair n_low < n <= m <= N, with k = (m - n) // p and
    q = (m - n) mod p, the components A = rho(x_{n + k p}, x_m) and
    B = rho(x_n, x_{n + k p}) must satisfy A < delta (1 - lam) / s - eta and
    B < delta - eta, the relaxed triangle through the base point must hold,
    and the assembled bound s A + s B must stay below the certified diameter
    delta (1 - lam) + s delta.  Component failures are certification
    failures; an assembled-bound failure with passing components is a bug.

    On D = dm[n_low:, n_low:] with local indices u = i p + r = n - n_low - 1
    and v = m - n_low - 1, the base point is r + (v - r) // p * p, so the
    base index and A are (r, v) tables, and the rows are (i, r, v) slabs:
    the f full blocks of p rows as D[: f p].reshape(f, p, t), a view, and the
    rest.  Chunks of whole blocks, or of classes of one block, are read in
    (u, v) order.
    """
    dm = seq.distance_matrix()
    s = seq.metric.s
    delta, lam, p = w.delta, w.lam, w.p
    theta = delta * (1.0 - lam) / s
    fb = diameter_bound(w, s)

    d = dm[n_low:, n_low:]
    t = d.shape[0]
    full = t // p
    classes = np.arange(min(p, t))[:, None]
    cols = np.arange(t)
    base = classes + np.maximum(cols - classes, 0) // p * p  # columns v < r pair with no row
    offset_part = d[base, cols]
    # About eight arrays of a chunk's size are live at once, so a chunk holds
    # an eighth of the usual elements: it stays in cache and keeps the heap small.
    size = chunk_rows(8 * t)
    di, dr = max(1, size // p), min(size, p)
    slabs = ((0, d[: full * p].reshape(full, p, t)), (full, d[full * p :][None]))
    chunks = (
        (i_low + i0, r0, slab[i0 : i0 + di, r0 : r0 + dr])
        for i_low, slab in slabs
        for i0 in range(0, len(slab), di)
        for r0 in range(0, slab.shape[1], dr)
    )
    first_comp: Optional[tuple[int, int]] = None  # smallest offending (u, v)
    first_assembled: Optional[tuple[int, int]] = None
    for i0, r0, rows in chunks:
        r1 = r0 + rows.shape[1]
        u = np.arange(i0, i0 + len(rows))[:, None] * p + np.arange(r0, r1)
        c0 = i0 * p + r0  # earlier columns pair with no row of the chunk
        a = offset_part[r0:r1, c0:]
        b = rows[:, classes[: r1 - r0], base[r0:r1, c0:]]
        direct = rows[:, :, c0:]
        in_tail = cols[c0:] >= u[:, :, None]  # v >= u

        comp_ok = (a < theta - ETA) & (b < delta - ETA)
        triangle_ok = direct <= s * (a + b) + ETA
        hit = _first_true(in_tail & ~(comp_ok & triangle_ok))
        if hit is not None:
            first_comp = (int(u[hit[:2]]), c0 + hit[2])
            break
        if first_assembled is None:
            assembled = s * a + s * b
            assembled_ok = (assembled < fb) & (direct < fb - ETA)
            hit = _first_true(in_tail & ~assembled_ok)
            if hit is not None:
                first_assembled = (int(u[hit[:2]]), c0 + hit[2])

    first = first_comp or first_assembled
    if first is None:
        return
    n, m = n_low + 1 + first[0], n_low + 1 + first[1]
    base = n + (m - n) // p * p
    a, b, direct = float(dm[base - 1, m - 1]), float(dm[n - 1, base - 1]), float(dm[n - 1, m - 1])
    if first_comp is not None:
        raise CertificateFailure(
            "pair_scan",
            f"pair (n={n}, m={m}): offset part {a}, "
            f"block part {b}, direct {direct} "
            f"(need offset < {theta}, block < {delta}, triangle at s={s})",
            where=(n, m),
        )
    raise DivergenceError(
        f"pair (n={n}, m={m}) passed component checks but "
        f"assembled bound {s * a + s * b} / direct {direct} "
        f"escaped the certified diameter {fb}"
    )


def padded_pair_scan(seq: SequencePrefix, w: ShiftWitness, n_low: int) -> None:
    """``_pair_scan`` re-checking every component of every pair, on a padded copy.

    Bounds every tail pair via the m = n + k p + q decomposition, for any
    ``n_low``: it assumes nothing of the earlier stages.

    For each pair n_low < n <= m <= N, with k = (m - n) // p and
    q = (m - n) mod p, the components A = rho(x_{n + k p}, x_m) and
    B = rho(x_n, x_{n + k p}) must satisfy A < delta (1 - lam) / s - eta and
    B < delta - eta, the relaxed triangle through the base point must hold,
    and the assembled bound s A + s B must stay below the certified diameter
    delta (1 - lam) + s delta.  Component failures are certification
    failures, as is a diameter that overflows a float; an assembled-bound
    failure with passing components is a bug.

    With u = n - n_low - 1 and E of :func:`row_offsets`, the direct distances
    of row u are E[u, :K p] as a (k, q) array, B is its q = 0 column, and
    A[u, k, q] = E[u + k p, q] is a strided view per chunk of a copy of
    E[:, :p], zero-padded by one chunk of rows.  Chunks of rows are scanned
    in (u, k, q) order, which is (n, m) order.
    """
    dm = seq.distance_matrix()
    s = seq.metric.s
    delta, lam, p = w.delta, w.lam, w.p
    theta = delta * (1.0 - lam) / s
    fb = diameter_bound(w, s)
    if not math.isfinite(fb):
        raise CertificateFailure(
            "pair_scan", f"the diameter bound at delta = {delta}, s = {s} overflows a float"
        )

    t = max(len(seq) - n_low, 0)
    width = min(p, t)  # offsets q that some pair reaches
    n_blocks = max(-(-t // p), 1)
    e = row_offsets(dm, n_low, n_blocks * width)
    # About eight arrays of a chunk's size are live at once, so a chunk holds
    # an eighth of the usual elements: it stays in cache and keeps the heap small.
    rows = chunk_rows(8 * n_blocks * width)
    # heads[x, q] = E[x, q].  A chunk reads its rows x = u + k p below
    # t + rows - 1, and the zero rows past t are never in range.
    heads = np.zeros((t + rows, width))
    heads[:t] = e[:, :width]
    step, col = heads.strides
    flat_cols, rows_left = np.arange(n_blocks * width), t - np.arange(t)
    first_comp: Optional[tuple[int, int]] = None  # smallest offending (u, v)
    first_assembled: Optional[tuple[int, int]] = None
    for u0 in range(0, t, rows):
        u1 = min(u0 + rows, t)
        k1 = (t - 1 - u0) // p + 1  # the blocks that row u0 reaches
        direct = e[u0:u1, : k1 * width].reshape(u1 - u0, k1, width)
        # a[u, k, q] = E[u0 + u + k p, q]; numpy refuses a view past the end of heads.
        a = np.ndarray((u1 - u0, k1, width), buffer=heads, offset=u0 * step,
                       strides=(step, p * step, col))
        b = direct[:, :, :1]
        # Flat column g = k width + q of a row is m - n; from g0 on, some rows leave the tail.
        g0 = t - u1 + 1
        tail = flat_cols[g0 : k1 * width] < rows_left[u0:u1, None]

        comp_ok = (a < theta - ETA) & (b < delta - ETA)
        bad = ~(comp_ok & (direct <= s * (a + b) + ETA)).reshape(u1 - u0, -1)
        bad[:, g0:] &= tail
        hit = _first_true(bad)
        if hit is not None:
            first_comp = (u0 + hit[0], u0 + hit[0] + hit[1])
            break
        if first_assembled is None:
            bad = ~((s * a + s * b < fb) & (direct < fb - ETA)).reshape(u1 - u0, -1)
            bad[:, g0:] &= tail
            hit = _first_true(bad)
            if hit is not None:
                first_assembled = (u0 + hit[0], u0 + hit[0] + hit[1])

    first = first_comp or first_assembled
    if first is None:
        return
    n, m = n_low + 1 + first[0], n_low + 1 + first[1]
    base = n + (m - n) // p * p
    a, b, direct = float(dm[base - 1, m - 1]), float(dm[n - 1, base - 1]), float(dm[n - 1, m - 1])
    if first_comp is not None:
        raise CertificateFailure(
            "pair_scan",
            f"pair (n={n}, m={m}): offset part {a}, "
            f"block part {b}, direct {direct} "
            f"(need offset < {theta}, block < {delta}, triangle at s={s})",
            where=(n, m),
        )
    raise DivergenceError(
        f"pair (n={n}, m={m}) passed component checks but "
        f"assembled bound {s * a + s * b} / direct {direct} "
        f"escaped the certified diameter {fb}"
    )


def loop_sample_pairs(cfg: SamplerConfig, dim: int) -> list[tuple[Point, Point]]:
    """Sampled pairs: 1-d grid pairs (when dim == 1), uniform draws, identical pairs."""
    rng = np.random.default_rng(cfg.seed)
    pairs: list[tuple[Point, Point]] = []
    if dim == 1:
        grid = np.linspace(cfg.box_low, cfg.box_high, cfg.grid_points)
        for a in grid:
            for b in grid:
                pairs.append((Point(a), Point(b)))
    a = _rng_points(rng, cfg, dim, cfg.pair_count)
    b = _rng_points(rng, cfg, dim, cfg.pair_count)
    pairs.extend((Point(a[i]), Point(b[i])) for i in range(cfg.pair_count))
    c = _rng_points(rng, cfg, dim, max(cfg.pair_count // 8, 4))
    pairs.extend((Point(row), Point(row)) for row in c)
    return pairs


def loop_sample_triples(cfg: SamplerConfig, dim: int) -> list[tuple[Point, Point, Point]]:
    """Sampled triples: 1-d grid and grid-midpoint triples (when dim == 1),
    uniform draws and their midpoint triples."""
    rng = np.random.default_rng(cfg.seed + 1)
    triples: list[tuple[Point, Point, Point]] = []
    if dim == 1:
        grid = np.linspace(cfg.box_low, cfg.box_high, cfg.grid_points)
        for a in grid:
            for b in grid:
                for c in grid:
                    triples.append((Point(a), Point(b), Point(c)))
        for a in grid:
            for b in grid:
                triples.append((Point(a), Point((a + b) / 2.0), Point(b)))
    x = _rng_points(rng, cfg, dim, cfg.triple_count)
    y = _rng_points(rng, cfg, dim, cfg.triple_count)
    z = _rng_points(rng, cfg, dim, cfg.triple_count)
    triples.extend((Point(x[i]), Point(y[i]), Point(z[i])) for i in range(cfg.triple_count))
    mids = (x + z) / 2.0
    triples.extend((Point(x[i]), Point(mids[i]), Point(z[i])) for i in range(cfg.triple_count))
    return triples


def loop_check_symmetry(metric: DbMetric, pairs: list[tuple[Point, Point]]) -> PairCheck:
    if not pairs:
        raise ValueError("a nonempty pair sample is required")
    for x, y in pairs:
        if abs(metric.distance(x, y) - metric.distance(y, x)) > ETA:
            return PairCheck(False, (x, y))
    return PairCheck(True, None)


def loop_check_zero_identity(metric: DbMetric, pairs: list[tuple[Point, Point]]) -> PairCheck:
    if not pairs:
        raise ValueError("a nonempty pair sample is required")
    for x, y in pairs:
        if metric.distance(x, y) <= ETA and not np.max(np.abs(x.coords - y.coords)) <= ETA:
            return PairCheck(False, (x, y))
    return PairCheck(True, None)


def loop_check_self_distance_zero(metric: DbMetric, points: list[Point]) -> PairCheck:
    if not points:
        raise ValueError("a nonempty point sample is required")
    for x in points:
        if metric.distance(x, x) > ETA:
            return PairCheck(False, (x, x))
    return PairCheck(True, None)


def loop_estimate_minimal_s(
    metric: DbMetric, triples: list[tuple[Point, Point, Point]]
) -> TriangleEstimate:
    if not triples:
        raise ValueError("a nonempty triple sample is required")
    best = 0.0
    worst: Optional[tuple[Point, Point, Point]] = None
    for x, y, z in triples:
        legs = metric.distance(x, y) + metric.distance(y, z)
        direct = metric.distance(x, z)
        if legs <= ETA:
            if direct > ETA:
                return TriangleEstimate(math.inf, (x, y, z))
            continue
        ratio = direct / legs
        if ratio > best:
            best = ratio
            worst = (x, y, z)
    return TriangleEstimate(best, worst)


def loop_estimate_contraction_constant(
    f: Contraction, metric: DbMetric, pairs: list[tuple[Point, Point]]
) -> ContractionEstimate:
    best = 0.0
    worst: Optional[tuple[Point, Point]] = None
    used = 0
    for x, y in pairs:
        base = metric.distance(x, y)
        if base <= ETA:
            continue
        used += 1
        ratio = metric.distance(f.apply(x), f.apply(y)) / base
        if ratio > best:
            best = ratio
            worst = (x, y)
    if used == 0:
        raise ContractionError("all sampled pairs are degenerate (zero base distance)")
    return ContractionEstimate(best, best > f.c + ETA, worst)


def loop_axiom_report(metric: DbMetric, cfg: SamplerConfig = SamplerConfig()) -> AxiomReport:
    """``run_axiom_report`` over the loop samples and the loop checks."""
    dim = metric.dim if metric.dim is not None else 1
    pairs = loop_sample_pairs(cfg, dim)
    triples = loop_sample_triples(cfg, dim)
    symmetry = loop_check_symmetry(metric, pairs)
    zero_identity = loop_check_zero_identity(metric, pairs)
    estimate = loop_estimate_minimal_s(metric, triples)
    triangle_ok = estimate.min_s <= metric.s + ETA
    converse: Optional[bool] = None
    if metric.zero_self_distance:
        points = [x for x, _ in pairs[: max(len(pairs) // 4, 8)]]
        converse = loop_check_self_distance_zero(metric, points).ok
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
        samples_used=len(pairs) + len(triples),
        seed=cfg.seed,
    )


@dataclass(frozen=True)
class AppendedOutcome:
    """The outcome of ``appended_certify_cauchy``: ``CertifyOutcome`` with the
    stage verdicts stored as assembled instead of derived."""

    certified: bool
    certificate: Optional[CauchyCertificate]
    failure_stage: Optional[str]
    failure_detail: Optional[str]
    stages: tuple[tuple[str, bool], ...]
    decay: ConsecutiveDecayReport
    shift: Optional[ShiftContractionReport]
    induction: Optional[InductionTrace] = None

    def to_dict(self) -> dict:
        return {
            "certified": self.certified,
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
            "failure": (
                None
                if self.failure_stage is None
                else {"stage": self.failure_stage, "detail": self.failure_detail}
            ),
            "stages": [{"stage": name, "passed": ok} for name, ok in self.stages],
            "consecutive_decay": self.decay.to_dict(),
            "shift_contraction": None if self.shift is None else self.shift.to_dict(),
        }


def scan_settling_index(seq: SequencePrefix, w: ShiftWitness) -> Optional[int]:
    """``find_settling_index`` returning None when no cutoff leaves a nonempty range."""
    n = len(seq)
    hi = n - w.p  # last checkable index
    if hi < w.n0 + 1:
        raise PrefixTooShort(
            f"need N >= n0 + p + 1 = {w.n0 + w.p + 1} for a nonempty settling scan, got N = {n}"
        )
    dm = seq.distance_matrix()
    threshold = w.delta * (1.0 - w.lam) / seq.metric.s - ETA

    # Entry i of each diagonal is the 0-based row n0 + i, i.e. n = n0 + i + 1.
    worst = np.zeros(hi - w.n0)
    for q in range(w.p + 1):
        np.maximum(worst, np.diagonal(dm, q)[w.n0 : hi], out=worst)
    ok = worst < threshold

    if not ok[-1]:
        return None
    bad = np.flatnonzero(~ok)
    last_bad = w.n0 + int(bad[-1]) + 1 if bad.size else 0
    m0 = max(w.n0, last_bad)
    if m0 > hi - 1:
        return None
    return m0


def appended_certify_cauchy(
    seq: SequencePrefix, w: ShiftWitness, tail: TailConfig = TailConfig()
) -> AppendedOutcome:
    """``certify_cauchy`` with one hand translation per stage failure and the
    stage list appended stage by stage."""
    decay = check_consecutive_decay(seq, tail)
    stages: list[tuple[str, bool]] = [("consecutive_decay", True)]

    def outcome_failure(stage: str, detail: str, shift=None, induction=None) -> AppendedOutcome:
        stages.append((stage, False))
        return AppendedOutcome(
            certified=False,
            certificate=None,
            failure_stage=stage,
            failure_detail=detail,
            stages=tuple(stages),
            decay=decay,
            shift=shift,
            induction=induction,
        )

    shift = check_shift_contraction(seq, w)
    if not shift.holds:
        return outcome_failure(
            "shift_contraction",
            f"violating pair {shift.violating_pair}",
            shift=shift,
        )
    stages.append(("shift_contraction", True))

    settling = scan_settling_index(seq, w)
    if settling is None:
        return outcome_failure(
            "settling_index",
            f"no cutoff reaches offset bound {w.delta * (1.0 - w.lam) / seq.metric.s} "
            f"with a nonempty range: step distances do not decay at scale delta = {w.delta}",
            shift=shift,
        )
    stages.append(("settling_index", True))
    n_low = max(settling, w.n0)

    try:
        chains = _chain_stage(seq, w, n_low)
    except CertificateFailure as exc:
        return outcome_failure("chain_bounds", str(exc), shift=shift)
    stages.append(("chain_bounds", True))

    try:
        induction = chunked_block_induction(seq, w, settling)
    except CertificateFailure as exc:
        return outcome_failure(exc.stage, str(exc), shift=shift)
    stages.append(("block_induction", True))

    try:
        triu_pair_scan(seq, w, n_low)
    except CertificateFailure as exc:
        return outcome_failure(exc.stage, str(exc), shift=shift, induction=induction)
    stages.append(("pair_scan", True))

    fb = diameter_bound(w, seq.metric.s)
    oracle = triu_tail_diameter(seq, n_low + 1)
    if not (oracle < fb):
        raise DivergenceError(
            f"certificate issued but oracle tail diameter {oracle} >= bound {fb}"
        )

    certificate = CauchyCertificate(
        witness=w,
        s=seq.metric.s,
        length=len(seq),
        settling_index=settling,
        range_start=n_low,
        diameter_bound=fb,
        induction_depth=induction.depth,
        zero_branch_steps=induction.zero_branch_steps,
        band_branch_steps=induction.band_branch_steps,
        chain_bounds=chains,
        oracle_tail_diameter=oracle,
    )
    return AppendedOutcome(
        certified=True,
        certificate=certificate,
        failure_stage=None,
        failure_detail=None,
        stages=tuple(stages),
        decay=decay,
        shift=shift,
        induction=induction,
    )
