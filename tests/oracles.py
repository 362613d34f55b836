"""Reference versions of library code, kept as test oracles.

``chain_bound`` and ``self_distance_bound`` evaluate one telescoped bound at
a time through ``SequencePrefix.distance``; ``_chain_stage`` must agree with
them.  ``meshgrid_matrix`` is the all-pairs build that ``DbMetric.matrix``
replaced: every pair gathered into two flat ``(N*N, d)`` stacks and passed
through ``DbMetric.rows``; ``oneshot_cross`` is the build that the row-chunked
``DbMetric.cross`` replaced: the distance function over all of
``a[:, None]`` and ``b[None, :]`` at once, then the whole result validated and
clamped.  ``oneshot_shift_contraction`` is the shift scan before row chunks,
with whole-triangle masks, and ``argwhere_shift_contraction`` lists every
violating pair with ``np.argwhere`` and keeps the first, and
``blockwise_solve_fixed_point`` grows the orbit point by point and reads the
last step through the scalar ``SequencePrefix.distance``.
``loop_block_induction`` checks the blocks of one n per Python iteration, and
``triu_pair_scan`` gathers every tail pair through ``np.triu_indices``; both
replay the same float expressions as the residue-class scans in
``certificates``.  The ``loop_*`` axiom and contraction checks walk lists of
``Point`` pairs and triples one ``DbMetric.distance`` call at a time, over
samples built by ``loop_sample_pairs`` / ``loop_sample_triples``, and
``loop_axiom_report`` assembles the axiom report from them; the vectorised
checks in ``metrics`` and ``contractions`` must agree with them exactly.
``appended_certify_cauchy`` assembles the certification outcome the way
``certify_cauchy`` did before every stage raised ``CertificateFailure``: it
translates each stage's own failure signal by hand (a report with
``holds=False``, a ``None`` settling index from ``scan_settling_index``, a
raised failure) and appends each stage's verdict to a list as it goes.
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
    SequencePrefix,
    ShiftContractionReport,
    ShiftWitness,
    SolverConfig,
    SolverError,
    SolveResult,
    TailConfig,
    TriangleViolation,
    certify_cauchy,
    check_consecutive_decay,
    check_shift_contraction,
    derive_shift,
    diameter_bound,
    estimate_contraction_constant,
    run_block_induction,
    tail_diameter,
)
from cauchycert.certificates import _chain_stage, _pair_scan
from cauchycert.contractions import Contraction, ContractionEstimate
from cauchycert.metrics import PairCheck, SamplerConfig, TriangleEstimate, _rng_points


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
        s ** min(j, q - 1) * seq.distance(n + j - 1, n + j) for j in range(1, q + 1)
    )
    total = float(sum(terms))
    direct = seq.distance(n, n + q)
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
    bound = 2.0 * s * seq.distance(n + 1, n)
    direct = seq.distance(n, n)
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
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        if metric.rows_fn is not None:
            out = np.asarray(metric.rows_fn(a, b), dtype=float)
        else:
            a, b = np.broadcast_arrays(a, b)
            flat = zip(a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1]))
            out = np.array([metric.fn(x, y) for x, y in flat], dtype=float).reshape(shape)
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
    """``solve_fixed_point`` with its own orbit loop, 32 verification pairs,
    certification at the default tail, and the stopping step evaluated once
    more through the scalar ``SequencePrefix.distance``."""
    if target_delta <= 0.0:
        raise ValueError(f"target delta must be positive, got {target_delta}")
    rng = np.random.default_rng(cfg.seed)
    dim = metric.dim if metric.dim is not None else (f.dim or 1)
    a = rng.uniform(f.sample_low, f.sample_high, size=(32, dim))
    b = rng.uniform(f.sample_low, f.sample_high, size=(32, dim))
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
        last_step = seq.distance(len(pts) - 1, len(pts))
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

    split = delta * lam + delta * (1.0 - lam)
    if abs(split - delta) > ETA:
        raise DivergenceError(f"band split {split} deviates from delta {delta}")

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
    failures; an assembled-bound failure with passing components is a bug.
    """
    n_len = len(seq)
    dm = seq.distance_matrix()
    s = seq.metric.s
    delta, lam, p = w.delta, w.lam, w.p
    theta = delta * (1.0 - lam) / s
    fb = delta * (1.0 - lam) + s * delta

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
                raise TriangleViolation(
                    f"rho(x, z) = {direct} with both legs zero: no s can hold",
                    triple=(x, y, z),
                )
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
    violating: Optional[tuple[Point, Point, Point]] = None
    try:
        estimate = loop_estimate_minimal_s(metric, triples)
        min_s = estimate.min_s
        triangle_ok = min_s <= metric.s + ETA
        if not triangle_ok:
            violating = estimate.worst
    except TriangleViolation as exc:
        min_s = math.inf
        triangle_ok = False
        violating = exc.triple
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
        estimated_min_s=min_s,
        symmetry_counterexample=symmetry.counterexample,
        zero_identity_counterexample=zero_identity.counterexample,
        violating_triple=violating,
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
        induction = run_block_induction(seq, w, settling)
    except CertificateFailure as exc:
        return outcome_failure(exc.stage, str(exc), shift=shift)
    stages.append(("block_induction", True))

    try:
        _pair_scan(seq, w, n_low)
    except CertificateFailure as exc:
        return outcome_failure(exc.stage, str(exc), shift=shift, induction=induction)
    stages.append(("pair_scan", True))

    fb = diameter_bound(w, seq.metric.s)
    oracle = tail_diameter(seq, n_low + 1)
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
