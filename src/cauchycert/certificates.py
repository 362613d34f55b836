"""Numeric replay of the finite-prefix Cauchy argument.

Given a prefix and a holding shift witness (delta, p, lam, n0), certification
replays the whole argument that turns the witness into a tail diameter bound:

1. *settling index* -- locate the smallest cutoff beyond which every distance
   at index offset 0..p stays below delta * (1 - lam) / s;
2. *chain bounds* -- validate the telescoped relaxed-triangle chains that the
   settling scan implicitly relies on, including the doubled bound for
   self-distances;
3. *block induction* -- verify rho(x_{n + k p}, x_n) < delta for every block
   count k, recording for each step whether it is justified by a (numerically)
   zero previous block or by a triggered shift-contraction pair;
4. *pair scan* -- decompose every tail pair as m = n + k p + q, q < p, and
   bound it by s * (offset part + block part) < delta * (1 - lam) + s * delta.

Every stage is validated twice: by replaying the proof inequality and by
direct distance evaluation.  A disagreement between the two raises
:class:`DivergenceError`, which is a bug by definition, never a negative
result.  The issued certificate stores the brute-force tail diameter next to
its bound, so the final comparison is against ground truth, not against the
machinery being certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CertificateFailure, DivergenceError, PrefixTooShort
from .metrics import ETA, JsonReport, chunk_rows, row_offsets
from .sequences import (
    ConsecutiveDecayReport,
    SequencePrefix,
    ShiftContractionReport,
    ShiftWitness,
    TailConfig,
    check_consecutive_decay,
    check_shift_contraction,
    tail_diameter,
)


def diameter_bound(w: ShiftWitness, s: float) -> float:
    """The certified tail diameter bound delta * (1 - lam) + s * delta.

    Monotone increasing in delta, lam and s; shrinking delta drives the
    certified diameter to zero, which is exactly why a certificate per grid
    delta witnesses the Cauchy property.
    """
    return w.delta * (1.0 - w.lam) + s * w.delta


def delta_grid(delta0: float = 0.5, levels: int = 7) -> list[float]:
    """The default halving grid delta0 * 2**-j, j = 0 .. levels - 1."""
    if delta0 <= 0.0 or levels < 1:
        raise ValueError("need delta0 > 0 and at least one level")
    if delta0 * 2.0 ** (1 - levels) == 0.0:
        raise ValueError(f"delta grid underflows: {delta0} * 2**-{levels - 1} is zero")
    return [delta0 * 2.0 ** (-j) for j in range(levels)]


# ---------------------------------------------------------------------------
# Stage 1: settling index
# ---------------------------------------------------------------------------

def find_settling_index(seq: SequencePrefix, w: ShiftWitness) -> int:
    """Smallest m0 >= n0 beyond which all short-offset distances are small.

    Specifically: every n with m0 < n <= N - p and every offset q in {0..p}
    must satisfy rho(x_{n+q}, x_n) < delta * (1 - lam) / s - eta.  When no
    cutoff leaves a nonempty verified range -- the quantitative way a prefix
    with non-decaying steps fails at scale delta -- raises
    :class:`CertificateFailure`.
    """
    n = len(seq)
    hi = n - w.p  # last checkable index
    if hi < w.n0 + 1:
        raise PrefixTooShort(
            f"need N >= n0 + p + 1 = {w.n0 + w.p + 1} for a nonempty settling scan, got N = {n}"
        )
    dm = seq.distance_matrix()
    threshold = w.delta * (1.0 - w.lam) / seq.metric.s - ETA

    # Row i holds the offsets 0..p of n = n0 + i + 1.
    worst = np.max(row_offsets(dm, w.n0, w.p + 1)[: hi - w.n0], axis=1)
    bad = np.flatnonzero(~(worst < threshold))
    m0 = w.n0 + int(bad[-1]) + 1 if bad.size else w.n0  # the last bad n, or n0
    if m0 > hi - 1:
        raise CertificateFailure(
            "settling_index",
            f"no cutoff reaches offset bound {w.delta * (1.0 - w.lam) / seq.metric.s} "
            f"with a nonempty range: step distances do not decay at scale delta = {w.delta}",
        )
    return m0


# ---------------------------------------------------------------------------
# Stage 3: block induction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InductionTrace:
    """Summary of the verified block induction.

    ``depth`` is the largest verified block count k; branch counters say how
    often a step was justified by a numerically zero previous block ("zero")
    versus a triggered shift-contraction pair ("band").
    """

    depth: int
    zero_branch_steps: int
    band_branch_steps: int


def _first_true(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """The index of the first true entry of a mask in row-major order."""
    flat = int(np.argmax(mask))
    return tuple(map(int, np.unravel_index(flat, mask.shape))) if mask.flat[flat] else None


def run_block_induction(seq: SequencePrefix, w: ShiftWitness, settling: int) -> InductionTrace:
    """Verify rho(x_{n + k p}, x_n) < delta - eta for all blocks in range.

    Scans n in (max(settling, n0), N] and k >= 1 with n + k p <= N.  The
    direct bound failing is a :class:`CertificateFailure` carrying the first
    offending (n, k).  Each passing step is then re-justified along the proof
    route chosen by the previous block distance: a zero previous block repeats
    the settled offset bound, a positive one combines a shift-contraction pair
    with the settled offset bound (the two contributions sum to exactly
    delta * lam + delta * (1 - lam) = delta).  A step whose direct bound holds
    but whose justification does not raises :class:`DivergenceError`.

    With u = n - n_low - 1 and E of :func:`row_offsets`, block k of row u is
    V[u, k] on V = E[:, ::p], its previous block V[u, k - 1] and its shifted
    block V[u + p, k - 1]; its step E[u + (k - 1) p, p] and its settled offset
    E[u, p] are offsets p, judged once per row.  Rows are scanned in chunks.
    """
    dm = seq.distance_matrix()
    s = seq.metric.s
    n_low = max(settling, w.n0)
    delta, lam, p = w.delta, w.lam, w.p

    t = max(len(seq) - n_low, 0)
    depth = max((t - 1) // p, 0)
    if depth == 0:
        return InductionTrace(0, 0, 0)
    e = row_offsets(dm, n_low, depth * p + 1)
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


def _induction_failure(dm: np.ndarray, s: float, w: ShiftWitness, n: int, k: int) -> Exception:
    """The failure of block k at n, re-evaluated as the scan evaluates it."""
    delta, lam, p = w.delta, w.lam, w.p
    value = float(dm[n - 1, n + k * p - 1])
    if not (value < delta - ETA):
        return CertificateFailure(
            "block_induction",
            f"rho(x_{n + k * p}, x_{n}) = {value} not below delta = {delta}",
            where=(n, k),
        )
    if dm[n - 1, n + (k - 1) * p - 1] <= ETA:
        step = float(dm[n + (k - 1) * p - 1, n + k * p - 1])
        return DivergenceError(
            f"zero-branch justification failed at (n={n}, k={k}): "
            f"s * {step} not below {delta * (1.0 - lam)}"
        )
    shifted_block = s * float(dm[n + p - 1, n + k * p - 1])
    settled_offset = s * float(dm[n - 1, n + p - 1])
    return DivergenceError(
        f"band-branch justification failed at (n={n}, k={k}): "
        f"{shifted_block} / {settled_offset} vs "
        f"{delta * lam} / {delta * (1.0 - lam)}"
    )


# ---------------------------------------------------------------------------
# Certification driver
# ---------------------------------------------------------------------------

class ChainBound(NamedTuple):
    """The worst telescoped bound over the verified range at offset q."""

    q: int
    bound: float


@dataclass(frozen=True)
class CauchyCertificate(JsonReport):
    """A replayed and cross-checked tail diameter bound for one witness."""

    witness: ShiftWitness
    s: float
    length: int
    settling_index: int
    range_start: int
    diameter_bound: float
    induction_depth: int
    zero_branch_steps: int
    band_branch_steps: int
    chain_bounds: tuple[ChainBound, ...]
    oracle_tail_diameter: float


#: The replay stages in the order :func:`certify_cauchy` runs them.
STAGES = (
    "consecutive_decay", "shift_contraction", "settling_index",
    "chain_bounds", "block_induction", "pair_scan",
)


@dataclass(frozen=True)
class CertifyOutcome(JsonReport):
    certified: bool
    certificate: Optional[CauchyCertificate]
    failure_stage: Optional[str]
    failure_detail: Optional[str]
    decay: ConsecutiveDecayReport = field(metadata={"json": "consecutive_decay"})
    shift: ShiftContractionReport = field(metadata={"json": "shift_contraction"})

    @property
    def stages(self) -> tuple[tuple[str, bool], ...]:
        """(stage, passed) for each stage run: all of :data:`STAGES` on
        success, else the stages up to and including the failed one."""
        if self.failure_stage is None:
            return tuple((name, True) for name in STAGES)
        failed = STAGES.index(self.failure_stage)
        return tuple((name, i < failed) for i, name in enumerate(STAGES[: failed + 1]))

    def json_items(self) -> dict:
        items = super().json_items()
        stage, detail = items.pop("failure_stage"), items.pop("failure_detail")
        return items | {
            "failure": None if stage is None else {"stage": stage, "detail": detail},
            "stages": [{"stage": name, "passed": ok} for name, ok in self.stages],
        }


def _power(s: float, k: int) -> float:
    """s**k, or inf where that overflows a float."""
    try:
        return s**k
    except OverflowError:
        return math.inf


@np.errstate(over="ignore", invalid="ignore")  # an overflowing bound fails the stage
def _chain_stage(seq: SequencePrefix, w: ShiftWitness, n_low: int) -> tuple[ChainBound, ...]:
    """Worst telescoped bound per offset q over the verified range.

    For q >= 1 the bound on rho(x_n, x_{n+q}) is the sum over j = 1 .. q of
    s**min(j, q - 1) * rho(x_{n+j-1}, x_{n+j}), left to right: the partial
    sums P_k over j <= k < q are kept for every n and the last step added
    with the top coefficient again, as the final triangle application splits
    one leg in two (at q = 1, the step itself).  Offset 0 is bounded by the
    doubled step 2 s rho(x_n, x_{n+1}), which holds in every dislocated
    b-metric.  Each bound is cross-checked against the direct distance; a
    violation means the declared s does not hold on this data and raises
    :class:`CertificateFailure` at the first offending (n, q), as does a
    bound that overflows a float, as s**(q - 1) does at large q.
    """
    dm = seq.distance_matrix()
    s = seq.metric.s
    steps = np.diagonal(dm, offset=1)[n_low:]  # steps[i] = rho(x_n, x_{n+1}) at n = n_low + i + 1
    partial = np.zeros_like(steps)  # P_0
    coefs = [_power(s, k) for k in range(w.p)]  # s**p is not needed
    out: list[ChainBound] = []

    for q in range(w.p + 1):
        if len(steps) < max(q, 1):  # no n in range with n + max(q, 1) <= N
            break
        if q == 0:
            bounds = 2.0 * s * steps
            direct = np.diagonal(dm)[n_low:-1]
        else:
            last = steps[q - 1 :]
            prev = partial[: len(last)]  # P_{q-1}
            bounds = prev + coefs[q - 1] * last
            if q < w.p:
                partial = prev + coefs[q] * last
            direct = np.diagonal(dm, q)[n_low:]
        worst = float(np.max(bounds))
        if not math.isfinite(worst):
            n = n_low + int(np.argmin(np.isfinite(bounds))) + 1
            raise CertificateFailure(
                "chain_bounds",
                f"chain bound at n={n}, q={q} overflows a float at s = {s}",
                where=(n, q),
            )
        gap = direct - bounds
        if np.any(gap > ETA):
            i = int(np.argmax(gap > ETA))
            n = n_low + i + 1
            raise CertificateFailure(
                "chain_bounds",
                f"chain bound violated at n={n}, q={q}: "
                f"direct {float(direct[i])} > telescoped {float(bounds[i])}",
                where=(n, q),
            )
        out.append(ChainBound(q, worst))
    return tuple(out)


def _pair_scan(seq: SequencePrefix, w: ShiftWitness, n_low: int) -> None:
    """Bound every tail pair via the m = n + k p + q decomposition.

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


def certify_cauchy(
    seq: SequencePrefix, w: ShiftWitness, tail: TailConfig = TailConfig()
) -> CertifyOutcome:
    """Replay the full argument for one witness and issue a certificate.

    The consecutive-decay report at ``tail`` is recorded but does not gate
    certification: the quantitative form of step decay that the argument
    consumes is the settling scan at scale delta, and that stage fails on its
    own when steps do not decay.

    Every other stage of :data:`STAGES` fails by raising
    :class:`CertificateFailure`; the outcome then carries the stage name and
    the message, which names the first offending location.  A certificate is
    issued only when every stage passes.  The issued certificate records the
    brute-force tail diameter over the verified range next to the certified
    bound, and a certificate whose oracle value escapes its own bound is
    treated as an internal bug (DivergenceError), never returned.
    """
    decay = check_consecutive_decay(seq, tail)
    shift = check_shift_contraction(seq, w)
    try:
        if not shift.holds:
            raise CertificateFailure(
                "shift_contraction",
                f"violating pair {shift.violating_pair}",
                where=shift.violating_pair,
            )
        settling = find_settling_index(seq, w)
        n_low = max(settling, w.n0)
        chains = _chain_stage(seq, w, n_low)
        induction = run_block_induction(seq, w, settling)
        _pair_scan(seq, w, n_low)
    except CertificateFailure as exc:
        return CertifyOutcome(
            certified=False,
            certificate=None,
            failure_stage=exc.stage,
            failure_detail=str(exc),
            decay=decay,
            shift=shift,
        )

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
    return CertifyOutcome(
        certified=True,
        certificate=certificate,
        failure_stage=None,
        failure_detail=None,
        decay=decay,
        shift=shift,
    )


class GridEntry(NamedTuple):
    """One delta of :func:`certify_over_grid`.

    ``outcome`` is None when there is no witness or the prefix is too short
    for the witness search or the replay; ``note`` then says why, if known.
    """

    delta: float
    witness: Optional[ShiftWitness]
    outcome: Optional[CertifyOutcome]
    note: Optional[str]


def certify_over_grid(
    seq: SequencePrefix,
    deltas: list[float],
    witness_for: Callable[[float], Optional[ShiftWitness]],
    tail: TailConfig = TailConfig(),
) -> list[GridEntry]:
    """Certify the witness ``witness_for(delta)`` at every grid delta.

    A None witness is passed through.  A prefix too short for the witness
    callback or for the replay is recorded in that delta's entry and does not
    stop the grid.  All grid deltas certifying is the empirical Cauchy verdict
    at this prefix length: the certified diameters delta * (1 - lam + s)
    shrink to zero with the grid.
    """
    entries = []
    for delta in deltas:
        w = outcome = note = None
        try:
            w = witness_for(delta)
            if w is not None:
                outcome = certify_cauchy(seq, w, tail)
        except PrefixTooShort as exc:
            note = str(exc)
        entries.append(GridEntry(delta, w, outcome, note))
    return entries
