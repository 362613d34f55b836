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
    out: list[tuple[int, float]] = []  # plain tuples, cheaper than a ChainBound per offset

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
        out.append((q, worst))
    return tuple(map(ChainBound._make, out))


def _earlier(first: Optional[tuple[int, int]], at: tuple[int, int], bad: np.ndarray):
    """The earlier of ``first`` and the first true entry of ``bad``, offset by ``at``."""
    hit = _first_true(bad) if bad.size else None
    pair = hit and (at[0] + hit[0], at[1] + hit[1])
    return min(filter(None, (first, pair)), default=None)


def _slabs(e: np.ndarray, t: int, p: int, q0: int):
    """(at, direct, a, b, in_range) per row chunk of the slab of each k >= q0: with
    r = t - k p, the pairs (u, k p + q), u < r, q0 <= q < p, read as direct =
    E[:r, k p + q0 : k p + p], A = E[k p : t, q0 : p] and B = E[:r, k p]."""
    rows = chunk_rows(p)
    n_blocks = -(-t // p) if q0 < p else 0  # no offset q0 .. p - 1, no slab
    for k in range(q0, n_blocks):
        r, kp = t - k * p, k * p
        for u0 in range(0, r, rows):
            u1 = min(u0 + rows, r)
            in_range = np.arange(q0, p) < (r - np.arange(u0, u1))[:, None]  # u + q < r
            yield ((u0, kp + q0), e[u0:u1, kp + q0 : kp + p], e[kp + u0 : kp + u1, q0:p],
                   e[u0:u1, kp, None], in_range)


def _pair_scan(seq: SequencePrefix, w: ShiftWitness, n_low: int) -> None:
    """Bound every tail pair via the m = n + k p + q decomposition.

    Each pair n_low < n <= m <= N, with k = (m - n) // p and q = (m - n) mod p,
    needs A = rho(x_{n + k p}, x_m) < delta (1 - lam) / s - eta,
    B = rho(x_n, x_{n + k p}) < delta - eta, the relaxed triangle through
    x_{n + k p}, and s A + s B and rho(x_n, x_m) below the certified diameter
    fb = delta (1 - lam) + s delta.  The first failing pair in (n, m) order is
    reported, a component failure anywhere first; it fails certification, as
    does an fb that overflows a float, and an assembled failure is a bug.

    Contract: run by :func:`certify_cauchy` after :func:`find_settling_index`
    and :func:`run_block_induction` have passed, with ``n_low`` the settling
    index, it checks only what they left unchecked.  With u = n - n_low - 1,
    t = N - n_low and E of :func:`row_offsets`, A is E[u + k p, q], B is
    E[u, k p] and the direct distance E[u, k p + q]:

    * settling held E[x, q], q <= p, on the rows x < t - p: A there, and B at
      k = 0 (theta <= delta); induction held B at k >= 1.  The last p rows of
      A are one block here, whose E[x, q] is first read at u = x mod p;
    * at k = 0 or q = 0 the direct distance is A or B, so the triangle and
      direct < fb - eta hold for s >= 1; the slabs of k >= 1 check the rest;
    * rounding is monotone, so s (theta - eta) + s (delta - eta) < fb proves
      every s A + s B < fb; only where it fails are they checked pair by pair.
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

    t = len(seq) - n_low  # more than p: the settling scan left a nonempty range
    e = row_offsets(dm, n_low, -(-t // p) * p)
    first_comp = first_assembled = None  # the smallest offending (u, m - n)
    x0 = t // p * p  # the last p rows: u = x - x0 from x0 on, u = x - x0 + p before
    for lo, hi, at in ((x0, t, (0, x0)), (t - p, x0, (t - x0, x0 - p))):
        in_range = np.arange(p) < (t - np.arange(lo, hi))[:, None]  # x + q < t
        first_comp = _earlier(first_comp, at, ~(e[lo:hi, :p] < theta - ETA) & in_range)
    for at, direct, a, b, in_range in _slabs(e, t, p, 1):
        first_comp = _earlier(first_comp, at, ~(direct <= s * (a + b) + ETA) & in_range)
        first_assembled = _earlier(first_assembled, at, ~(direct < fb - ETA) & in_range)
    if first_comp is None and not (s * (theta - ETA) + s * (delta - ETA) < fb):
        for at, _, a, b, in_range in _slabs(e, t, p, 0):
            assembled = s * a
            assembled += s * b  # s A + s B in place: one chunk-sized float array at a time
            bad = ~(assembled < fb) & in_range
            del assembled
            first_assembled = _earlier(first_assembled, at, bad)

    first = first_comp or first_assembled
    if first is None:
        return
    n, m = n_low + 1 + first[0], n_low + 1 + sum(first)
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
    certificate = stage = detail = None
    try:
        if not shift.holds:
            pair = shift.violating_pair
            raise CertificateFailure("shift_contraction", f"violating pair {pair}", where=pair)
        settling = find_settling_index(seq, w)  # at least n0
        chains = _chain_stage(seq, w, settling)
        induction = run_block_induction(seq, w, settling)
        _pair_scan(seq, w, settling)
    except CertificateFailure as exc:  # not exc itself: its traceback would hold this frame
        stage, detail = exc.stage, str(exc)
    else:
        fb = diameter_bound(w, seq.metric.s)
        oracle = tail_diameter(seq, settling + 1)
        if not (oracle < fb):
            raise DivergenceError(
                f"certificate issued but oracle tail diameter {oracle} >= bound {fb}"
            )
        certificate = CauchyCertificate(
            witness=w,
            s=seq.metric.s,
            length=len(seq),
            settling_index=settling,
            range_start=settling,
            diameter_bound=fb,
            induction_depth=induction.depth,
            zero_branch_steps=induction.zero_branch_steps,
            band_branch_steps=induction.band_branch_steps,
            chain_bounds=chains,
            oracle_tail_diameter=oracle,
        )
    return CertifyOutcome(
        certified=stage is None,
        certificate=certificate,
        failure_stage=stage,
        failure_detail=detail,
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
