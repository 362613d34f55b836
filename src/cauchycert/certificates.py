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

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CertificateFailure, DivergenceError, PrefixTooShort
from .metrics import ETA, chunk_rows
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

    # Entry i of each diagonal is the 0-based row n0 + i, i.e. n = n0 + i + 1.
    worst = np.zeros(hi - w.n0)
    for q in range(w.p + 1):
        np.maximum(worst, np.diagonal(dm, q)[w.n0 : hi], out=worst)
    bad = np.flatnonzero(~(worst < threshold))
    last_bad = w.n0 + int(bad[-1]) + 1 if bad.size else 0
    m0 = max(w.n0, last_bad)
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


def _first_true(mask: np.ndarray) -> Optional[tuple[int, int]]:
    """(row, column) of the first true entry of a 2-d mask in row-major order."""
    flat = int(np.argmax(mask))
    return divmod(flat, mask.shape[1]) if mask.flat[flat] else None


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

    split = delta * lam + delta * (1.0 - lam)
    if abs(split - delta) > ETA:
        raise DivergenceError(f"band split {split} deviates from delta {delta}")

    d = dm[n_low:, n_low:]
    t = d.shape[0]
    first: Optional[tuple[int, int]] = None  # smallest offending (u, k)
    zero_steps = 0
    all_steps = 0
    for r in range(min(p, t)):
        blocks = d[r::p, r::p]
        m = blocks.shape[0]
        all_steps += m * (m - 1) // 2
        # Offset i is L[i, i + 1]: the settled offset of row i and the step of column i + 1.
        offset = np.diagonal(blocks, 1)
        offset_ok = s * offset < delta * (1.0 - lam)
        rows = chunk_rows(m)
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
            # Column c of the chunk is j = i0 + 1 + c, so j > i is the upper triangle.
            hit = _first_true(np.triu(bad_value | bad_zero | bad_band))
            if hit is not None:
                block = (r + (i0 + hit[0]) * p, hit[1] + 1 - hit[0])
                first = min(first or block, block)
                break
            zero_steps += int(np.count_nonzero(np.triu(zero)))

    if first is not None:
        raise _induction_failure(dm, s, w, n_low + 1 + first[0], first[1])
    return InductionTrace(
        depth=max((t - 1) // p, 0),
        zero_branch_steps=zero_steps,
        band_branch_steps=all_steps - zero_steps,
    )


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

@dataclass(frozen=True)
class CauchyCertificate:
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
    chain_bounds: tuple[tuple[int, float], ...]
    oracle_tail_diameter: float

    def to_dict(self) -> dict:
        return {
            "witness": self.witness.to_dict(),
            "s": self.s,
            "length": self.length,
            "settling_index": self.settling_index,
            "range_start": self.range_start,
            "diameter_bound": self.diameter_bound,
            "induction_depth": self.induction_depth,
            "zero_branch_steps": self.zero_branch_steps,
            "band_branch_steps": self.band_branch_steps,
            "chain_bounds": [{"q": q, "bound": b} for q, b in self.chain_bounds],
            "oracle_tail_diameter": self.oracle_tail_diameter,
        }


#: The replay stages in the order :func:`certify_cauchy` runs them.
STAGES = (
    "consecutive_decay", "shift_contraction", "settling_index",
    "chain_bounds", "block_induction", "pair_scan",
)


@dataclass(frozen=True)
class CertifyOutcome:
    certified: bool
    certificate: Optional[CauchyCertificate]
    failure_stage: Optional[str]
    failure_detail: Optional[str]
    decay: ConsecutiveDecayReport
    shift: ShiftContractionReport

    @property
    def stages(self) -> tuple[tuple[str, bool], ...]:
        """(stage, passed) for each stage run: all of :data:`STAGES` on
        success, else the stages up to and including the failed one."""
        if self.failure_stage is None:
            return tuple((name, True) for name in STAGES)
        failed = STAGES.index(self.failure_stage)
        return tuple((name, i < failed) for i, name in enumerate(STAGES[: failed + 1]))

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
            "shift_contraction": self.shift.to_dict(),
        }


def _chain_stage(seq: SequencePrefix, w: ShiftWitness, n_low: int) -> tuple[tuple[int, float], ...]:
    """Worst telescoped bound per offset q over the verified range.

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


def _pair_scan(seq: SequencePrefix, w: ShiftWitness, n_low: int) -> None:
    """Bound every tail pair via the m = n + k p + q decomposition.

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

            hit = _first_true(in_tail & ~(comp_ok & triangle_ok))
            if hit is not None:
                pair = (r + (i0 + hit[0]) * p, r + c0 + hit[1])
                first_comp = min(first_comp or pair, pair)
                break
            hit = _first_true(in_tail & ~assembled_ok)
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
