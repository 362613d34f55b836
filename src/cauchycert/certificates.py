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

from .errors import CertificateFailure, DivergenceError, MetricError, PrefixTooShort
from .metrics import ETA
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
    return [delta0 * 2.0 ** (-j) for j in range(levels)]


# ---------------------------------------------------------------------------
# Stage 1: settling index
# ---------------------------------------------------------------------------

def find_settling_index(seq: SequencePrefix, w: ShiftWitness) -> Optional[int]:
    """Smallest m0 >= n0 beyond which all short-offset distances are small.

    Specifically: every n with m0 < n <= N - p and every offset q in {0..p}
    must satisfy rho(x_{n+q}, x_n) < delta * (1 - lam) / s - eta.  Returns
    None when no cutoff leaves a nonempty verified range -- the quantitative
    way a prefix with non-decaying steps fails at scale delta.
    """
    n = len(seq)
    hi = n - w.p  # last checkable index
    if hi < w.n0 + 1:
        raise PrefixTooShort(
            f"need N >= n0 + p + 1 = {w.n0 + w.p + 1} for a nonempty settling scan, got N = {n}"
        )
    dm = seq.distance_matrix()
    threshold = w.delta * (1.0 - w.lam) / seq.metric.s - ETA

    rows = np.arange(w.n0, hi)  # 0-based rows for n in (n0, hi]
    worst = np.zeros(rows.size)
    for q in range(w.p + 1):
        np.maximum(worst, dm[rows, rows + q], out=worst)
    ok = worst < threshold

    if not ok[-1]:
        return None
    bad = np.flatnonzero(~ok)
    last_bad = int(rows[bad[-1]]) + 1 if bad.size else 0
    m0 = max(w.n0, last_bad)
    if m0 > hi - 1:
        return None
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


@dataclass(frozen=True)
class CertifyOutcome:
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


STAGE_ORDER = (
    "consecutive_decay",
    "shift_contraction",
    "settling_index",
    "chain_bounds",
    "block_induction",
    "pair_scan",
)


def _chain_stage(seq: SequencePrefix, w: ShiftWitness, n_low: int) -> tuple[tuple[int, float], ...]:
    """Worst telescoped bound per offset q over the verified range.

    For q >= 2 the bound on rho(x_n, x_{n+q}) is the sum over j = 1 .. q of
    s**min(j, q - 1) * rho(x_{n+j-1}, x_{n+j}); the last two steps share the
    top coefficient because the final triangle application splits one leg in
    two.  Offset 1 is bounded by the step itself and offset 0 by the doubled
    step 2 s rho(x_n, x_{n+1}), which holds in every dislocated b-metric.
    Each bound is cross-checked against the direct distance; a violation
    means the declared s does not hold on this data and raises MetricError.
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
            raise MetricError(
                f"chain bound violated at n={int(r[i]) + 1}, q={q}: "
                f"direct {float(direct[i])} > telescoped {float(bounds[i])}"
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


def certify_cauchy(
    seq: SequencePrefix, w: ShiftWitness, tail: TailConfig = TailConfig()
) -> CertifyOutcome:
    """Replay the full argument for one witness and issue a certificate.

    The consecutive-decay report at ``tail`` is recorded but does not gate
    certification: the quantitative form of step decay that the argument
    consumes is the settling scan at scale delta, and that stage fails on its
    own when steps do not decay.

    A certificate is issued only when every stage passes; the outcome of a
    failed stage carries the stage name and the first offending location.
    The issued certificate records the brute-force tail diameter over the
    verified range next to the certified bound, and a certificate whose
    oracle value escapes its own bound is treated as an internal bug
    (DivergenceError), never returned.
    """
    decay = check_consecutive_decay(seq, tail)
    stages: list[tuple[str, bool]] = [("consecutive_decay", True)]

    def outcome_failure(stage: str, detail: str, shift=None, induction=None) -> CertifyOutcome:
        stages.append((stage, False))
        return CertifyOutcome(
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

    settling = find_settling_index(seq, w)
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
    except MetricError as exc:
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
    return CertifyOutcome(
        certified=True,
        certificate=certificate,
        failure_stage=None,
        failure_detail=None,
        stages=tuple(stages),
        decay=decay,
        shift=shift,
        induction=induction,
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
