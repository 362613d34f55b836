"""Scalar reference versions of vectorised library code, kept as test oracles.

``chain_bound`` and ``self_distance_bound`` evaluate one telescoped bound at
a time through ``SequencePrefix.distance``; ``_chain_stage`` must agree with
them.  ``meshgrid_matrix`` is the all-pairs build that ``DbMetric.matrix``
replaced: every pair gathered into two flat ``(N*N, d)`` stacks and passed
through ``DbMetric.rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cauchycert import ETA, DbMetric, MetricError, SequencePrefix


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
