"""Exception types shared across the package."""

from __future__ import annotations


class CauchyCertError(Exception):
    """Base class for all package-specific errors."""


class MetricError(CauchyCertError):
    """Malformed metric instance or invalid distance evaluation."""


class TriangleViolation(MetricError):
    """A triple violates the relaxed triangle inequality for every s.

    Raised when the two legs of a triple sum to (numerically) zero while the
    direct distance does not; no relaxation constant can repair that.
    """

    def __init__(self, message: str, triple=None):
        super().__init__(message)
        self.triple = triple


class PrefixTooShort(CauchyCertError):
    """The sequence prefix is too short for the requested scan."""


class CertificateFailure(CauchyCertError):
    """A certification stage failed on this input (a normal negative result).

    The one way a replay stage reports failure.  Carries the stage name (one
    of ``certificates.STAGES``) and, when available, the first offending
    location, so callers can report it.
    """

    def __init__(self, stage: str, message: str, where=None):
        super().__init__(message)
        self.stage = stage
        self.where = where


class DivergenceError(CauchyCertError):
    """Proof replay and direct evaluation disagree: an internal bug.

    Each certification stage is validated both by replaying the proof
    inequality and by direct distance evaluation.  If the direct check passes
    while the replay fails (or vice versa) the implementation itself is
    inconsistent, which must never be reported as an ordinary negative result.
    """


class ContractionError(CauchyCertError):
    """Declared contraction constant violated, or degenerate sampling."""


class SolverError(CauchyCertError):
    """Fixed-point iteration exhausted its budget without a certificate."""


class ConfigError(CauchyCertError):
    """Invalid or incomplete experiment configuration."""
