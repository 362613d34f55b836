"""cauchycert: finite-prefix Cauchy certification for dislocated b-metric spaces.

The package checks two mechanically verifiable conditions on a finite
sequence prefix -- consecutive-step decay and shift contraction of small
distances -- searches for witnesses, replays the argument that turns a
witness into a certified tail diameter bound, and applies the machinery to
certified fixed-point iteration for contractions.
"""

__version__ = "0.1.0"

from .certificates import (
    STAGES,
    CauchyCertificate,
    CertifyOutcome,
    InductionTrace,
    certify_cauchy,
    certify_over_grid,
    delta_grid,
    diameter_bound,
    find_settling_index,
    run_block_induction,
)
from .contractions import (
    Contraction,
    ContractionEstimate,
    SolveResult,
    SolverConfig,
    derive_shift,
    estimate_contraction_constant,
    iterate,
    make_contraction,
    solve_fixed_point,
)
from .errors import (
    CauchyCertError,
    CertificateFailure,
    ConfigError,
    ContractionError,
    DivergenceError,
    MetricError,
    PrefixTooShort,
    SolverError,
    TriangleViolation,
)
from .metrics import (
    ETA,
    AxiomReport,
    DbMetric,
    Point,
    SamplerConfig,
    check_symmetry,
    check_zero_identity,
    estimate_minimal_s,
    make_metric,
    run_axiom_report,
)
from .sequences import (
    ConsecutiveDecayReport,
    SearchConfig,
    SequencePrefix,
    ShiftContractionReport,
    ShiftWitness,
    TailConfig,
    WitnessSearch,
    check_consecutive_decay,
    check_shift_contraction,
    consecutive_distances,
    search_witness,
    tail_diameter,
)

__all__ = [
    "ETA",
    "AxiomReport",
    "CauchyCertError",
    "CauchyCertificate",
    "CertificateFailure",
    "CertifyOutcome",
    "ConfigError",
    "ConsecutiveDecayReport",
    "Contraction",
    "ContractionError",
    "ContractionEstimate",
    "DbMetric",
    "DivergenceError",
    "InductionTrace",
    "MetricError",
    "Point",
    "PrefixTooShort",
    "STAGES",
    "SamplerConfig",
    "SearchConfig",
    "SequencePrefix",
    "ShiftContractionReport",
    "ShiftWitness",
    "SolveResult",
    "SolverConfig",
    "SolverError",
    "TailConfig",
    "TriangleViolation",
    "WitnessSearch",
    "certify_cauchy",
    "certify_over_grid",
    "check_consecutive_decay",
    "check_shift_contraction",
    "check_symmetry",
    "check_zero_identity",
    "consecutive_distances",
    "delta_grid",
    "derive_shift",
    "diameter_bound",
    "estimate_contraction_constant",
    "estimate_minimal_s",
    "find_settling_index",
    "iterate",
    "make_contraction",
    "make_metric",
    "run_axiom_report",
    "run_block_induction",
    "search_witness",
    "solve_fixed_point",
    "tail_diameter",
]
