"""cauchycert: finite-prefix Cauchy certification for dislocated b-metric spaces.

The package checks two mechanically verifiable conditions on a finite
sequence prefix -- consecutive-step decay and shift contraction of small
distances -- searches for witnesses, replays the argument that turns a
witness into a certified tail diameter bound, and applies the machinery to
certified fixed-point iteration for contractions.

The names below are imported from their submodule on first access (PEP 562),
so ``import cauchycert`` loads no numpy until a name needs it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "certificates": (
        "STAGES", "CauchyCertificate", "CertifyOutcome", "InductionTrace", "certify_cauchy",
        "certify_over_grid", "delta_grid", "diameter_bound", "find_settling_index",
        "run_block_induction",
    ),
    "contractions": (
        "Contraction", "ContractionEstimate", "SolveResult", "SolverConfig", "derive_shift",
        "estimate_contraction_constant", "iterate", "make_contraction", "solve_fixed_point",
    ),
    "errors": (
        "CauchyCertError", "CertificateFailure", "ConfigError", "ContractionError",
        "DivergenceError", "MetricError", "PrefixTooShort", "SolverError",
    ),
    "metrics": (
        "ETA", "AxiomReport", "DbMetric", "Point", "SamplerConfig", "check_symmetry",
        "check_zero_identity", "estimate_minimal_s", "make_metric", "run_axiom_report",
    ),
    "sequences": (
        "ConsecutiveDecayReport", "GridSearch", "SearchConfig", "SequencePrefix",
        "ShiftContractionReport", "ShiftWitness", "TailConfig", "WitnessSearch",
        "check_consecutive_decay", "check_shift_contraction", "consecutive_distances",
        "search_grid", "search_witness", "tail_diameter",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
