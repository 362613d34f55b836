"""The command handlers that compute, and the ``main`` they run under.

Each ``cmd_<command>`` here returns ``(config_echo, results, exit_code)``
(see :func:`~cauchycert.reports.build_report`).  Parsing, dispatch and exit
codes live in :mod:`cauchycert.entry`, which imports this module, and with it
every layer and numpy, only for the commands below; ``main`` is the entry's.
"""

from __future__ import annotations

import logging
import math
import sys
from typing import Optional

from .certificates import certify_over_grid
from .config import Experiment, load_config_text, make_experiment
from .contractions import solve_fixed_point
from .entry import main  # noqa: F401  (re-exported: cauchycert.cli.main runs any command)
from .errors import ConfigError, ContractionError, PrefixTooShort, SolverError
from .metrics import AxiomReport, make_metric, run_axiom_report
from .sequences import (
    SequencePrefix,
    ShiftWitness,
    arithmetic_sequence,
    check_consecutive_decay,
    check_shift_contraction,
    search_grid,
    tail_diameter,
)

log = logging.getLogger("cauchycert")


def _load_experiment(args) -> Experiment:
    if args.config is None:
        raise ConfigError(f"command {args.command!r} requires --config (a path, or '-' for stdin)")
    # Bytes, decoded here: a config is UTF-8 whatever the locale says.
    try:
        if args.config == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.config, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    return make_experiment(load_config_text(text), seed_override=args.seed)


def cmd_axioms(args) -> tuple[dict, AxiomReport, int]:
    exp = _load_experiment(args)
    metric = exp.metric()
    report = run_axiom_report(metric, exp.sampler())
    log.info("axioms for %s: all_ok=%s", metric.name, report.all_ok)
    return exp.raw, report, 0


def cmd_check(args) -> tuple[dict, dict, int]:
    exp = _load_experiment(args)
    metric = exp.metric()
    seq = exp.sequence(metric, csv_header=args.header)
    n = len(seq)
    decay = check_consecutive_decay(seq, exp.tail())
    search_cfg = exp.search()
    per_delta = [
        {"delta": g.delta, "search": g.search} | ({} if g.note is None else {"note": g.note})
        for g in search_grid(seq, exp.deltas(), search_cfg)
    ]

    midpoint = math.ceil(n / 2)
    results = {
        "length": n,
        "consecutive_decay": decay,
        "per_delta": per_delta,
        "tail_diameter": {
            "from_start": tail_diameter(seq, 1),
            "midpoint": midpoint,
            "from_midpoint": tail_diameter(seq, midpoint),
        },
    }
    return exp.raw, results, 0


def cmd_certify(args) -> tuple[dict, dict, int]:
    exp = _load_experiment(args)
    metric = exp.metric()
    seq = exp.sequence(metric, csv_header=args.header)
    search_cfg = exp.search()
    deltas = exp.deltas()  # read before the tail: a bad grid is the error reported
    decay = check_consecutive_decay(seq, exp.tail())

    if "witness" in exp.raw["parameters"]:
        source, witness_for = "explicit", exp.witness_for
    else:
        source = "search"
        searches = {g.delta: g for g in search_grid(seq, deltas, search_cfg)}

        def witness_for(delta: float) -> Optional[ShiftWitness]:
            g = searches[delta]
            if g.search is None:
                raise PrefixTooShort(g.note)
            return g.search.witness

    entries = certify_over_grid(seq, deltas, witness_for)
    per_delta = []
    for e in entries:
        if e.outcome is not None:
            log.info("delta=%g certified=%s", e.delta, e.outcome.certified)
        entry = e._asdict() | {"witness_source": source}
        if e.witness is None:
            entry["note"] = e.note or "no holding witness on the search grid"
        per_delta.append(entry)

    all_certified = all(e.outcome is not None and e.outcome.certified for e in entries)
    results = {
        "length": len(seq),
        "all_certified": all_certified,
        "consecutive_decay": decay,
        "per_delta": per_delta,
    }
    return exp.raw, results, 0


def cmd_solve(args) -> tuple[dict, dict, int]:
    exp = _load_experiment(args)
    metric = exp.metric()
    f = exp.contraction()
    cfg, x0, target_delta = exp.solver()
    try:
        result = solve_fixed_point(f, metric, x0, target_delta, cfg)
    except (SolverError, ContractionError) as exc:
        log.warning("solve failed: %s", exc)
        return exp.raw, {"solved": False, "error": str(exc)}, 0
    results = {"solved": True, **result.json_items()}
    return exp.raw, results, 0


#: Canned counterexample defaults: x_n = n is not Cauchy although every small
#: delta leaves the shift-contraction band empty.
COUNTEREXAMPLE_N = 50
COUNTEREXAMPLE_DELTAS = (0.5, 0.25)


def cmd_counterexample(args) -> tuple[dict, dict, int]:
    if args.config is not None:
        exp = _load_experiment(args)
    else:
        exp = make_experiment({}, seed_override=args.seed)
    params = exp.raw.get("parameters", {})

    n = params.get("n", COUNTEREXAMPLE_N)
    override_mode = "delta_grid" in params
    deltas = exp.deltas() if override_mode else list(COUNTEREXAMPLE_DELTAS)

    metric = make_metric("euclid_1d")
    seq = SequencePrefix(arithmetic_sequence(n), metric)

    per_delta = []
    vacuous = True
    for delta in deltas:
        report = check_shift_contraction(seq, ShiftWitness(delta=delta, p=1, lam=0.5, n0=1))
        vacuous = vacuous and report.holds and report.pairs_triggered == 0
        per_delta.append({"delta": delta, "shift_contraction": report})

    decay = check_consecutive_decay(seq)
    half = math.ceil(n / 2)
    diam_full = tail_diameter(seq, 1)
    half_seq = SequencePrefix(arithmetic_sequence(half), metric)
    diam_half = tail_diameter(half_seq, 1)

    assertions = {
        "shift_vacuous": vacuous,
        "decay_fails_tail_max_one": (not decay.holds) and decay.tail_max == 1.0,
        # n >= 4 (the "parameters.n" bound), so the two equalities imply
        # diam_full > diam_half.
        "diameter_grows": diam_full == float(n - 1) and diam_half == float(half - 1),
    }
    regression_ok = all(assertions.values())
    results = {
        "n": n,
        "deltas": deltas,
        "override_mode": override_mode,
        "per_delta": per_delta,
        "consecutive_decay": decay,
        "tail_diameter_full": diam_full,
        "tail_diameter_half_prefix": diam_half,
        "assertions": assertions,
        "regression_ok": regression_ok,
    }
    exit_code = 0 if (override_mode or regression_ok) else 1
    if exit_code:
        log.error("counterexample regression failed: %s", assertions)
    return exp.raw, results, exit_code


if __name__ == "__main__":
    sys.exit(main())
