"""Command-line interface.

Subcommands
-----------
axioms          sampled axiom checks for a configured metric
check           decay check, per-delta witness search, brute-force oracle
certify         full certification over the delta grid
solve           certified fixed-point iteration for a configured contraction
counterexample  canned non-Cauchy regression (x_n = n)
list            registered metrics, generators, contractions

Reports are JSON on stdout (or ``--out``); logs go to stderr only, at the
verbosity selected by the ``CAUCHYCERT_LOG`` environment variable
(error|warn|info|debug).

Exit codes: 0 = run completed (even with negative check results); 1 = the
canned counterexample assertions regressed; 2 = configuration error or an
unwritable ``--out``; 3 = internal divergence or a report off its schema (a bug).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from typing import Optional

from .certificates import certify_over_grid
from .config import Experiment, load_config_text, make_experiment
from .contractions import solve_fixed_point
from .errors import (
    CauchyCertError,
    ConfigError,
    ContractionError,
    DivergenceError,
    PrefixTooShort,
    SolverError,
)
from .metrics import AxiomReport, make_metric, run_axiom_report
from .registry import documented
from .reports import build_report, dump_report
from .sequences import (
    SequencePrefix,
    ShiftWitness,
    arithmetic_sequence,
    check_consecutive_decay,
    check_shift_contraction,
    search_witness,
    tail_diameter,
)

log = logging.getLogger("cauchycert")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    raw = os.environ.get("CAUCHYCERT_LOG", "warn").lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.WARNING
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("cauchycert")
    root.handlers[:] = [handler]
    root.setLevel(level)


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


# ---------------------------------------------------------------------------
# Commands (each returns (config_echo, results, exit_code); see build_report)
# ---------------------------------------------------------------------------

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

    per_delta = []
    for delta in exp.deltas():
        try:
            found = search_witness(seq, delta, search_cfg)
            entry = {"delta": delta, "search": found}
        except PrefixTooShort as exc:
            entry = {"delta": delta, "search": None, "note": str(exc)}
        per_delta.append(entry)

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

    if "witness" in exp.raw["parameters"]:
        source, witness_for = "explicit", exp.witness_for
    else:
        source = "search"

        def witness_for(delta: float) -> Optional[ShiftWitness]:
            return search_witness(seq, delta, search_cfg).witness

    entries = certify_over_grid(seq, exp.deltas(), witness_for, exp.tail())
    per_delta = []
    for e in entries:
        if e.outcome is not None:
            log.info("delta=%g certified=%s", e.delta, e.outcome.certified)
        entry = e._asdict() | {"witness_source": source}
        if e.witness is None:
            entry["note"] = e.note or "no holding witness on the search grid"
        per_delta.append(entry)

    all_certified = all(e.outcome is not None and e.outcome.certified for e in entries)
    results = {"length": len(seq), "all_certified": all_certified, "per_delta": per_delta}
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


def cmd_list(args) -> tuple[dict, dict, int]:
    return {}, documented(), 0


#: Each command's handler and ``--help`` line, in the order the help lists them.
COMMANDS = {
    "axioms": (cmd_axioms, "sampled metric axiom checks"),
    "check": (cmd_check, "decay + witness search + oracle"),
    "certify": (cmd_certify, "full certification over the delta grid"),
    "solve": (cmd_solve, "certified fixed-point iteration"),
    "counterexample": (cmd_counterexample, "canned non-Cauchy regression"),
    "list": (cmd_list, "registered metrics, generators, contractions"),
}


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with only the flags that command reads:
    ``--config`` and ``--seed`` for all but ``list``, ``--header`` for the
    two commands that read a sequence source, ``--out`` and
    ``--no-timestamp`` for all."""
    parser = argparse.ArgumentParser(
        prog="cauchycert",
        description="Finite-prefix Cauchy certification for dislocated b-metric spaces.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, summary) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        if name != "list":
            command.add_argument("--config", metavar="PATH", help="JSON config path, or '-' for stdin")
        command.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        if name != "list":
            command.add_argument("--seed", type=_seed, metavar="U64", help="override the config seed")
        command.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit timestamp and timing from the report (for byte-stable output)",
        )
        if name in ("check", "certify"):
            command.add_argument("--header", action="store_true", help="csv sources: skip the first row")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2

    started = time.monotonic()
    try:
        handler, _ = COMMANDS[args.command]
        config_echo, results, exit_code = handler(args)
        seed = config_echo.get("parameters", {}).get("seed", getattr(args, "seed", None) or 0)
        report = build_report(
            command=args.command,
            config_echo=config_echo,
            results=results,
            seed=seed,
            include_timestamp=not args.no_timestamp,
            elapsed=round(time.monotonic() - started, 6),
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"internal divergence: {exc}", file=sys.stderr)
        return 3
    except CauchyCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        text = dump_report(report, args.out)
    except OSError as exc:
        print(f"error: cannot write report {args.out!r}: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
