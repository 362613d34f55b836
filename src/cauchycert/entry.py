"""The process entry: arguments, logging, dispatch, the report and exit codes.

Subcommands
-----------
axioms          sampled axiom checks for a configured metric
check           decay check, per-delta witness search, brute-force oracle
certify         full certification over the delta grid
solve           certified fixed-point iteration for a configured contraction
counterexample  canned non-Cauchy regression (x_n = n)
list            registered metrics, generators, contractions

This module imports no numpy.  Each command's handler, ``cmd_<command>``,
lives in the module its :data:`COMMANDS` entry names and is imported when
that command runs, so ``list``, ``--help`` and a usage error start without
numpy; the handlers that compute live in :mod:`cauchycert.cli`.

Reports are JSON on stdout (or ``--out``); logs go to stderr only, at the
verbosity selected by the ``CAUCHYCERT_LOG`` environment variable
(error|warn|info|debug).

Exit codes: 0 = run completed (even with negative check results); 1 = the
canned counterexample assertions regressed; 2 = configuration error or an
unwritable ``--out``; 3 = internal divergence or a report off its schema (a bug).
"""

from __future__ import annotations

import argparse
import importlib
import logging
import os
import sys
import time
from typing import Optional

from .errors import CauchyCertError, ConfigError, DivergenceError
from .registry import documented
from .reports import build_report, dump_report

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


def cmd_list(args) -> tuple[dict, dict, int]:
    return {}, documented(), 0


#: Each command's handler module and ``--help`` line, in the order the help
#: lists them.  The module holds the handler ``cmd_<command>``, which returns
#: ``(config_echo, results, exit_code)``; see :func:`~cauchycert.reports.build_report`.
COMMANDS = {
    "axioms": ("cli", "sampled metric axiom checks"),
    "check": ("cli", "decay + witness search + oracle"),
    "certify": ("cli", "full certification over the delta grid"),
    "solve": ("cli", "certified fixed-point iteration"),
    "counterexample": ("cli", "canned non-Cauchy regression"),
    "list": ("entry", "registered metrics, generators, contractions"),
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
        module, _ = COMMANDS[args.command]
        handler = getattr(importlib.import_module(f".{module}", __package__), f"cmd_{args.command}")
        config_echo, results, exit_code = handler(args)
        seed = config_echo.get("parameters", {}).get("seed", 0)  # list echoes no config
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
