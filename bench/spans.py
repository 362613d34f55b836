"""Outside-in spans around the public functions of each cauchycert layer.

Run as a script, this module is the traced child of the benchmark:

    python bench/spans.py STATS.json <cauchycert arguments...>

It imports ``cauchycert`` from ``PYTHONPATH``, wraps the functions listed in
``TARGETS``, calls ``cauchycert.cli.main`` in-process with the given
arguments (the report goes to stdout, exactly as for ``python -m
cauchycert``), and writes every span to STATS.json.  Nothing inside the
package is edited: callers import functions by name (``cli`` holds
``certify_cauchy``, ``certificates`` holds ``check_shift_contraction``,
``config`` holds ``iterate``, ...), so a wrapped function is rebound in every
``cauchycert`` module that holds it, and methods are wrapped on their class.

``aggregate`` turns spans into the per-layer metrics.  A target that no
longer exists is reported as missing and its metrics are left out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: The six certificate stages, in replay order.
STAGES = (
    "consecutive_decay",
    "shift_contraction",
    "settling_index",
    "chain_bounds",
    "block_induction",
    "pair_scan",
)


@dataclass(frozen=True)
class Target:
    name: str  # span name, also the metric prefix
    module: str
    attr: str
    owner: Optional[str] = None  # class holding the method, if any
    attrs: Optional[Callable[[tuple, object], dict]] = None  # (args, result) -> span attributes


def _certify_attrs(args, outcome) -> dict:
    cert = outcome.certificate
    t = 0 if cert is None else cert.length - cert.range_start
    return {
        "length": len(args[0]),
        "certified": outcome.certified,
        "stage": outcome.failure_stage,
        "pairs": t * (t + 1) // 2,  # the pair scan covers T(T + 1) / 2 pairs, T = N - range_start
    }


TARGETS = (
    Target("metrics.matrix", "cauchycert.metrics", "matrix", owner="DbMetric",
           attrs=lambda args, m: {"entries": int(m.size)}),
    Target("config.sequence", "cauchycert.config", "sequence", owner="Experiment"),
    Target("sequences.search_witness", "cauchycert.sequences", "search_witness",
           attrs=lambda args, r: {"found": r.witness is not None}),
    Target("sequences.check_shift_contraction", "cauchycert.sequences", "check_shift_contraction",
           attrs=lambda args, r: {"pairs_checked": r.pairs_checked, "holds": r.holds}),
    Target("sequences.tail_diameter", "cauchycert.sequences", "tail_diameter"),
    Target("sequences.check_consecutive_decay", "cauchycert.sequences", "check_consecutive_decay"),
    Target("certificates.certify_cauchy", "cauchycert.certificates", "certify_cauchy",
           attrs=_certify_attrs),
    Target("certificates.find_settling_index", "cauchycert.certificates", "find_settling_index"),
    Target("certificates.run_block_induction", "cauchycert.certificates", "run_block_induction"),
    Target("contractions.solve_fixed_point", "cauchycert.contractions", "solve_fixed_point"),
    Target("contractions.iterate", "cauchycert.contractions", "iterate"),
    Target("reports.build_report", "cauchycert.reports", "build_report"),
    Target("reports.dump_report", "cauchycert.reports", "dump_report",
           attrs=lambda args, text: {"bytes": len(text.encode())}),
    Target("cli.main", "cauchycert.cli", "main"),
)


class Recorder:
    """Spans kept in memory: [name, parent index, start, end, attributes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, attrs=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4]["error"] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[4].update(attrs(args, result))
            return result

        return traced


def install(recorder: Recorder) -> tuple[list[str], list[str]]:
    """Wrap every target; returns (wrapped names, missing names)."""
    import cauchycert.cli  # noqa: F401  (imports every layer module)

    modules = [m for key, m in sys.modules.items() if key == "cauchycert" or key.startswith("cauchycert.")]
    wrapped, missing = [], []
    for t in TARGETS:
        holder = sys.modules.get(t.module)
        if holder is not None and t.owner is not None:
            holder = getattr(holder, t.owner, None)
        original = getattr(holder, t.attr, None)
        if not callable(original):
            missing.append(t.name)
            continue
        replacement = recorder.wrap(t.name, original, t.attrs)
        if t.owner is not None:
            setattr(holder, t.attr, replacement)
        else:
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, replacement)
        wrapped.append(t.name)
    return wrapped, missing


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate(spans: list[list], wrapped: list[str]) -> dict[str, float]:
    """Per-layer metrics from one or more traced commands' spans.

    A layer's self time is its spans' duration minus the time covered by
    their direct child spans.
    """
    dur = [end - start for _, _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, parent, *_rest) in enumerate(spans):
        if parent is not None:
            child_time[parent] += dur[i]
    by_name: dict[str, list[int]] = {name: [] for name in wrapped}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def total(name: str) -> float:
        return sum(dur[i] for i in by_name[name])

    def self_time(name: str) -> float:
        return sum(dur[i] - child_time[i] for i in by_name[name])

    def attr_sum(name: str, key: str) -> int:
        return sum(spans[i][4].get(key, 0) for i in by_name[name])

    m: dict[str, float] = {}
    have = set(wrapped)
    if "metrics.matrix" in have:
        m["metrics.matrix.calls"] = len(by_name["metrics.matrix"])
        m["metrics.matrix.s"] = total("metrics.matrix")
        m["metrics.matrix.entries"] = attr_sum("metrics.matrix", "entries")
    if "config.sequence" in have:
        m["config.sequence.s"] = total("config.sequence")
    name = "sequences.search_witness"
    if name in have:
        calls = len(by_name[name])
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = total(name)
        m[f"{name}.found_ratio"] = _ratio(attr_sum(name, "found"), calls)
    name = "sequences.check_shift_contraction"
    if name in have:
        calls = len(by_name[name])
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = total(name)
        m[f"{name}.pairs_checked"] = attr_sum(name, "pairs_checked")
        m[f"{name}.holds_ratio"] = _ratio(attr_sum(name, "holds"), calls)
    if "sequences.tail_diameter" in have:
        m["sequences.tail_diameter.calls"] = len(by_name["sequences.tail_diameter"])
        m["sequences.tail_diameter.s"] = total("sequences.tail_diameter")
    if "sequences.check_consecutive_decay" in have:
        m["sequences.check_consecutive_decay.s"] = total("sequences.check_consecutive_decay")
    name = "certificates.certify_cauchy"
    if name in have:
        calls = len(by_name[name])
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = total(name)
        m[f"{name}.certified_ratio"] = _ratio(attr_sum(name, "certified"), calls)
        m[f"{name}.self_s"] = self_time(name)
        m["certificates.pair_scan.pairs"] = attr_sum(name, "pairs")
        for stage in STAGES:
            m[f"certificates.failed.{stage}"] = sum(
                1 for i in by_name[name] if spans[i][4].get("stage") == stage
            )
    for name in ("certificates.find_settling_index", "certificates.run_block_induction",
                 "contractions.iterate", "reports.build_report", "reports.dump_report"):
        if name in have:
            m[f"{name}.s"] = total(name)
    if "reports.dump_report" in have:
        m["reports.bytes"] = attr_sum("reports.dump_report", "bytes")
    name = "contractions.solve_fixed_point"
    if name in have:
        m[f"{name}.s"] = total(name)
        m[f"{name}.self_s"] = self_time(name)
        if "certificates.certify_cauchy" in have:
            m.update(_solver_counts(spans, by_name))
    if "cli.main" in have:
        m["cli.main.s"] = total("cli.main")
        m["cli.main.self_s"] = self_time("cli.main")
    return m


def _solver_counts(spans: list[list], by_name: dict[str, list[int]]) -> dict[str, float]:
    """Certify attempts under each solve, and the prefix length at its last one."""
    solves = set(by_name["contractions.solve_fixed_point"])
    last_length: dict[int, int] = {}
    attempts = 0
    for i in by_name["certificates.certify_cauchy"]:
        parent = spans[i][1]
        while parent is not None and parent not in solves:
            parent = spans[parent][1]
        if parent is not None:
            attempts += 1
            last_length[parent] = spans[i][4].get("length", 0)
    solved = sum(1 for i in solves if "error" not in spans[i][4])
    name = "contractions.solve_fixed_point"
    return {
        f"{name}.iterations": sum(last_length.values()),
        f"{name}.certify_attempts": attempts,
        f"{name}.useful_ratio": _ratio(solved, attempts),
    }


def main(argv: list[str]) -> int:
    stats_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    wrapped, missing = install(recorder)
    from cauchycert import cli

    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump({"spans": recorder.spans, "wrapped": wrapped, "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
