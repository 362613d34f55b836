"""cauchycert benchmark: three CLI workloads, end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload certify_orbit --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics.  Every command runs in a fresh
``python -m cauchycert`` process, one at a time; a pass runs the workload's
commands once, and passes repeat while another fits in ``--seconds``.  Wall
time, CPU time and peak RSS come from each child's own rusage
(``os.wait4``).  ``setup_s`` is the median wall time of fresh
``cauchycert list --no-timestamp`` processes.

``--trace 1`` runs each pass twice: untraced, then through ``bench/spans.py``,
which calls ``cauchycert.cli.main`` in-process with the layer functions
wrapped.  The spans become the per-layer metrics; their counts are
cross-checked against the reports.  Every execution of a command, traced or
not, must give the same report bytes, so tracing cannot change behaviour
unnoticed.

Every report is checked against an independent numpy computation (see
``workloads.py``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; names and units of
the metrics come from ``BENCHMARK.json``.  A human-readable summary goes to
stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from spans import aggregate
from workloads import WORKLOADS, Command

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Fresh `list` processes per run for setup_s (at least).
SETUP_RUNS = 7
SETUP_ARGV = ["list", "--no-timestamp"]
#: A child still running after this many seconds is killed.
CHILD_TIMEOUT = 150.0


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: bytes

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.out).hexdigest()


class Runner:
    """Starts one child at a time in the work directory and accounts for it."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        src = os.path.join(root, "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not old else src + os.pathsep + old)

    def run(self, argv: list[str]) -> Child:
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.workdir, env=self.env, stdout=out, stderr=err
            )
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            text = fh.read()
        if code != 0:
            with open(err_path, "rb") as fh:
                tail = fh.read()[-2000:].decode(errors="replace")
            print(f"bench: {' '.join(argv)} exited with {code}:\n{tail}", file=sys.stderr)
        return Child(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            code=code,
            out=text,
        )

    def cli(self, args: list[str]) -> Child:
        return self.run(["-m", "cauchycert", *args])

    def traced(self, args: list[str]) -> tuple[Child, dict]:
        stats_path = os.path.join(self.workdir, "spans.json")
        if os.path.exists(stats_path):
            os.remove(stats_path)
        child = self.run([os.path.join(BENCH_DIR, "spans.py"), stats_path, *args])
        try:
            with open(stats_path) as fh:
                stats = json.load(fh)
        except (OSError, ValueError):
            stats = {"spans": [], "wrapped": [], "missing": []}
        return child, stats


#: Verdicts from best to worst; an operation keeps its worst verdict.
RANK = {"ok": 0, "failed": 1, "wrong": 2}


@dataclass
class Tally:
    """Operation verdicts, one per operation of each command.

    A command runs several times in one run (every pass, traced or not) on
    the same inputs.  Its operations are counted once, with the worst verdict
    any execution gave, so ``attempted`` and ``failed`` depend on the seed
    alone and not on how many passes fit in the time.  ``flags`` counts
    problems that make the run incorrect without being an operation's
    verdict: a trace that disagrees with its report, or two executions of one
    command whose exit codes or report bytes differ.
    """

    schema: dict
    flags: int = 0
    verdicts: dict[str, list[str]] = field(default_factory=dict)
    outputs: dict[str, set] = field(default_factory=dict)
    _cache: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.verdicts.values())

    @property
    def failed(self) -> int:
        return sum(x != "ok" for v in self.verdicts.values() for x in v)

    @property
    def wrong(self) -> int:
        return sum(x == "wrong" for v in self.verdicts.values() for x in v)

    def report(self, cmd: Command, child: Child):
        """Record the command's verdicts; returns the parsed report or None."""
        key = (cmd.label, child.code, child.sha256)
        if key not in self._cache:
            self._cache[key] = self._judge(cmd, child)
        verdicts, report = self._cache[key]
        self.outputs.setdefault(cmd.label, set()).add((child.code, child.sha256))
        seen = self.verdicts.get(cmd.label, verdicts)
        self.verdicts[cmd.label] = [max(a, b, key=RANK.__getitem__) for a, b in zip(seen, verdicts)]
        return report

    def _judge(self, cmd: Command, child: Child):
        wrong = ["wrong"] * cmd.ops
        if child.code != 0:
            return wrong, None
        try:
            report = json.loads(child.out)
            jsonschema.validate(report, self.schema)
        except (ValueError, jsonschema.ValidationError) as exc:
            print(f"bench: {cmd.label}: invalid report: {exc}", file=sys.stderr)
            return wrong, None
        try:
            verdicts = cmd.check(report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            print(f"bench: {cmd.label}: unexpected report shape: {exc!r}", file=sys.stderr)
            return wrong, report
        if len(verdicts) != cmd.ops:
            return wrong, report
        for i, v in enumerate(verdicts):
            if v != "ok":
                print(f"bench: {cmd.label}: operation {i} {v}", file=sys.stderr)
        return verdicts, report

    def check_stable(self, commands: list[Command]):
        for cmd in commands:
            if len(self.outputs[cmd.label]) > 1:
                self.flag(cmd, "executions on the same inputs gave different reports")

    def flag(self, cmd: Command, what: str):
        print(f"bench: {cmd.label}: {what}", file=sys.stderr)
        self.flags += 1


def end_to_end(runner: Runner, commands: list[Command], seconds: float, tally: Tally) -> dict:
    # One setup sample before every pass, so that setup and passes see the
    # same machine load; the rest follow the last pass.
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setup.append(runner.cli(SETUP_ARGV).wall)
        children = [runner.cli(cmd.argv) for cmd in commands]
        for cmd, child in zip(commands, children):
            tally.report(cmd, child)
        passes.append(
            {
                "wall_s": sum(c.wall for c in children),
                "cpu_s": sum(c.cpu for c in children),
                "peak_rss_mb": max(c.rss_mb for c in children),
            }
        )
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    setup += [runner.cli(SETUP_ARGV).wall for _ in range(SETUP_RUNS - len(setup))]
    tally.check_stable(commands)
    values = medians(passes)
    values["setup_s"] = statistics.median(setup)
    print(f"bench: {len(passes)} passes, {len(setup)} setup runs", file=sys.stderr)
    return values


def traced(runner: Runner, commands: list[Command], seconds: float, tally: Tally) -> dict:
    passes, missing = [], set()
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain = [runner.cli(cmd.argv) for cmd in commands]
        runs = [runner.traced(cmd.argv) for cmd in commands]
        spans, wrapped = [], {}
        for cmd, child, (tchild, stats) in zip(commands, plain, runs):
            report = tally.report(cmd, child)
            tally.report(cmd, tchild)
            if report is not None:
                cross_check(cmd, report, aggregate(stats["spans"], stats["wrapped"]), tally)
            missing.update(stats["missing"])
            wrapped.update(dict.fromkeys(stats["wrapped"]))
            offset = len(spans)
            spans.extend(
                [n, None if p is None else p + offset, s, e, a] for n, p, s, e, a in stats["spans"]
            )
        values = aggregate(spans, list(wrapped))
        values["trace.overhead_s"] = sum(c.wall for c, _ in runs) - sum(c.wall for c in plain)
        passes.append(values)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    for name in sorted(missing):
        print(f"bench: {name} no longer exists; its metrics are absent", file=sys.stderr)
    tally.check_stable(commands)
    return medians(passes)


def medians(passes: list[dict]) -> dict:
    keys = dict.fromkeys(k for p in passes for k in p)
    return {k: statistics.median(p[k] for p in passes if k in p) for k in keys}


def cross_check(cmd: Command, report: dict, layer: dict, tally: Tally) -> None:
    """Span counts must agree with the counts the report implies."""
    for name, expected in cmd.expected(report).items():
        if name in layer and layer[name] != expected:
            tally.flag(cmd, f"trace saw {name} = {layer[name]}, the report implies {expected}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    schema_path = os.path.join(root, "src", "cauchycert", "report_schema.json")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "cauchycert", "cli.py"))
            and os.path.isfile(schema_path) and os.path.isfile(spec_path)):
        print("bench: run from the repository root (need src/cauchycert and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    with open(schema_path) as fh:
        tally = Tally(schema=json.load(fh))
    with open(spec_path) as fh:
        spec = json.load(fh)

    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        commands = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        runner = Runner(root, workdir)
        if args.trace:
            values = traced(runner, commands, args.seconds, tally)
            values["checks.fail_ratio"] = tally.failed / tally.attempted
            wanted = spec["per_layer"]
        else:
            values = end_to_end(runner, commands, args.seconds, tally)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            print(f"bench: metric {m['name']} is absent", file=sys.stderr)
    for label, outputs in tally.outputs.items():
        hashes = " ".join(sorted(sha for _, sha in outputs))
        print(f"bench: report sha256 {label}: {hashes}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"bench: {name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"bench: {tally.attempted} operations, {tally.failed} failed, {tally.wrong} wrong, "
          f"{tally.flags} other problems", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0 and tally.flags == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
