"""The benchmark's trace targets still name callables in the package.

``bench/spans.py`` reports a target it cannot find as missing and leaves its
metrics out, so a renamed function, or a module that ``import cauchycert.cli``
no longer loads, would silently drop that layer's numbers.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t.name)
def test_target_resolves_to_a_callable(target):
    holder = importlib.import_module(target.module)
    if target.owner is not None:
        holder = getattr(holder, target.owner)
    assert callable(getattr(holder, target.attr, None))


def test_install_wraps_every_target_in_a_fresh_interpreter():
    # Inside pytest every module is loaded already; the benchmark's traced
    # runs have only what ``import cauchycert.cli`` loads.
    script = (
        "import json, spans\n"
        "wrapped, missing = spans.install(spans.Recorder())\n"
        "print(json.dumps([wrapped, missing, [t.name for t in spans.TARGETS]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script],
        cwd=SPANS.parent, env=env, capture_output=True, text=True, check=True,
    )
    wrapped, missing, names = json.loads(proc.stdout)
    assert missing == []
    assert wrapped == names
