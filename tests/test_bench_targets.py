"""The benchmark's trace targets still name callables in the package.

``bench/spans.py`` reports a target it cannot find as missing and leaves its
metrics out, so a renamed function would silently drop that layer's numbers.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
