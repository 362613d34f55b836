"""The names of the metrics, generators and contractions, in one numpy-free table.

:func:`documented` answers ``cauchycert list`` from the table alone, and
:func:`factory` imports a kind's module only when a name is built.
"""

from __future__ import annotations

import importlib

from .errors import ContractionError, MetricError

_TERMS = {"n": "number of terms"}

#: kind -> (module, unknown-name error, {name: (factory attribute, parameter docs)}).
#: The parameter docs list the factory's parameters, in its signature's order.
TABLE = {
    "metrics": ("metrics", MetricError, {
        "euclid_1d": ("euclid_1d", {}),
        "euclid_nd": ("euclid_nd", {}),
        "sq_abs": ("sq_abs", {}),
        "max_dislocated": ("max_dislocated", {}),
        "shifted_dislocated": (
            "shifted_dislocated", {"offset": "positive shift added to |x - y| (default 1.0)"}
        ),
        "broken_asym": ("broken_asym", {}),
    }),
    "generators": ("sequences", ValueError, {
        "arithmetic": (
            "arithmetic_sequence",
            _TERMS | {"start": "first term (default 1.0)", "step": "increment (default 1.0)"},
        ),
        "geometric": (
            "geometric_sequence",
            _TERMS | {"start": "first term (default 1.0)", "ratio": "common ratio (default 0.5)"},
        ),
        "constant": ("constant_sequence", _TERMS | {"value": "repeated value (default 1.0)"}),
    }),
    "contractions": ("contractions", ContractionError, {
        "halving": ("halving", {}),
        "affine_1d": ("affine_1d", {"a": "slope, |a| < 1", "b": "intercept (default 0.0)"}),
        "affine_nd": (
            "affine_nd",
            {"matrix": "square matrix as nested lists", "offset": "offset vector", "c": "declared constant"},
        ),
        "logistic_damped": ("logistic_damped", {"r": "damping, 0 < r < 1 (default 0.8)"}),
        "constant": ("constant_map", {"value": "the constant image (scalar or vector)"}),
    }),
}


def factory(kind: str, name: str):
    """The factory registered as ``name`` under ``kind`` (``"metrics"``,
    ``"generators"`` or ``"contractions"``); an unknown name raises the
    kind's error, listing the names it knows."""
    module, error, names = TABLE[kind]
    if name not in names:
        raise error(f"unknown {kind[:-1]} {name!r}; available: {sorted(names)}")
    return getattr(importlib.import_module(f".{module}", __package__), names[name][0])


def documented() -> dict[str, dict[str, dict[str, str]]]:
    """Each kind's names and their parameter docs, as ``list`` reports them."""
    return {
        kind: {name: dict(docs) for name, (_, docs) in names.items()}
        for kind, (_, _, names) in TABLE.items()
    }
