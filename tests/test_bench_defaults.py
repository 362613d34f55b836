"""The benchmark's copies of program defaults agree with the program.

``bench/workloads.py`` recomputes every report from the generated inputs
alone, so it restates the defaults it relies on instead of importing them.
A default changed on one side only would show up as a failed trace count;
these checks name the constant that drifted.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from cauchycert import SearchConfig, SolverConfig, TailConfig, delta_grid, derive_shift, metrics
from cauchycert.sequences import default_n0_grid

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_grid_and_tolerance(workloads):
    assert workloads.DELTAS == delta_grid()
    assert workloads.ETA == metrics.ETA


def test_search_defaults(workloads):
    assert workloads.SEARCH_P_MAX == SearchConfig().p_max
    assert workloads.SEARCH_LAMBDAS == SearchConfig().lambdas


def test_tail_defaults(workloads):
    assert (workloads.TAIL_TAU, workloads.TAIL_EPS) == (TailConfig().tau, TailConfig().eps)


def test_solver_defaults(workloads):
    assert workloads.SOLVE_BLOCK == SolverConfig().block
    assert workloads.SOLVE_LAMBDA == SolverConfig().lam


def test_n0_grid(workloads):
    for n in range(2, 20000):
        assert workloads._n0_grid(n) == list(default_n0_grid(n)), n


def test_solver_shift(workloads):
    for a in workloads.SOLVE_SLOPES:
        assert workloads.solver_shift(a) == derive_shift(a, 0.5, 1.0), a
