"""Experiment getters: a setting a config leaves out takes the library default."""

from __future__ import annotations

import pytest

from cauchycert import Point, SamplerConfig, SearchConfig, SolverConfig, TailConfig
from cauchycert.config import make_experiment


@pytest.mark.parametrize("sections", [{}, {"search": {}, "axioms": {}, "tail": {}}])
def test_empty_sections_give_the_library_defaults(sections):
    exp = make_experiment({"parameters": {**sections, "solver": {"target_delta": 0.5}}})
    assert exp.search() == SearchConfig()
    assert exp.sampler() == SamplerConfig()
    assert exp.tail() == TailConfig()
    assert exp.solver() == (SolverConfig(), Point(0.0), 0.5)


def test_a_partial_section_keeps_the_other_defaults():
    exp = make_experiment(
        {
            "parameters": {
                "seed": 7,
                "search": {"p_max": 3, "n0_values": [2, 5]},
                "axioms": {"box": [1, 2], "pair_count": 9},
                "solver": {"target_delta": 0.5, "lambda": 0.25, "x0": [1.0, 2.0]},
            }
        }
    )
    assert exp.search() == SearchConfig(p_max=3, n0_values=(2, 5))
    assert exp.sampler() == SamplerConfig(pair_count=9, seed=7, box_low=1.0, box_high=2.0)
    assert exp.solver() == (SolverConfig(lam=0.25, seed=7), Point([1.0, 2.0]), 0.5)
