"""Experiment getters: a setting a config leaves out takes the library default.
The CSV reader agrees with the text-mode reader it replaced."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchycert import ConfigError, Point, SamplerConfig, SearchConfig, SolverConfig, TailConfig
from cauchycert.config import make_experiment, read_csv_points

from oracles import text_mode_read_csv_points


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


def test_the_solver_reads_only_the_tail_eps():
    exp = make_experiment(
        {"parameters": {"tail": {"tau": 0.25, "eps": 0.125}, "solver": {"target_delta": 0.5}}}
    )
    assert exp.solver() == (SolverConfig(eps=0.125), Point(0.0), 0.5)


def _outcome(read, path: str, header: bool):
    try:
        return read(path, header)
    except ConfigError as exc:
        return str(exc)


#: CSV fragments: numbers, separators, every line ending text mode knows, the
#: line breaks it does not split at (NEL, U+2028, \v, \f), a byte-order mark,
#: a byte that is never UTF-8 and a truncated sequence.
_CSV_PIECES = [
    b"1", b"0.5", b"-2", b"e", b"9", b"nan", b"inf", b"x", b",", b" ", b"\t",
    b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\xc2\x85", b"\xe2\x80\xa8",
    b"\xef\xbb\xbf", b"\xff", b"\xc3",
]


@settings(max_examples=300, deadline=None)
@given(data=st.lists(st.sampled_from(_CSV_PIECES), max_size=30).map(b"".join), header=st.booleans())
@example(data=b"\xef\xbb\xbf1\r0.5\r\n\n0.25\n", header=False)
@example(data=b"x\n1, 1e999\n0.5, 0\n", header=True)
def test_csv_reader_matches_text_mode(tmp_path_factory, data, header):
    path = tmp_path_factory.mktemp("csv") / "pts.csv"
    path.write_bytes(data)
    try:
        expected = _outcome(text_mode_read_csv_points, str(path), header)
    except UnicodeDecodeError:
        # Text I/O names no line; the reader refuses the file all the same.
        assert isinstance(_outcome(read_csv_points, str(path), header), str)
        return
    got = _outcome(read_csv_points, str(path), header)
    if isinstance(got, str) and ": non-finite value " in got:
        # The old reader passed the value on; it failed later, or not at all.
        assert isinstance(expected, str) or not all(map(math.isfinite, sum(expected, [])))
    else:
        assert got == expected
