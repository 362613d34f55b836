"""Shared fixtures and the acceptance-criteria summary section."""

from __future__ import annotations

import pytest

from cauchycert import Point, SequencePrefix, iterate, make_contraction, make_metric

#: Lines recorded by the acceptance suite, echoed in the terminal summary so a
#: plain ``pytest`` run still shows one pass/fail line per criterion.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def criterion():
    """Record one pass/fail line for an acceptance criterion, then assert it."""

    def record(num: int, description: str, ok: bool, detail: str = ""):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}"
        if detail:
            line += f" ({detail})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture(scope="session")
def euclid():
    return make_metric("euclid_1d")


@pytest.fixture(scope="session")
def halving_orbit(euclid):
    """x_n = 2**-n for n = 1..60 (iterates of x/2 from seed 1.0)."""
    return iterate(make_contraction("halving"), Point(1.0), 60, euclid)


@pytest.fixture(scope="session")
def linear_prefix(euclid):
    """x_n = n for n = 1..50: steps never decay, diameter grows with N."""
    return SequencePrefix([float(k) for k in range(1, 51)], euclid)
