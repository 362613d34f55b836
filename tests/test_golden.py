"""Golden reports: the CLI's ``--no-timestamp`` output, byte for byte.

Each case runs one command on a fixed config and compares stdout with
``tests/golden/<name>.json``.  The data are dyadic (the axiom samples are
snapped to dyadic rationals, and the counterexamples they report are grid
points) and the metrics need only exact IEEE operations (differences,
absolute values, squares of dyadic values, maxima), so the bytes should not
depend on the numpy version; they were checked under numpy 2.4.6.  Together
the cases reach every gated stage of the replay: ``certify`` fails once at
each of them and certifies once, ``solve`` certifies once and stops once on a
mid-run ``ContractionError``.  The rest cover the other shapes a report takes:
``axioms`` with each kind of counterexample and a null estimate, ``list``, a
``check`` whose search is null and a ``certify`` with no witness.

Regenerate the files (only when a report is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from cauchycert import STAGES
from cauchycert.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

HALVING = [2.0**-n for n in range(1, 41)]


def _certify(values, metric, delta, p, lam, n0=1):
    return {
        "metric": metric,
        "source": {"inline": values},
        "parameters": {
            "witness": {"p": p, "lambda": lam, "n0": n0},
            "delta_grid": {"values": [delta]},
        },
    }


#: name -> (command, config or None)
CASES = {
    "certify_shift_contraction": (
        "certify", _certify(HALVING, {"name": "euclid_1d"}, 0.125, 1, 0.375),
    ),
    "certify_settling_index": (
        "certify", _certify([float(k) for k in range(1, 21)], {"name": "euclid_1d"}, 0.5, 1, 0.5),
    ),
    # sq_abs under an understated s = 1: two halving steps break the chain.
    "certify_chain_bounds": (
        "certify", _certify([2.0**-k for k in range(12)], {"name": "sq_abs", "s": 1.0}, 0.125, 2, 0.5),
    ),
    # Steps of 0.625**2 pass the settling scan under s = 1; two span 1.25**2 > delta.
    "certify_block_induction": (
        "certify", _certify([0.625 * k for k in range(12)], {"name": "sq_abs", "s": 1.0}, 1.0, 1, 0.5),
    ),
    "certify_pair_scan": (
        "certify",
        _certify(
            [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.0078125, 0.0, 0.0, 0.0, -0.03125, 0.0, 0.03125],
            {"name": "euclid_1d"}, 0.125, 3, 0.5,
        ),
    ),
    # The witness search on a dislocated metric: positive self-distances
    # take the band branch of the induction.
    "certify_certified": (
        "certify",
        {
            "metric": {"name": "max_dislocated"},
            "source": {"inline": HALVING},
            "parameters": {"delta_grid": {"values": [0.5, 0.125, 0.03125]}},
        },
    ),
    "check": (
        "check",
        {
            "metric": {"name": "shifted_dislocated", "params": {"offset": 0.25}},
            "source": {"inline": [1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.125, -0.125] * 3},
            "parameters": {"delta_grid": {"values": [2.0, 0.5]}},
        },
    ),
    "solve_certified": (
        "solve",
        {
            "metric": {"name": "euclid_1d"},
            "parameters": {
                "contraction": {"name": "halving"},
                "solver": {"target_delta": 0.0625, "x0": 1.0},
            },
        },
    ),
    # Outside [0, 1] the damped logistic map expands: x0 = 3 gives -3, -6,
    # -21, ..., all integers, and the step ratio 15 / 3 exceeds c = 0.5.
    "solve_contraction_error": (
        "solve",
        {
            "metric": {"name": "euclid_1d"},
            "parameters": {
                "contraction": {"name": "logistic_damped", "params": {"r": 0.5}},
                "solver": {"target_delta": 0.0625, "x0": 3.0, "block": 8},
            },
        },
    ),
    "counterexample": ("counterexample", None),
    # No witness on the search grid: steps of 0.25 in a band of 17/64 are
    # triggered, and a shift keeps them at 0.25, above 17/64 * 0.9.
    "certify_no_witness": (
        "certify",
        {
            "metric": {"name": "euclid_1d"},
            "source": {"inline": [0.25 * k for k in range(12)]},
            "parameters": {"delta_grid": {"values": [0.265625]}},
        },
    ),
    # Three points leave no shift for the n0 grid {1}: the search is null.
    "check_too_short": (
        "check",
        {
            "metric": {"name": "euclid_1d"},
            "source": {"inline": [1.0, 0.5, 0.25]},
            "parameters": {"delta_grid": {"values": [0.5]}},
        },
    ),
    # x < y is at distance 0 one way and not the other: both pair checks
    # fail.  max(x - z, 0) never exceeds the sum of the legs, so s = 1 holds.
    "axioms_broken_asym": (
        "axioms",
        {
            "metric": {"name": "broken_asym"},
            "parameters": {"axioms": {"pair_count": 8, "triple_count": 8}},
        },
    ),
    # On a box of 5 * 2**-17 the triple (0, 2**-17, 5 * 2**-17) has squared
    # legs that sum to within tolerance of zero and a squared direct distance
    # beyond it: no s holds, and the estimate is null.  Points 2**-17 apart
    # are also at distance within tolerance of zero.
    "axioms_sq_abs_no_s": (
        "axioms",
        {
            "metric": {"name": "sq_abs"},
            "parameters": {
                "axioms": {"box": [0.0, 5 * 2.0**-17], "grid_points": 6,
                           "pair_count": 8, "triple_count": 8},
            },
        },
    ),
    # sq_abs under an understated s = 1: a midpoint triple violates it.
    "axioms_sq_abs_s1": (
        "axioms",
        {
            "metric": {"name": "sq_abs", "s": 1.0},
            "parameters": {"axioms": {"pair_count": 8, "triple_count": 8}},
        },
    ),
    "list": ("list", None),
}


def _run(name: str, tmp: Path) -> str:
    command, config = CASES[name]
    argv = [command, "--no-timestamp"]
    if config is not None:
        path = tmp / f"{name}.config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (name, code)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(name, tmp_path):
    assert _run(name, tmp_path) == (GOLDEN / f"{name}.json").read_text()


def test_certify_goldens_fail_at_every_stage_and_list_no_other():
    failed, listed = set(), set()
    for path in GOLDEN.glob("certify_*.json"):
        for entry in json.loads(path.read_text())["results"]["per_delta"]:
            if entry["outcome"] is not None:
                if entry["outcome"]["failure"] is not None:
                    failed.add(entry["outcome"]["failure"]["stage"])
                listed |= {s["stage"] for s in entry["outcome"]["stages"]}
    assert failed == listed == set(STAGES)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.json").write_text(_run(name, Path(tmp)))
            print(name, file=sys.stderr)
