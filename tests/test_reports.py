"""The report types as JSON: the one serializer, and its keys against the schema."""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cauchycert import (
    DivergenceError,
    Point,
    SamplerConfig,
    certify_cauchy,
    check_consecutive_decay,
    make_contraction,
    make_metric,
    run_axiom_report,
    search_witness,
    solve_fixed_point,
)
from cauchycert.metrics import to_json
from cauchycert.reports import load_schema, validate_report

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def reports(halving_orbit, euclid):
    """One instance of each report type, by the schema ``$def`` it serializes to."""
    search = search_witness(halving_orbit, 0.25)
    outcome = certify_cauchy(halving_orbit, search.witness)
    return {
        "witness": search.witness,
        "consecutive_decay": check_consecutive_decay(halving_orbit),
        "shift_contraction": search.report,
        "witness_search": search,
        "certificate": outcome.certificate,
        "outcome": outcome,
        "axioms_results": run_axiom_report(
            make_metric("sq_abs"), SamplerConfig(pair_count=8, triple_count=8)
        ),
        "solve_result": solve_fixed_point(make_contraction("halving"), euclid, Point(1.0), 0.0625),
    }


@pytest.mark.parametrize(
    "name",
    ["witness", "consecutive_decay", "shift_contraction", "witness_search",
     "certificate", "outcome", "axioms_results", "solve_result"],
)
def test_serialized_keys_are_the_schema_properties(reports, name):
    definition = load_schema()["$defs"][name]
    assert set(reports[name].to_dict()) == set(definition["properties"])
    assert set(definition["required"]) == set(definition["properties"])


def test_chain_bounds_are_pairs_that_serialize_as_objects(reports):
    cert = reports["certificate"]
    assert cert.chain_bounds[0] == (0, cert.chain_bounds[0].bound)
    assert to_json(cert)["chain_bounds"] == [
        {"q": q, "bound": bound} for q, bound in cert.chain_bounds
    ]


def test_fields_are_renamed_by_their_metadata(reports):
    outcome = reports["outcome"].to_dict()
    assert outcome["certificate"]["witness"]["lambda"] == reports["witness"].lam
    assert outcome["consecutive_decay"] == reports["consecutive_decay"].to_dict()
    assert outcome["shift_contraction"] == reports["shift_contraction"].to_dict()
    assert reports["axioms_results"].to_dict()["metric"] == "sq_abs"


def test_points_and_tuples_become_lists():
    value = {"point": Point([1.0, 2.0]), "pair": (3, 4)}
    assert to_json(value) == {"point": [1.0, 2.0], "pair": [3, 4]}


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
def test_a_non_finite_float_is_an_internal_error(bad):
    with pytest.raises(DivergenceError, match="JSON cannot hold"):
        to_json({"per_delta": [{"bound": bad}]})


def _objects(value, path=()):
    """Every JSON object in a report, outside the config echo, which stays open."""
    if isinstance(value, dict):
        yield value
        for key, item in value.items():
            if path or key != "config":
                yield from _objects(item, path + (key,))
    elif isinstance(value, list):
        for item in value:
            yield from _objects(item, path)


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.stem)
def test_schema_refuses_a_key_more_in_any_object(golden):
    # Covers an extra key in a certify report's per-delta entry and in its certificate.
    report = json.loads(golden.read_text())
    validate_report(report)
    for obj in _objects(report):
        obj["unexpected"] = 0
        with pytest.raises(jsonschema.ValidationError):
            validate_report(report)
        del obj["unexpected"]


def test_list_results_are_checked():
    report = json.loads((GOLDEN / "list.json").read_text())
    report["results"] = {"metrics": 5}
    with pytest.raises(jsonschema.ValidationError):
        validate_report(report)
