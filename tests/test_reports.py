"""The report types as JSON: the one serializer, and its keys against the schema."""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cauchycert import metrics
from cauchycert.reports import (
    _KEYWORDS,
    _SKIPPED,
    JsonReport,
    SchemaError,
    _Validator,
    load_schema,
    to_json,
    validate_report,
)

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
    keys = set(reports[name].to_dict())
    if name == "solve_result":
        keys.add("solved")  # the `solve` command puts it next to the result's keys
    assert keys == set(definition["properties"])
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
    assert outcome["shift_contraction"] == reports["shift_contraction"].to_dict()
    assert reports["axioms_results"].to_dict()["metric"] == "sq_abs"


def test_points_and_tuples_become_lists():
    value = {"point": Point([1.0, 2.0]), "pair": (3, 4)}
    assert to_json(value) == {"point": [1.0, 2.0], "pair": [3, 4]}


def test_a_point_serializes_through_the_report_hook():
    # Point keeps its slots, and metrics still exports the serializer.
    point = Point([1.0, 2.0])
    assert isinstance(point, JsonReport) and not hasattr(point, "__dict__")
    assert point.json_items() == [1.0, 2.0]
    assert (metrics.to_json, metrics.JsonReport) == (to_json, JsonReport)


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
        with pytest.raises(SchemaError):
            validate_report(report)
        del obj["unexpected"]


def test_list_results_are_checked():
    report = json.loads((GOLDEN / "list.json").read_text())
    report["results"] = {"metrics": 5}
    with pytest.raises(SchemaError):
        validate_report(report)


# ---------------------------------------------------------------------------
# The in-package validator against jsonschema, its oracle
# ---------------------------------------------------------------------------

ORACLE = jsonschema.Draft202012Validator(load_schema())

#: What each node of a golden is set to: every JSON kind, the integral and
#: boolean corner cases of `type`, and the schema's bounds 0 and 1.
REPLACEMENTS = [
    None, True, False, 0, 1, -1, 0.0, -0.0, 1.0, 1.5, -1.5, 2**70, 1e308, -1e308,
    "", "x", "certify", [], [1], [0.5, 2], {}, {"a": 1},
]


def _refused(report) -> bool:
    try:
        validate_report(report)
    except SchemaError:
        return True
    return False


def _nodes(value, path=()):
    """The path of every value in a JSON document, root first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nodes(item, path + (index,))


def _at(report, path):
    for key in path:
        report = report[key]
    return report


def test_the_schema_uses_only_implemented_keywords():
    # A keyword the validator does not know would be skipped by nothing and
    # fail with a KeyError; this names it before any report meets it.
    implemented = set(_KEYWORDS) | _SKIPPED
    unknown = set()

    def walk(schema):
        # Every subschema is an object and every `$ref` is local; `false` is
        # the one value of `additionalProperties` that is not an object.
        assert isinstance(schema, dict)
        unknown.update(set(schema) - implemented)
        assert schema.get("$ref", "#/").startswith("#/")
        subschemas = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values()]
        subschemas += schema.get("allOf", []) + schema.get("anyOf", [])
        subschemas += [schema[k] for k in ("items", "if", "then", "else") if k in schema]
        if schema.get("additionalProperties", False) is not False:
            subschemas.append(schema["additionalProperties"])
        for sub in subschemas:
            walk(sub)

    walk(load_schema())
    assert not unknown


def _mutations(report):
    """Mutate the report in place and yield the path of each mutation: every
    node set to each replacement, every node deleted, a key added to every
    object.  Each is undone before the next."""
    for path in list(_nodes(report)):
        node = _at(report, path)
        if isinstance(node, dict):
            node["unexpected"] = 0
            yield path
            del node["unexpected"]
        if not path:
            continue
        holder, key = _at(report, path[:-1]), path[-1]
        for value in REPLACEMENTS:
            holder[key] = value
            yield path
        del holder[key]
        yield path
        if isinstance(holder, dict):
            holder[key] = node
        else:
            holder.insert(key, node)


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.stem)
def test_verdicts_equal_jsonschema_under_mutation(golden):
    report = json.loads(golden.read_text())
    checked = 0
    for path in _mutations(report):
        checked += 1
        assert _refused(report) != ORACLE.is_valid(report), (golden.stem, path, report)
    assert report == json.loads(golden.read_text())
    assert checked > 200


def _unevaluated_schema() -> dict:
    """The shipped schema with `solve` results closed the older way: an open
    `solve_result` without `solved`, an open `else`, and
    `unevaluatedProperties: false` on `solve_results`."""
    schema = load_schema()
    results, result = schema["$defs"]["solve_results"], schema["$defs"]["solve_result"]
    del result["properties"]["solved"], result["additionalProperties"]
    result["required"].remove("solved")
    results["else"] = {"required": ["error"], "properties": {"error": {"type": "string"}}}
    results["unevaluatedProperties"] = False
    return schema


UNEVALUATED = jsonschema.Draft202012Validator(_unevaluated_schema())


# The two schemas differ only under `command: solve`, which no mutation of
# another golden sets: there a missing `command` fails `required` under both.
@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("solve_*.json")), ids=lambda path: path.stem)
def test_closed_objects_give_the_verdicts_of_unevaluated_properties(golden):
    report = json.loads(golden.read_text())
    for path in _mutations(report):
        assert ORACLE.is_valid(report) == UNEVALUATED.is_valid(report), (golden.stem, path, report)


@pytest.mark.parametrize(
    "golden, change",
    [
        ("solve_certified", {"error": "x"}),
        ("solve_contraction_error", {"fixed_point": [1.0]}),
        ("solve_certified", {"solved": False}),
        ("solve_contraction_error", {"solved": True}),
    ],
)
def test_a_solve_result_of_the_other_shape_is_refused(golden, change):
    report = json.loads((GOLDEN / f"{golden}.json").read_text())
    report["results"].update(change)
    assert _refused(report)
    assert not ORACLE.is_valid(report)
    assert not UNEVALUATED.is_valid(report)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3) | st.sampled_from(["certify", "solve", "pair_scan", "cauchycert"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verdicts_equal_jsonschema_on_random_values(data):
    golden = data.draw(st.sampled_from(sorted(GOLDEN.glob("*.json"))), label="golden")
    report = json.loads(golden.read_text())
    paths = [path for path in _nodes(report) if path]
    path = data.draw(st.sampled_from(paths), label="path")
    _at(report, path[:-1])[path[-1]] = data.draw(_JSON, label="value")
    assert _refused(report) != ORACLE.is_valid(report)


def test_a_failed_anyof_reports_the_branch_of_the_values_type():
    report = json.loads((GOLDEN / "certify_certified.json").read_text())
    del report["results"]["per_delta"][2]["outcome"]["certificate"]["oracle_tail_diameter"]
    with pytest.raises(SchemaError) as info:
        validate_report(report)
    assert info.value.message == "'oracle_tail_diameter' is a required property"
    assert info.value.path == ("results", "per_delta", 2, "outcome", "certificate")


@pytest.mark.parametrize(
    "schema, value, valid",
    [
        ({"minimum": 1}, 1, True),
        ({"minimum": 1}, 0.5, False),
        ({"exclusiveMinimum": 0}, 0, False),
        ({"exclusiveMinimum": 0}, 5e-324, True),
        ({"exclusiveMaximum": 1}, 1, False),
        ({"exclusiveMaximum": 1}, 0.5, True),
        ({"minItems": 2}, [1, 2], True),
        ({"minItems": 2}, [1], False),
        ({"maxItems": 2}, [1, 2], True),
        ({"maxItems": 2}, [1, 2, 3], False),
        ({"anyOf": [{"type": "null"}, {"minimum": 0}]}, 0, True),
        ({"anyOf": [{"minimum": 0}, {"type": "null"}]}, None, True),
        ({"anyOf": [{"minimum": 0}, {"type": "null"}]}, -1, False),
        ({"type": "integer"}, 2.0, True),
        ({"type": "integer"}, True, False),
        ({"const": 1}, 1.0, True),
        ({"const": 1}, True, False),
        ({"enum": [[0, 1]]}, [False, True], False),
    ],
)
def test_keywords_at_their_ties(schema, value, valid):
    validator = _Validator(schema)
    if valid:
        validator.check(value)
    else:
        with pytest.raises(SchemaError):
            validator.check(value)
    assert jsonschema.Draft202012Validator(schema).is_valid(value) is valid
