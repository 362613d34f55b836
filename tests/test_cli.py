"""End-to-end CLI behaviour: parsing, reports, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchycert import STAGES, contractions
from cauchycert.cli import main
from cauchycert.reports import load_schema, validate_report

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out: str) -> dict:
    report = json.loads(out)
    validate_report(report)
    return report


def write_config(tmp_path, data) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


HALVING_ORBIT_CONFIG = {
    "metric": {"name": "euclid_1d"},
    "source": {"orbit": {"contraction": {"name": "halving"}, "n": 60, "x0": 1.0}},
}

GEOMETRIC_CHECK_CONFIG = {
    "metric": {"name": "euclid_1d"},
    "source": {"generator": {"name": "geometric", "params": {"n": 40}}},
    "parameters": {"seed": 3},
}


class TestListing:
    def test_list_command(self, capsys):
        code, out, _ = run_cli(["list"], capsys)
        assert code == 0
        report = parse_report(out)
        assert report["command"] == "list"
        assert sorted(report["results"]) == ["contractions", "generators", "metrics"]
        assert "euclid_1d" in report["results"]["metrics"]
        assert "halving" in report["results"]["contractions"]

    def test_list_flag_shorthand(self, capsys):
        code, out, _ = run_cli(["--list"], capsys)
        assert code == 0
        assert parse_report(out)["command"] == "list"

    def test_no_command_prints_help(self, capsys):
        code, out, err = run_cli([], capsys)
        assert code == 2
        assert out == ""
        assert "usage" in err.lower()


class TestEnvelope:
    def test_fields_and_versioning(self, capsys):
        code, out, _ = run_cli(["list"], capsys)
        report = parse_report(out)
        assert report["report_version"] == 1
        assert report["tool"]["name"] == "cauchycert"
        assert "timestamp" in report
        assert "timing_seconds" in report

    def test_no_timestamp_drops_timing_too(self, capsys):
        _, out, _ = run_cli(["list", "--no-timestamp"], capsys)
        report = parse_report(out)
        assert "timestamp" not in report
        assert "timing_seconds" not in report

    def test_seed_override_is_echoed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GEOMETRIC_CHECK_CONFIG)
        _, out, _ = run_cli(["check", "--config", cfg, "--seed", "42"], capsys)
        report = parse_report(out)
        assert report["seed"] == 42
        assert report["config"]["parameters"]["seed"] == 42

    def test_out_writes_file_and_keeps_stdout_quiet(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(["list", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        parse_report(target.read_text())

    def test_unwritable_out_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GEOMETRIC_CHECK_CONFIG)
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(["check", "--config", cfg, "--out", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write report {str(target)!r}")
        assert not target.parent.exists()

    def test_schema_stage_names_are_the_stages(self):
        assert tuple(load_schema()["$defs"]["stage"]["enum"]) == STAGES

    def test_schema_is_a_valid_schema(self):
        jsonschema.Draft202012Validator.check_schema(load_schema())


class TestAxioms:
    def test_relaxed_triangle_constant_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"metric": {"name": "sq_abs"}})))
        code, out, _ = run_cli(["axioms", "--config", "-"], capsys)
        assert code == 0
        results = parse_report(out)["results"]
        assert results["estimated_min_s"] == 2.0
        assert results["all_ok"] is True

    def test_understated_s_is_reported_not_fatal(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"metric": {"name": "sq_abs", "s": 1.5}})
        code, out, _ = run_cli(["axioms", "--config", cfg], capsys)
        assert code == 0  # a negative finding is still a completed run
        results = parse_report(out)["results"]
        assert results["triangle_ok"] is False
        assert results["violating_triple"] is not None
        assert results["all_ok"] is False


class TestCheck:
    def test_geometric_sequence_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GEOMETRIC_CHECK_CONFIG)
        code, out, _ = run_cli(["check", "--config", cfg], capsys)
        assert code == 0
        report = parse_report(out)
        assert report["seed"] == 3
        results = report["results"]
        assert sorted(results) == [
            "consecutive_decay",
            "length",
            "per_delta",
            "tail_diameter",
        ]
        assert results["length"] == 40
        assert results["consecutive_decay"]["holds"] is True
        assert results["tail_diameter"] == {
            "from_start": 0.999999999998181,
            "midpoint": 20,
            "from_midpoint": 1.9073468138230965e-06,
        }
        assert len(results["per_delta"]) == 7

    def test_prefix_too_short_for_search_is_a_note(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"metric": {"name": "euclid_1d"}, "source": {"inline": [1.0, 0.5, 0.25]}}
        )
        code, out, _ = run_cli(["check", "--config", cfg], capsys)
        assert code == 0
        results = parse_report(out)["results"]
        assert results["tail_diameter"] == {"from_start": 0.75, "midpoint": 2, "from_midpoint": 0.25}
        for entry in results["per_delta"]:
            assert entry["search"] is None
            assert entry["note"] == "prefix of length 3 is too short for any shift with n0 grid (1,)"

    @pytest.mark.parametrize(
        "path",
        [
            ("consecutive_decay", "first_good_index"),
            ("per_delta", 0, "search", "p_max_used"),
            ("per_delta", 0, "search", "report", "violating_pair"),
            ("tail_diameter", "from_midpoint"),
        ],
    )
    def test_report_validates_results(self, tmp_path, capsys, path):
        cfg = write_config(tmp_path, GEOMETRIC_CHECK_CONFIG)
        _, out, _ = run_cli(["check", "--config", cfg, "--no-timestamp"], capsys)
        report = parse_report(out)
        holder = report["results"]
        for key in path[:-1]:
            holder = holder[key]
        del holder[path[-1]]
        with pytest.raises(jsonschema.ValidationError, match=path[-1]):
            validate_report(report)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GEOMETRIC_CHECK_CONFIG)
        _, first, _ = run_cli(["check", "--config", cfg, "--no-timestamp"], capsys)
        _, second, _ = run_cli(["check", "--config", cfg, "--no-timestamp"], capsys)
        assert first == second

    def test_csv_source_with_header(self, tmp_path, capsys):
        csv = tmp_path / "pts.csv"
        csv.write_text("x\n1\n2\n3\n4\n5\n")
        cfg = write_config(
            tmp_path,
            {"metric": {"name": "euclid_1d"}, "source": {"csv": str(csv)}},
        )
        code, out, _ = run_cli(["check", "--config", cfg, "--header"], capsys)
        assert code == 0
        assert parse_report(out)["results"]["length"] == 5

    def test_overflowing_distance_is_an_error_not_infinity(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "sq_abs"},
                "source": {"inline": [1e200, -1e200, 1e200, -1e200, 1.0, 1.0]},
            },
        )
        code, out, err = run_cli(["check", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert "non-finite distance" in err

    def test_csv_malformed_row_is_config_error(self, tmp_path, capsys):
        csv = tmp_path / "pts.csv"
        csv.write_text("x\n1\n2\n3\n4\n5\n")
        cfg = write_config(
            tmp_path,
            {"metric": {"name": "euclid_1d"}, "source": {"csv": str(csv)}},
        )
        code, out, err = run_cli(["check", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert "malformed row" in err


class TestCertify:
    def test_halving_orbit_over_default_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HALVING_ORBIT_CONFIG)
        code, out, _ = run_cli(["certify", "--config", cfg], capsys)
        assert code == 0
        results = parse_report(out)["results"]
        assert results["length"] == 60
        assert results["all_certified"] is True
        witnesses = [
            (e["witness"]["delta"], e["witness"]["p"], e["witness"]["lambda"], e["witness"]["n0"])
            for e in results["per_delta"]
        ]
        assert witnesses == [
            (0.5, 1, 0.1, 8),
            (0.25, 1, 0.1, 8),
            (0.125, 1, 0.1, 8),
            (0.0625, 1, 0.1, 8),
            (0.03125, 1, 0.1, 8),
            (0.015625, 1, 0.1, 8),
            (0.0078125, 1, 0.1, 15),
        ]
        first = results["per_delta"][0]
        assert first["witness_source"] == "search"
        cert = first["outcome"]["certificate"]
        assert cert["settling_index"] == 8
        assert cert["oracle_tail_diameter"] == 0.0019531249999999991
        assert cert["diameter_bound"] == 0.95

    def test_explicit_witness_failure_still_exits_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "euclid_1d"},
                "source": {"generator": {"name": "arithmetic", "params": {"n": 50}}},
                "parameters": {
                    "witness": {"p": 1, "lambda": 0.5, "n0": 1},
                    "delta_grid": {"values": [0.5]},
                },
            },
        )
        code, out, _ = run_cli(["certify", "--config", cfg], capsys)
        assert code == 0
        results = parse_report(out)["results"]
        assert results["all_certified"] is False
        entry = results["per_delta"][0]
        assert entry["witness_source"] == "explicit"
        assert entry["outcome"]["failure"]["stage"] == "settling_index"

    def test_prefix_too_short_for_explicit_witness(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "euclid_1d"},
                "source": {"inline": [1.0, 0.5, 0.25, 0.125, 0.0625]},
                "parameters": {"witness": {"p": 8}, "delta_grid": {"values": [0.1]}},
            },
        )
        code, out, _ = run_cli(["certify", "--config", cfg], capsys)
        # A too-short prefix is a per-delta result, as on the search path.
        assert code == 0
        results = parse_report(out)["results"]
        assert results["all_certified"] is False
        entry = results["per_delta"][0]
        assert entry["witness_source"] == "explicit"
        assert entry["witness"]["p"] == 8
        assert entry["outcome"] is None
        assert "need N >=" in entry["note"]

    @pytest.mark.parametrize("witness, key", [({"p": True}, "p"), ({"p": 1, "n0": True}, "n0")])
    def test_boolean_witness_setting_is_config_error(self, tmp_path, capsys, witness, key):
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "euclid_1d"},
                "source": {"generator": {"name": "geometric", "params": {"n": 40}}},
                "parameters": {"witness": witness, "delta_grid": {"values": [0.5]}},
            },
        )
        code, out, err = run_cli(["certify", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert f'"parameters.witness.{key}" must be an integer, got True' in err

    def test_report_validates_certificates(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HALVING_ORBIT_CONFIG)
        _, out, _ = run_cli(["certify", "--config", cfg, "--no-timestamp"], capsys)
        report = parse_report(out)
        del report["results"]["per_delta"][2]["outcome"]["certificate"]["oracle_tail_diameter"]
        with pytest.raises(jsonschema.ValidationError, match="oracle_tail_diameter"):
            validate_report(report)

    @pytest.mark.parametrize("field", ["failure", "stages", "shift_contraction"])
    def test_report_validates_outcomes(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, HALVING_ORBIT_CONFIG)
        _, out, _ = run_cli(["certify", "--config", cfg, "--no-timestamp"], capsys)
        report = parse_report(out)
        del report["results"]["per_delta"][0]["outcome"][field]
        with pytest.raises(jsonschema.ValidationError, match=field):
            validate_report(report)

    def test_large_delta_certifies(self, tmp_path, capsys):
        # delta * lam + delta * (1 - lam) rounds away from delta = 1e9 at
        # lam = 0.32; that round-off is no reason to refuse the input.
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "euclid_1d"},
                "source": {"orbit": {"contraction": {"name": "halving"}, "n": 40, "x0": 1.0}},
                "parameters": {
                    "witness": {"p": 1, "lambda": 0.32, "n0": 1},
                    "delta_grid": {"values": [1e9, 0.5]},
                },
            },
        )
        code, out, err = run_cli(["certify", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        results = parse_report(out)["results"]
        assert results["all_certified"] is True
        assert [e["outcome"]["certified"] for e in results["per_delta"]] == [True, True]

    @pytest.mark.parametrize("metric, delta", [("euclid_1d", 1.7e308), ("sq_abs", 1e308)])
    def test_overflowing_diameter_fails_that_delta_only(self, tmp_path, capsys, metric, delta):
        # delta * (1 - lam) + s * delta is inf: no certificate can state it.
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": metric},
                "source": {"inline": [2.0**-k for k in range(10)]},
                "parameters": {
                    "witness": {"p": 1, "lambda": 0.5, "n0": 1},
                    "delta_grid": {"values": [delta, 0.5]},
                },
            },
        )
        code, out, err = run_cli(["certify", "--config", cfg, "--no-timestamp"], capsys)
        assert (code, err) == (0, "")
        huge, small = parse_report(out)["results"]["per_delta"]
        assert huge["outcome"]["failure"] == {
            "stage": "pair_scan",
            "detail": f"the diameter bound at delta = {delta}, s = "
            f"{2.0 if metric == 'sq_abs' else 1.0} overflows a float",
        }
        assert small["outcome"]["certified"] is True

    def test_overflowing_chain_coefficient_fails_chain_bounds(self, tmp_path, capsys):
        # 2**1024 overflows: the chain at offset q = 1025 has no finite bound.
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "sq_abs"},
                "source": {"orbit": {"contraction": {"name": "halving"}, "n": 1200, "x0": 1.0}},
                "parameters": {
                    "witness": {"p": 1100, "lambda": 0.5, "n0": 1},
                    "delta_grid": {"values": [0.5]},
                },
            },
        )
        code, out, err = run_cli(["certify", "--config", cfg, "--no-timestamp"], capsys)
        assert (code, err) == (0, "")
        (entry,) = parse_report(out)["results"]["per_delta"]
        assert entry["outcome"]["failure"] == {
            "stage": "chain_bounds",
            "detail": "chain bound at n=2, q=1025 overflows a float at s = 2.0",
        }

    def test_non_finite_report_value_is_internal_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("cauchycert.cli.tail_diameter", lambda seq, n0: float("inf"))
        cfg = write_config(tmp_path, GEOMETRIC_CHECK_CONFIG)
        code, out, err = run_cli(["check", "--config", cfg], capsys)
        assert code == 3
        assert out == ""
        assert err == "internal divergence: a report value is inf, which JSON cannot hold\n"

    def test_report_off_its_schema_is_internal_error(self, capsys, monkeypatch):
        # A serializer slip: one key more than the schema allows in the results.
        from cauchycert.metrics import to_json

        monkeypatch.setattr("cauchycert.reports.to_json", lambda res: {**to_json(res), "extra": 1})
        code, out, err = run_cli(["list"], capsys)
        assert (code, out) == (3, "")
        assert err == (
            "internal divergence: the report fails its schema: "
            "Additional properties are not allowed ('extra' was unexpected)\n"
        )


class TestSolve:
    def test_affine_fixed_point(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "euclid_1d"},
                "parameters": {
                    "contraction": {"name": "affine_1d", "params": {"a": 0.9, "b": 0.1}},
                    "solver": {"target_delta": 0.01, "x0": 0.0},
                },
            },
        )
        code, out, _ = run_cli(["solve", "--config", cfg], capsys)
        assert code == 0
        results = parse_report(out)["results"]
        assert results["solved"] is True
        assert results["fixed_point"] == [0.9999986099154762]
        assert results["iterations"] == 128
        assert results["certificate"]["witness"]["delta"] == 0.01
        assert results["certificate"]["witness"]["p"] == 7

    def test_budget_exhaustion_reports_not_raises(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "euclid_1d"},
                "parameters": {
                    "contraction": {"name": "halving"},
                    "solver": {
                        "target_delta": 0.01,
                        "x0": 1.0,
                        "block": 8,
                        "max_iterations": 8,
                    },
                },
            },
        )
        code, out, _ = run_cli(["solve", "--config", cfg], capsys)
        assert code == 0
        results = parse_report(out)["results"]
        assert results["solved"] is False
        assert "within 8 iterations" in results["error"]

    def test_understated_constant_error_names_plain_floats(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "euclid_nd"},
                "parameters": {
                    "contraction": {
                        "name": "affine_nd",
                        "params": {"matrix": [[0.9]], "offset": [0.0], "c": 0.5},
                    },
                    "solver": {"target_delta": 0.01, "x0": [1.0]},
                },
            },
        )
        code, out, _ = run_cli(["solve", "--config", cfg, "--no-timestamp"], capsys)
        assert code == 0
        error = parse_report(out)["results"]["error"]
        assert "at pair (Point(5.436249914654229), Point(5.715298307297609))" in error

    def test_overflowing_diameter_is_unsolved_before_iterating(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "euclid_1d"},
                "parameters": {
                    "contraction": {"name": "halving"},
                    "solver": {"target_delta": 1.7e308, "x0": 1.0},
                },
            },
        )
        # Sampling the contraction applies the map once per point; no orbit is grown.
        with mock.patch("cauchycert.contractions._orbit", wraps=contractions._orbit) as orbit:
            code, out, _ = run_cli(["solve", "--config", cfg, "--no-timestamp"], capsys)
        assert code == 0
        assert {call.args[2] for call in orbit.call_args_list} == {1}
        assert parse_report(out)["results"] == {
            "solved": False,
            "error": "the diameter bound at delta = 1.7e+308 overflows a float",
        }

    def test_missing_target_delta(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "euclid_1d"},
                "parameters": {"contraction": {"name": "halving"}, "solver": {}},
            },
        )
        code, _, err = run_cli(["solve", "--config", cfg], capsys)
        assert code == 2
        assert "target_delta" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("target_delta", -0.5),
            ("target_delta", "x"),
            ("block", 2.5),
            ("max_iterations", "100"),
            ("lambda", "x"),
            ("lambda", 2.0),
            ("lambda", True),
            ("n0", 1.5),
            ("n0", True),
        ],
    )
    def test_bad_solver_setting_is_config_error(self, tmp_path, capsys, key, value):
        solver = {"target_delta": 0.01, key: value}
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "euclid_1d"},
                "parameters": {"contraction": {"name": "halving"}, "solver": solver},
            },
        )
        code, out, err = run_cli(["solve", "--config", cfg], capsys)
        assert code == 2
        assert out == ""
        assert f'"parameters.solver.{key}" must be' in err
        assert repr(value) in err


class TestCounterexample:
    def test_default_regression(self, capsys):
        code, out, _ = run_cli(["counterexample"], capsys)
        assert code == 0
        results = parse_report(out)["results"]
        assert results["n"] == 50
        assert results["deltas"] == [0.5, 0.25]
        assert results["override_mode"] is False
        assert results["regression_ok"] is True
        assert all(results["assertions"].values())
        assert results["tail_diameter_full"] == 49.0
        assert results["tail_diameter_half_prefix"] == 24.0
        for entry in results["per_delta"]:
            assert entry["shift_contraction"]["holds"] is True
            assert entry["shift_contraction"]["pairs_triggered"] == 0

    def test_delta_override_disables_regression_gate(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"parameters": {"delta_grid": {"values": [2.0, 0.5]}}}
        )
        code, out, _ = run_cli(["counterexample", "--config", cfg], capsys)
        assert code == 0  # override mode reports, it does not gate
        results = parse_report(out)["results"]
        assert results["override_mode"] is True
        assert results["regression_ok"] is False
        wide, narrow = results["per_delta"]
        assert wide["shift_contraction"]["holds"] is False
        assert wide["shift_contraction"]["violating_pair"] == [2, 3]
        assert narrow["shift_contraction"]["holds"] is True

    def test_n_below_minimum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": {"n": 3}})
        code, _, err = run_cli(["counterexample", "--config", cfg], capsys)
        assert code == 2
        assert "config error" in err


class TestConfigErrors:
    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(["check", "--config", "/nonexistent/nope.json"], capsys)
        assert code == 2
        assert "cannot read config" in err

    def test_non_utf8_config_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(["check", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot read config {str(path)!r}")

    def test_config_required(self, capsys):
        code, _, err = run_cli(["axioms"], capsys)
        assert code == 2
        assert "requires --config" in err

    def test_non_object_config(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[]"))
        code, _, err = run_cli(["axioms", "--config", "-"], capsys)
        assert code == 2
        assert "JSON object" in err

    def test_invalid_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("{"))
        code, _, err = run_cli(["axioms", "--config", "-"], capsys)
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_metric_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"metric": {"name": "taxicab"}})
        code, _, err = run_cli(["axioms", "--config", cfg], capsys)
        assert code == 2
        assert "unknown metric" in err

    @pytest.mark.parametrize(
        "command, parameters, message",
        [
            ("certify", '{"delta_grid": {"values": [NaN]}}', "NaN, which is not a finite float"),
            ("certify", '{"delta_grid": {"values": [Infinity]}}', "Infinity, which is not a finite float"),
            ("certify", '{"delta_grid": {"values": [1e999]}}', "1e999, which is not"),
            ("certify", '{"delta_grid": {"values": [1%s]}}' % ("0" * 400), "which is not a finite"),
            ("axioms", '{"axioms": {"box": [true, 5]}}',
             '"parameters.axioms.box" must be a list of numbers, got [True, 5]'),
            ("check", '{"tail": {"eps": NaN}}', "NaN, which is not a finite float"),
            ("axioms", '{"axioms": {"box": [0, Infinity]}}', "Infinity, which is not a finite float"),
            ("axioms", '{"axioms": {"pair_count": 1.5}}', '"parameters.axioms.pair_count" must be'),
            ("axioms", '{"axioms": []}', '"parameters.axioms" must be an object'),
            ("check", '{"tail": {"tau": "x"}}', '"parameters.tail.tau" must be a number, got \'x\''),
            (
                "solve",
                '{"tail": {"tau": "x"}, "contraction": {"name": "halving"},'
                ' "solver": {"target_delta": 0.01}}',
                '"parameters.tail.tau" must be a number, got \'x\'',
            ),
            ("check", '{"search": {"p_max": 2.5}}', '"parameters.search.p_max" must be an integer, got 2.5'),
            ("check", '{"search": {"n0_values": ["a"]}}',
             '"parameters.search.n0_values" must be a list of integers, got [\'a\']'),
            ("check", '{"search": {"n0_values": []}}', "grids must not be empty"),
            ("check", '{"search": {"n0_values": [2, 0]}}', "n0 grid entries must be >= 1, got 0"),
            ("certify", '{"search": {"n0_values": []}}', "grids must not be empty"),
            ("check", '{"search": {"lambdas": []}}', "grids must not be empty"),
            ("certify", '{"search": {"lambdas": []}}', "grids must not be empty"),
            ("certify", '{"delta_grid": {"levels": "x"}}',
             '"parameters.delta_grid.levels" must be an integer, got \'x\''),
            ("certify", '{"delta_grid": {"levels": 1100}}', "delta grid underflows"),
            ("axioms", '{"axioms": {"triple_count": "5"}}', '"parameters.axioms.triple_count" must be'),
            ("axioms", '{"axioms": {"grid_points": 2.5}}', '"parameters.axioms.grid_points" must be'),
            ("certify", '{"delta_grid": {"values": [true]}}',
             '"parameters.delta_grid.values" must be a list of numbers, got [True]'),
            ("axioms", '{"axioms": {"box": [0, 1e308]}}', "times 2**20 must be finite"),
            # A misspelt key would silently fall back to the default.
            ("certify", '{"delta_grid": {"value": [0.3]}}',
             'unknown key \'value\' in "parameters.delta_grid"'),
            ("check", '{"tail": {"tua": 0.5}}', 'unknown key \'tua\' in "parameters.tail"'),
            ("check", '{"search": {"pmax": 2}}', 'unknown key \'pmax\' in "parameters.search"'),
            ("certify", '{"witness": {"p": 1, "lam": 0.5}}',
             'unknown key \'lam\' in "parameters.witness"'),
            ("axioms", '{"axioms": {"pairs": 5}}', 'unknown key \'pairs\' in "parameters.axioms"'),
            ("solve", '{"contraction": {"name": "halving"}, "solver": {"target_delta": 0.1, "blocks": 8}}',
             'unknown key \'blocks\' in "parameters.solver"'),
            ("counterexample", '{"deltas": ["a"]}', 'unknown key \'deltas\' in "parameters"'),
            # Each value below used to be read from stdin, crash or be ignored.
            # The first two replace the source: JSON keeps the last of two
            # equal keys.
            ("check", '{}, "source": {"csv": 0}', '"source.csv" must be a string, got 0'),
            ("check", '{}, "source": {"csv": true}', '"source.csv" must be a string, got True'),
            ("check", '{"seed": true}', '"parameters.seed" must be an integer, got True'),
            ("counterexample", '{"delta_grid": 5}', '"parameters.delta_grid" must be an object, got 5'),
            ("counterexample", '{"delta_grid": "abc"}',
             '"parameters.delta_grid" must be an object, got \'abc\''),
            # A section the command does not read is checked all the same.
            ("axioms", '{"search": {"p_max": 2.5}}', '"parameters.search.p_max" must be an integer'),
        ],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, command, parameters, message):
        path = tmp_path / "config.json"
        path.write_text(
            '{"metric": {"name": "euclid_1d"}, "source": {"inline": [1, 0.5, 0.25, 0.125, 0.0625]},'
            f' "parameters": {parameters}}}'
        )
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize(
        "command, config, message",
        [
            # A list passes the table, where the factory needs a number.
            (
                "check",
                {"metric": {"name": "shifted_dislocated", "params": {"offset": [1]}},
                 "source": {"inline": [1.0, 0.5]}},
                "bad metric parameters: float() argument must be",
            ),
            (
                "solve",
                {"metric": {"name": "euclid_1d"},
                 "parameters": {"contraction": {"name": "affine_1d", "params": {"a": [0.5], "b": 1}},
                                "solver": {"target_delta": 0.1}}},
                "bad contraction parameters: float() argument must be",
            ),
            # float(True) is 1.0: a boolean must not pass for a number.
            (
                "check",
                {"metric": {"name": "shifted_dislocated", "params": {"offset": True}},
                 "source": {"inline": [1.0, 0.5]}},
                '"metric.params.offset" must be a number or a list of numbers, got True',
            ),
            (
                "solve",
                {"metric": {"name": "euclid_1d"},
                 "parameters": {"contraction": {"name": "affine_1d", "params": {"a": 0.5, "b": True}},
                                "solver": {"target_delta": 0.1}}},
                '"parameters.contraction.params.b" must be a number or a list of numbers, got True',
            ),
            (
                "check",
                {"metric": {"name": "euclid_1d"},
                 "source": {"orbit": {"contraction": {"name": "halving"}, "n": 20, "x0": True}}},
                '"source.orbit.x0" must be a number or a list of numbers, got True',
            ),
            (
                "solve",
                {"metric": {"name": "euclid_nd"},
                 "parameters": {"contraction": {"name": "halving"},
                                "solver": {"target_delta": 0.1, "x0": [0.5, False]}}},
                '"parameters.solver.x0" must be a number or a list of numbers, got [0.5, False]',
            ),
            # Each of the next three used to run: the object's keys, or the
            # strings, were read as numbers.
            (
                "check",
                {"metric": {"name": "euclid_1d"}, "source": {"inline": {"1": 0, "0.5": 7, "0.25": 9}}},
                '"source.inline" must be a number or a list of numbers, got {\'1\': 0,',
            ),
            (
                "check",
                {"metric": {"name": "euclid_1d"}, "source": {"inline": ["1", "0.5", "0.25"]}},
                '"source.inline" must be a number or a list of numbers, got [\'1\', \'0.5\', \'0.25\']',
            ),
            (
                "check",
                {"metric": {"name": "shifted_dislocated", "params": {"offset": "0.5"}},
                 "source": {"inline": [1.0, 0.5]}},
                '"metric.params.offset" must be a number or a list of numbers, got \'0.5\'',
            ),
        ],
    )
    def test_unconvertible_parameter_is_config_error(self, tmp_path, capsys, command, config, message):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, config)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "command, config, message",
        [
            # Each misspelt key below used to be dropped and its default run.
            (
                "check",
                {"metric": {"name": "euclid_1d"}, "source": {"inline": [1.0, 0.5]},
                 "paramters": {"tail": {"eps": 0.1}}},
                "unknown key 'paramters' in the config; expected one of metric, source, parameters",
            ),
            (
                "check",
                {"metric": {"name": "shifted_dislocated", "param": {"offset": 0.5}},
                 "source": {"inline": [1.0, 0.5]}},
                "unknown key 'param' in \"metric\"; expected one of name, s, params",
            ),
            (
                "check",
                {"metric": {"name": "euclid_1d"},
                 "source": {"generator": {"name": "geometric", "parms": {"n": 5}}}},
                "unknown key 'parms' in \"source.generator\"",
            ),
            (
                "check",
                {"metric": {"name": "euclid_1d"},
                 "source": {"orbit": {"contraction": {"name": "halving"}, "n": 20, "x_0": 5.0}}},
                "unknown key 'x_0' in \"source.orbit\"; expected one of contraction, n, x0",
            ),
            (
                "check",
                {"metric": {"name": "euclid_1d"},
                 "source": {"orbit": {"contraction": {"name": "affine_1d", "a": 0.5}, "n": 20}}},
                "unknown key 'a' in \"source.orbit.contraction\"; expected one of name, params",
            ),
            (
                "solve",
                {"metric": {"name": "euclid_1d"},
                 "parameters": {"contraction": {"name": "affine_1d", "param": {"a": 0.5}},
                                "solver": {"target_delta": 0.1}}},
                "unknown key 'param' in \"parameters.contraction\"",
            ),
        ],
    )
    def test_unknown_key_outside_parameters_is_config_error(
        self, tmp_path, capsys, command, config, message
    ):
        code, out, err = run_cli([command, "--config", write_config(tmp_path, config)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("s", ["x", "2", True])
    def test_non_numeric_metric_s_is_config_error(self, tmp_path, capsys, s):
        cfg = write_config(
            tmp_path, {"metric": {"name": "euclid_1d", "s": s}, "source": {"inline": [1.0, 0.5]}}
        )
        code, out, err = run_cli(["check", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert f'"metric.s" must be a number, got {s!r}' in err

    def test_negative_seed_flag_is_usage_error(self, capsys):
        # "list" reads no config, so the flag is checked where it is parsed.
        with pytest.raises(SystemExit) as exc:
            main(["list", "--seed", "-1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "--seed: must be a nonnegative integer, got '-1'" in captured.err

    def test_bad_log_level_falls_back_quietly(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUCHYCERT_LOG", "nonsense")
        code, out, _ = run_cli(["list"], capsys)
        assert code == 0
        parse_report(out)


class TestSubprocess:
    """The installed entry point, exercised the way a shell user would."""

    def _run(self, args, env_extra=None, cwd=None):
        # The child imports this checkout's package, installed or not.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "cauchycert", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )

    def test_module_invocation(self):
        proc = self._run(["list"])
        assert proc.returncode == 0
        parse_report(proc.stdout)

    def test_info_logging_goes_to_stderr(self, tmp_path):
        cfg = write_config(tmp_path, HALVING_ORBIT_CONFIG)
        proc = self._run(["certify", "--config", cfg], env_extra={"CAUCHYCERT_LOG": "info"})
        assert proc.returncode == 0
        parse_report(proc.stdout)  # stdout stays pure JSON
        assert sum("certified=" in line for line in proc.stderr.splitlines()) == 7

    def test_error_level_silences_info(self, tmp_path):
        cfg = write_config(tmp_path, HALVING_ORBIT_CONFIG)
        proc = self._run(["certify", "--config", cfg], env_extra={"CAUCHYCERT_LOG": "error"})
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_overflow_writes_only_the_error_line(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": "sq_abs"},
                "source": {"inline": [1e200, -1e200, 1e200, -1e200, 1.0, 1.0]},
            },
        )
        proc = self._run(["check", "--config", cfg])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: metric 'sq_abs' produced a non-finite distance inf\n"


#: A small valid config per command for the robustness test to break; every
#: count is small, so no replacement below asks for a large orbit or matrix.
ROBUST_BASES = [
    ("axioms", {
        "metric": {"name": "sq_abs", "s": 2.0},
        "parameters": {"seed": 1, "axioms": {"box": [0.0, 4.0], "pair_count": 8,
                                             "triple_count": 8, "grid_points": 3}},
    }),
    ("check", {
        "metric": {"name": "euclid_1d"},
        "source": {"inline": [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]},
        "parameters": {"seed": 1, "tail": {"tau": 0.5, "eps": 1e-6},
                       "delta_grid": {"delta0": 0.5, "levels": 2},
                       "search": {"p_max": 2, "lambdas": [0.5], "n0_values": [1]}},
    }),
    ("check", {
        "metric": {"name": "shifted_dislocated", "params": {"offset": 0.5}},
        "source": {"generator": {"name": "geometric", "params": {"n": 12, "ratio": 0.5}}},
    }),
    ("certify", {
        "metric": {"name": "euclid_1d"},
        "source": {"orbit": {"contraction": {"name": "affine_1d", "params": {"a": 0.5, "b": 1.0}},
                             "n": 16, "x0": 0.0}},
        "parameters": {"delta_grid": {"values": [0.5, 0.25]},
                       "witness": {"p": 1, "lambda": 0.5, "n0": 1}},
    }),
    ("solve", {
        "metric": {"name": "euclid_1d"},
        "parameters": {"contraction": {"name": "halving"},
                       "solver": {"target_delta": 0.1, "x0": 1.0, "lambda": 0.5, "n0": 1,
                                  "block": 8, "max_iterations": 48}},
    }),
    ("counterexample", {"parameters": {"n": 8, "delta_grid": {"values": [0.5]}}}),
]


def _key_paths(value, path=()):
    """Every key path into a nested config, sections included."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _key_paths(item, path + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def broken_configs(draw):
    """A base config with the value or section at one drawn key path replaced."""
    command, base = draw(st.sampled_from(ROBUST_BASES))
    config = json.loads(json.dumps(base))
    *parents, key = draw(st.sampled_from(list(_key_paths(config))))
    spec = config
    for name in parents:
        spec = spec[name]
    spec[key] = draw(_JSON_VALUES)
    return command, config


def _replaced(base: int, path: tuple, value):
    """``ROBUST_BASES[base]`` with the value at ``path`` replaced."""
    command, config = ROBUST_BASES[base]
    config = json.loads(json.dumps(config))
    spec = config
    for name in path[:-1]:
        spec = spec[name]
    spec[path[-1]] = value
    return command, config


@settings(max_examples=300, deadline=None)
@given(case=broken_configs())
@example(case=_replaced(4, ("parameters", "solver", "target_delta"), 1.7976931348623157e308))
@example(case=_replaced(3, ("parameters", "delta_grid", "values"), [1.7e308]))
def test_any_one_broken_value_exits_0_or_2(case):
    # Every bad config maps to exit 2 with nothing on stdout; whatever the
    # table lets through, the command runs to completion.
    command, config = case
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(config))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--config", "-", "--no-timestamp"])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
