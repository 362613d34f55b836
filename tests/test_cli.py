"""End-to-end CLI behaviour: parsing, reports, exit codes, determinism."""

from __future__ import annotations

import contextlib
import importlib
import inspect
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

import cauchycert
from cauchycert import STAGES, cli, contractions, registry, sequences
from cauchycert.cli import main
from cauchycert.reports import SchemaError, load_schema, validate_report

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN_LIST = Path(__file__).resolve().parent / "golden" / "list.json"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out: str) -> dict:
    report = json.loads(out)
    validate_report(report)
    return report


def byte_stdin(data: bytes) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin`` whose ``buffer`` holds ``data``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


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


#: The commands that read a config.
CONFIG_COMMANDS = ["axioms", "check", "certify", "solve", "counterexample"]

#: A config that every command in CONFIG_COMMANDS runs, and quickly.
ALL_COMMANDS_CONFIG = {
    "metric": {"name": "euclid_1d"},
    "source": {"inline": [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]},
    "parameters": {
        "seed": 5,
        "delta_grid": {"values": [0.5]},
        "axioms": {"box": [0, 1], "pair_count": 8, "triple_count": 8},
        "contraction": {"name": "halving"},
        "solver": {"target_delta": 0.1, "x0": 1.0, "lambda": 0.5, "n0": 2},
        "n": 8,
    },
}


def _with_parameter(config: dict, key: str, value) -> dict:
    """``config`` with ``parameters.<key>`` (a dotted path) set to ``value``."""
    config = json.loads(json.dumps(config))
    *sections, leaf = key.split(".")
    spec = config["parameters"]
    for name in sections:
        spec = spec[name]
    spec[leaf] = value
    return config


#: The options of ``<command> --help`` at 80 columns: the command's config
#: options, then ``--no-timestamp`` and, for the commands that read a
#: sequence source, ``--header``.
def _command_options(config: bool, header: bool) -> str:
    return "".join([
        "\noptions:\n  -h, --help      show this help message and exit\n",
        "  --config PATH   JSON config path, or '-' for stdin\n" if config else "",
        "  --out PATH      write the report here instead of stdout\n",
        "  --seed U64      override the config seed\n" if config else "",
        "  --no-timestamp  omit timestamp and timing from the report (for byte-stable\n"
        "                  output)\n",
        "  --header        csv sources: skip the first row\n" if header else "",
    ])


#: ``--help`` at 80 columns, keyed by the arguments before it.
HELP_TEXT = {
    (): """\
usage: cauchycert [-h] {axioms,check,certify,solve,counterexample,list} ...

Finite-prefix Cauchy certification for dislocated b-metric spaces.

positional arguments:
  {axioms,check,certify,solve,counterexample,list}
    axioms              sampled metric axiom checks
    check               decay + witness search + oracle
    certify             full certification over the delta grid
    solve               certified fixed-point iteration
    counterexample      canned non-Cauchy regression
    list                registered metrics, generators, contractions

options:
  -h, --help            show this help message and exit
""",
    **{
        (command,): f"""\
usage: cauchycert {command} [-h] [--config PATH] [--out PATH] [--seed U64]
{' ' * (19 + len(command))}[--no-timestamp] [--header]
{_command_options(True, True)}"""
        for command in ["check", "certify"]
    },
    **{
        (command,): f"""\
usage: cauchycert {command} [-h] [--config PATH] [--out PATH] [--seed U64]
{' ' * (19 + len(command))}[--no-timestamp]
{_command_options(True, False)}"""
        for command in ["axioms", "solve"]
    },
    ("counterexample",): f"""\
usage: cauchycert counterexample [-h] [--config PATH] [--out PATH]
                                 [--seed U64] [--no-timestamp]
{_command_options(True, False)}""",
    ("list",): f"""\
usage: cauchycert list [-h] [--out PATH] [--no-timestamp]
{_command_options(False, False)}""",
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

    def test_list_flag_is_a_usage_error(self, capsys):
        # "list" is the one spelling of the command.
        with pytest.raises(SystemExit) as exc:
            main(["--list"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: cauchycert")
        assert err.endswith("cauchycert: error: unrecognized arguments: --list\n")

    def test_params_match_the_factories(self, capsys):
        # The list report is where a user learns each factory's params; the
        # hand-written docs name exactly the factory's parameters.
        code, out, _ = run_cli(["list", "--no-timestamp"], capsys)
        assert code == 0
        results = parse_report(out)["results"]
        assert sorted(results) == sorted(registry.TABLE)
        for kind, (_, _, names) in registry.TABLE.items():
            assert results[kind] == {name: docs for name, (_, docs) in names.items()}
            for name, (_, docs) in names.items():
                factory = registry.factory(kind, name)
                assert list(docs) == list(inspect.signature(factory).parameters), (kind, name)

    def test_no_command_prints_help(self, capsys):
        code, out, err = run_cli([], capsys)
        assert code == 2
        assert out == ""
        assert "usage" in err.lower()

    @pytest.mark.parametrize("argv", [
        ["list", "--config", "/nonexistent.json"],
        ["list", "--seed", "3"],
        ["list", "--header"],
        ["axioms", "--header"],
        ["solve", "--header"],
        ["counterexample", "--header"],
    ])
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, capsys, argv):
        # Each command takes only the flags it reads: "list" reads no config
        # and no seed, and only check and certify read a sequence source.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: cauchycert")
        assert err.endswith(f"cauchycert: error: unrecognized arguments: {' '.join(argv[1:])}\n")

    @pytest.mark.parametrize("before", list(HELP_TEXT), ids=lambda before: " ".join(before) or "top")
    def test_help_text(self, capsys, monkeypatch, before):
        # The command table drives both the subparsers and dispatch; the help
        # keeps its order and wording.
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([*before, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (HELP_TEXT[before], "")


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
        monkeypatch.setattr("sys.stdin", byte_stdin(json.dumps({"metric": {"name": "sq_abs"}}).encode()))
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
        with pytest.raises(SchemaError, match=path[-1]):
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

    @pytest.mark.parametrize("name", ["arithmetic", "geometric", "constant"])
    def test_one_term_generator(self, tmp_path, capsys, name):
        # The prefix, not the generator, refuses a short source.
        source = {"generator": {"name": name, "params": {"n": 1}}}
        cfg = write_config(tmp_path, {"metric": {"name": "euclid_1d"}, "source": source})
        code, out, err = run_cli(["check", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", "config error: a prefix needs at least 2 points, got 1\n")

    @pytest.mark.parametrize("rows, code", [("1\n", 2), ("1\n0.5\n", 0)])
    def test_csv_needs_two_points(self, tmp_path, capsys, rows, code):
        csv = tmp_path / "pts.csv"
        csv.write_text(rows)
        cfg = write_config(tmp_path, {"metric": {"name": "euclid_1d"}, "source": {"csv": str(csv)}})
        got, _, err = run_cli(["check", "--config", cfg], capsys)
        assert got == code
        assert ("need at least 2 points, got 1" in err) == (code == 2)

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

    def test_header_after_blank_lines(self, tmp_path, capsys):
        # --header skips the first nonblank line: leading blank lines give
        # the report of the file without them.
        csv = tmp_path / "pts.csv"
        cfg = write_config(tmp_path, {"metric": {"name": "euclid_1d"}, "source": {"csv": str(csv)}})
        argv = ["check", "--config", cfg, "--header", "--no-timestamp"]
        reports = []
        for text in ("x\n1\n0.5\n0.25\n0.125\n", "\n \nx\n1\n0.5\n0.25\n0.125\n"):
            csv.write_text(text)
            code, out, err = run_cli(argv, capsys)
            assert (code, err) == (0, "")
            reports.append(out)
        assert reports[0] == reports[1]
        csv.write_text("\n\nx\n1\nbad\n")  # messages keep physical line numbers
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert f"{csv}:5: malformed row 'bad'" in err

    def test_byte_order_marks_are_dropped(self, tmp_path, capsys, monkeypatch):
        # A UTF-8 byte-order mark before the CSV, the config file or the
        # config on stdin changes nothing in the report.
        csv = tmp_path / "pts.csv"
        config = json.dumps({"metric": {"name": "euclid_1d"}, "source": {"csv": str(csv)}})
        cfg = tmp_path / "config.json"
        argv = ["check", "--config", str(cfg), "--no-timestamp"]
        csv.write_text("1\n0.5\n0.25\n0.125\n")
        cfg.write_text(config)
        code, plain, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        csv.write_bytes(b"\xef\xbb\xbf1\n0.5\n0.25\n0.125\n")
        assert run_cli(argv, capsys) == (0, plain, "")
        csv.write_text("1\n0.5\n0.25\n0.125\n")
        cfg.write_bytes(b"\xef\xbb\xbf" + config.encode())
        assert run_cli(argv, capsys) == (0, plain, "")
        monkeypatch.setattr("sys.stdin", byte_stdin(b"\xef\xbb\xbf" + config.encode()))
        assert run_cli(["check", "--config", "-", "--no-timestamp"], capsys) == (0, plain, "")

    @staticmethod
    def _csv_error(tmp_path, capsys, data: bytes, *flags) -> tuple[Path, str]:
        """The CSV path and the stderr of a ``check`` on ``data`` that exits 2."""
        csv = tmp_path / "pts.csv"
        csv.write_bytes(data)
        cfg = write_config(tmp_path, {"metric": {"name": "euclid_1d"}, "source": {"csv": str(csv)}})
        code, out, err = run_cli(["check", "--config", cfg, *flags], capsys)
        assert (code, out) == (2, "")
        return csv, err

    def test_non_utf8_csv_names_its_line(self, tmp_path, capsys):
        csv, err = self._csv_error(tmp_path, capsys, b"1\n0.5\n\xff\n0.25\n")
        assert err == f"config error: {csv}:3: not UTF-8\n"

    def test_non_utf8_line_past_the_decode_block(self, tmp_path, capsys):
        # Text I/O decodes 8 KiB at a time, so its error comes before the
        # loop reaches the bad line; the line is still named.
        lines = [b"%.17f" % (1.0 / k) for k in range(1, 5000)]
        lines[2999] = b"0.\xff"
        data = b"\n".join(lines) + b"\n"
        assert data.index(b"\xff") > 8192
        csv, err = self._csv_error(tmp_path, capsys, data)
        assert err == f"config error: {csv}:3000: not UTF-8\n"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_csv_value_names_its_line(self, tmp_path, capsys, cell):
        csv, err = self._csv_error(tmp_path, capsys, b"1, 2\n0.5, 1\n0.25, %s\n" % cell.encode())
        assert err == f"config error: {csv}:3: non-finite value {cell!r}\n"

    @pytest.mark.parametrize(
        "row, message", [(b"\xff", "not UTF-8"), (b"nan", "non-finite value 'nan'")]
    )
    def test_csv_errors_give_the_physical_line(self, tmp_path, capsys, row, message):
        # A blank line and the header are skipped, but still counted.
        csv, err = self._csv_error(tmp_path, capsys, b"\nx\n1\n" + row + b"\n0.5\n", "--header")
        assert err == f"config error: {csv}:4: {message}\n"


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

    @pytest.mark.parametrize("tail, holds", [({}, True), ({"tau": 0.25, "eps": 1e-9}, False)])
    def test_decay_is_reported_once_as_check_reports_it(self, tmp_path, capsys, tail, holds):
        config = {**GEOMETRIC_CHECK_CONFIG, "parameters": {"seed": 3, "tail": tail}}
        cfg = write_config(tmp_path, config)
        results = {}
        for command in ("check", "certify"):
            code, out, _ = run_cli([command, "--config", cfg, "--no-timestamp"], capsys)
            assert code == 0
            results[command] = parse_report(out)["results"]
        assert results["certify"]["consecutive_decay"] == results["check"]["consecutive_decay"]
        assert results["certify"]["consecutive_decay"]["holds"] is holds
        for entry in results["certify"]["per_delta"]:
            assert "consecutive_decay" not in entry["outcome"]

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
        with pytest.raises(SchemaError, match="oracle_tail_diameter"):
            validate_report(report)

    @pytest.mark.parametrize("field", ["failure", "stages", "shift_contraction"])
    def test_report_validates_outcomes(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, HALVING_ORBIT_CONFIG)
        _, out, _ = run_cli(["certify", "--config", cfg, "--no-timestamp"], capsys)
        report = parse_report(out)
        del report["results"]["per_delta"][0]["outcome"][field]
        with pytest.raises(SchemaError, match=field):
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
        # A handler slip: one key more than the schema allows in the results.
        monkeypatch.setattr(
            "cauchycert.entry.cmd_list", lambda args: ({}, {**registry.documented(), "extra": 1}, 0)
        )
        code, out, err = run_cli(["list"], capsys)
        assert (code, out) == (3, "")
        assert err == (
            "internal divergence: the report fails its schema: "
            "Additional properties are not allowed ('extra' was unexpected) (at results)\n"
        )

    def test_off_schema_message_names_the_nested_path(self, tmp_path, capsys, monkeypatch):
        check = cli.cmd_check

        def off_schema(args):
            config_echo, results, code = check(args)
            return config_echo, {**results, "consecutive_decay": None}, code

        monkeypatch.setattr("cauchycert.cli.cmd_check", off_schema)
        code, out, err = run_cli(["check", "--config", write_config(tmp_path, GEOMETRIC_CHECK_CONFIG)], capsys)
        assert (code, out) == (3, "")
        assert err == (
            "internal divergence: the report fails its schema: "
            "None is not of type 'object' (at results/consecutive_decay)\n"
        )


#: A period-2 oscillation with small offsets: the smaller grid deltas have
#: no witness at p = 1, so their searches go on to larger shifts.
OSCILLATION_CONFIG = {
    "metric": {"name": "euclid_1d"},
    "source": {"inline": [(-1.0) ** k + 0.01 * (k % 7) for k in range(40)]},
    "parameters": {"search": {"p_max": 3}},
}


class TestGridSearch:
    """``check`` and a searched ``certify`` build the shift-1 profiles of the
    whole grid in one kernel call before the per-delta searches."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = sequences._triggered

        def counted(dm, deltas, p, lo, left, end):
            calls.append((tuple(deltas), p))
            return kernel(dm, deltas, p, lo, left, end)

        monkeypatch.setattr(sequences, "_triggered", counted)
        return calls

    @pytest.mark.parametrize("command", ["check", "certify"])
    @pytest.mark.parametrize("config", [HALVING_ORBIT_CONFIG, OSCILLATION_CONFIG], ids=["orbit", "oscillation"])
    def test_one_kernel_call_at_shift_one(self, tmp_path, capsys, kernel_calls, command, config):
        cfg = write_config(tmp_path, config)
        code, out, _ = run_cli([command, "--config", cfg, "--no-timestamp"], capsys)
        assert code == 0
        grid = tuple(e["delta"] for e in parse_report(out)["results"]["per_delta"])
        assert len(grid) == 7
        assert [deltas for deltas, p in kernel_calls if p == 1] == [grid]
        # Every later build is one delta's, at a larger shift.
        assert all(len(deltas) == 1 and p > 1 for deltas, p in kernel_calls[1:])
        assert (len(kernel_calls) > 1) == (config is OSCILLATION_CONFIG)

    @pytest.mark.parametrize("n", [7, 8])
    def test_a_prefix_too_short_for_p_one_keeps_its_notes(self, tmp_path, capsys, kernel_calls, n):
        # n0 = 6 needs N >= 9 for p = 1: no pass, and every delta's note.
        config = {
            "metric": {"name": "euclid_1d"},
            "source": {"inline": [2.0**-k for k in range(n)]},
            "parameters": {"delta_grid": {"values": [0.5, 0.25]}, "search": {"n0_values": [6]}},
        }
        cfg = write_config(tmp_path, config)
        note = f"prefix of length {n} is too short for any shift with n0 grid (6,)"
        code, out, _ = run_cli(["check", "--config", cfg, "--no-timestamp"], capsys)
        assert code == 0
        assert parse_report(out)["results"]["per_delta"] == [
            {"delta": 0.5, "search": None, "note": note},
            {"delta": 0.25, "search": None, "note": note},
        ]
        code, out, _ = run_cli(["certify", "--config", cfg, "--no-timestamp"], capsys)
        assert code == 0
        results = parse_report(out)["results"]
        assert results["all_certified"] is False
        assert results["per_delta"] == [
            {"delta": delta, "witness": None, "outcome": None, "note": note, "witness_source": "search"}
            for delta in (0.5, 0.25)
        ]
        assert kernel_calls == []


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


    @pytest.mark.parametrize(
        "metric, x0, message",
        [
            ("euclid_1d", [0, 0], "x0 has dimension 2, but the metric 'euclid_1d' declares dimension 1"),
            ("euclid_nd", [0, 0, 0], "x0 has dimension 3, but the map 'affine_nd' declares dimension 2"),
        ],
    )
    def test_dimension_mismatch_is_an_error(self, tmp_path, capsys, metric, x0, message):
        # Both used to end in numpy's matmul ValueError, with exit 1.
        contraction = {
            "name": "affine_nd",
            "params": {"matrix": [[0.5, 0], [0, 0.5]], "offset": [1, 1], "c": 0.5},
        }
        cfg = write_config(
            tmp_path,
            {
                "metric": {"name": metric},
                "parameters": {"contraction": contraction, "solver": {"target_delta": 0.1, "x0": x0}},
            },
        )
        code, out, err = run_cli(["solve", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


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

    def test_halving_grid_override(self, tmp_path, capsys):
        # Any delta_grid section replaces the canned grid, as it does for
        # check and certify.
        cfg = write_config(tmp_path, {"parameters": {"delta_grid": {"delta0": 0.1, "levels": 3}}})
        code, out, _ = run_cli(["counterexample", "--config", cfg], capsys)
        assert code == 0
        results = parse_report(out)["results"]
        assert results["deltas"] == [0.1, 0.05, 0.025]
        assert results["override_mode"] is True

    def test_zero_levels_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": {"delta_grid": {"levels": 0}}})
        code, out, err = run_cli(["counterexample", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: bad delta grid: ")

    def test_n_below_minimum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": {"n": 3}})
        code, _, err = run_cli(["counterexample", "--config", cfg], capsys)
        assert code == 2
        assert "config error" in err


DELTA_GRID_MIX = '"parameters.delta_grid" takes "values" or "delta0"/"levels", not both'


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
        monkeypatch.setattr("sys.stdin", byte_stdin(b"[]"))
        code, _, err = run_cli(["axioms", "--config", "-"], capsys)
        assert code == 2
        assert "JSON object" in err

    def test_invalid_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", byte_stdin(b"{"))
        code, _, err = run_cli(["axioms", "--config", "-"], capsys)
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("command, config, line", [
        ("axioms", {"metric": {"name": "taxicab"}},
         "unknown metric 'taxicab'; available: ['broken_asym', 'euclid_1d', 'euclid_nd', "
         "'max_dislocated', 'shifted_dislocated', 'sq_abs']"),
        ("check", {"metric": {"name": "euclid_1d"},
                   "source": {"generator": {"name": "spiral", "params": {"n": 5}}}},
         "bad source: unknown generator 'spiral'; available: ['arithmetic', 'constant', 'geometric']"),
        ("solve", {"metric": {"name": "euclid_1d"},
                   "parameters": {"contraction": {"name": "spiral"}, "solver": {"target_delta": 0.1}}},
         "unknown contraction 'spiral'; available: ['affine_1d', 'affine_nd', 'constant', 'halving', "
         "'logistic_damped']"),
        ("check", {"metric": {"name": "euclid_1d"},
                   "source": {"orbit": {"contraction": {"name": "spiral"}, "n": 5}}},
         "unknown contraction 'spiral'; available: ['affine_1d', 'affine_nd', 'constant', 'halving', "
         "'logistic_damped']"),
    ])
    def test_unknown_name(self, tmp_path, capsys, command, config, line):
        # One lookup serves the three kinds; each unknown name is one line
        # that lists the kind's names.
        cfg = write_config(tmp_path, config)
        assert run_cli([command, "--config", cfg], capsys) == (2, "", f"config error: {line}\n")

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
            # A repeated key used to keep its last value silently, top level
            # or nested.
            ("check", '{}, "source": {"csv": "data.csv"}', "config repeats the key 'source'"),
            ("check", '{"tail": {"eps": 0.5}, "tail": {"tau": 0.9}}', "config repeats the key 'tail'"),
            ("check", '{"tail": {"eps": 0.5, "eps": 0.1}}', "config repeats the key 'eps'"),
            # Each value below used to be read from stdin, crash or be ignored.
            ("check", '{"seed": true}', '"parameters.seed" must be an integer, got True'),
            ("counterexample", '{"delta_grid": 5}', '"parameters.delta_grid" must be an object, got 5'),
            ("counterexample", '{"delta_grid": "abc"}',
             '"parameters.delta_grid" must be an object, got \'abc\''),
            # A section the command does not read is checked all the same.
            ("axioms", '{"search": {"p_max": 2.5}}', '"parameters.search.p_max" must be an integer'),
            # Explicit values and the halving grid are alternatives: a mix
            # would run one and silently drop the other.
            ("check", '{"delta_grid": {"values": [0.3], "delta0": 0.1, "levels": 3}}', DELTA_GRID_MIX),
            ("certify", '{"delta_grid": {"values": [0.3], "levels": 3}}', DELTA_GRID_MIX),
            ("counterexample", '{"delta_grid": {"delta0": 0.1, "values": [0.3]}}', DELTA_GRID_MIX),
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
            # The next two used to be read from stdin or crash.
            (
                "check",
                {"metric": {"name": "euclid_1d"}, "source": {"csv": 0}},
                '"source.csv" must be a string, got 0',
            ),
            (
                "check",
                {"metric": {"name": "euclid_1d"}, "source": {"csv": True}},
                '"source.csv" must be a string, got True',
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

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", -1, '"parameters.seed" must be a nonnegative integer, got -1'),
            ("delta_grid.values", [], '"parameters.delta_grid.values" must be positive numbers, got []'),
            ("delta_grid.values", [0.5, 0.0],
             '"parameters.delta_grid.values" must be positive numbers, got [0.5, 0.0]'),
            ("delta_grid.values", [-1], '"parameters.delta_grid.values" must be positive numbers, got [-1]'),
            ("axioms.box", [1], '"parameters.axioms.box" must be [low, high], got [1]'),
            ("axioms.box", [0, 1, 2], '"parameters.axioms.box" must be [low, high], got [0, 1, 2]'),
            ("solver.target_delta", 0, '"parameters.solver.target_delta" must be a positive number, got 0'),
            ("solver.target_delta", -1,
             '"parameters.solver.target_delta" must be a positive number, got -1'),
            ("solver.lambda", 0, '"parameters.solver.lambda" must be a number in (0, 1), got 0'),
            ("solver.lambda", 1, '"parameters.solver.lambda" must be a number in (0, 1), got 1'),
            ("solver.lambda", 2.0, '"parameters.solver.lambda" must be a number in (0, 1), got 2.0'),
            ("solver.n0", 0, '"parameters.solver.n0" must be an integer >= 1, got 0'),
            ("n", 3, '"parameters.n" must be an integer >= 4, got 3'),
        ],
    )
    def test_out_of_range_value_is_refused_under_every_command(
        self, tmp_path, capsys, command, key, value, message
    ):
        # A section the command does not read is bounded all the same.
        cfg = write_config(tmp_path, _with_parameter(ALL_COMMANDS_CONFIG, key, value))
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    @pytest.mark.parametrize("key, value", [("seed", 0), ("solver.n0", 1), ("n", 4)])
    def test_a_bound_admits_its_edge(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, _with_parameter(ALL_COMMANDS_CONFIG, key, value))
        code, out, _ = run_cli([command, "--config", cfg, "--no-timestamp"], capsys)
        assert code == 0
        assert parse_report(out)["config"] == _with_parameter(ALL_COMMANDS_CONFIG, key, value)

    @pytest.mark.parametrize("s", ["x", "2", True])
    def test_non_numeric_metric_s_is_config_error(self, tmp_path, capsys, s):
        cfg = write_config(
            tmp_path, {"metric": {"name": "euclid_1d", "s": s}, "source": {"inline": [1.0, 0.5]}}
        )
        code, out, err = run_cli(["check", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert f'"metric.s" must be a number, got {s!r}' in err

    def test_negative_seed_flag_is_usage_error(self, capsys):
        # The flag is checked where it is parsed, before any config is read.
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "--seed", "-1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "--seed: must be a nonnegative integer, got '-1'" in captured.err

    def test_bad_log_level_falls_back_quietly(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUCHYCERT_LOG", "nonsense")
        code, out, _ = run_cli(["list"], capsys)
        assert code == 0
        parse_report(out)


def test_every_export_is_its_submodules_object():
    for name in cauchycert.__all__:
        assert getattr(cauchycert, name) is getattr(
            importlib.import_module(f"cauchycert.{cauchycert._MODULE_OF[name]}"), name
        )
    assert set(cauchycert.__all__) <= set(dir(cauchycert))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cauchycert.no_such_name


#: ``python -c`` code that puts a finder with the body FINDER (which sees the
#: module ``name``) first on ``sys.meta_path``, then runs ``python -m
#: cauchycert`` with the remaining arguments.
RUN_MAIN_WITH_FINDER = """
import os, runpy, sys
class Finder:
    def find_spec(self, name, path=None, target=None):
        {finder}
sys.meta_path.insert(0, Finder())
runpy.run_module("cauchycert", run_name="__main__", alter_sys=True)
"""

#: ``python -m cauchycert`` with numpy unimportable: the commands that compute
#: nothing start without it.
RUN_MAIN_WITHOUT_NUMPY = RUN_MAIN_WITH_FINDER.format(
    finder='if name.partition(".")[0] == "numpy": raise ImportError("numpy blocked")'
)


class TestSubprocess:
    """The installed entry point, exercised the way a shell user would."""

    def _run(self, args, env_extra=None, cwd=None, code=None, stdin=None, flags=()):
        """``python FLAGS -m cauchycert ARGS``, or ``python FLAGS -c CODE ARGS``."""
        # The child imports this checkout's package, installed or not.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, *flags, *(["-c", code] if code else ["-m", "cauchycert"]), *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            stdin=stdin,
        )

    def test_module_invocation(self):
        proc = self._run(["list"])
        assert proc.returncode == 0
        parse_report(proc.stdout)

    def test_package_import_loads_neither_numpy_nor_jsonschema(self):
        proc = self._run(
            [], code="import sys, cauchycert; print(sorted(set(sys.modules) & {'numpy', 'jsonschema'}))"
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_registry_lists_without_numpy(self):
        proc = self._run([], code=(
            "import sys; from cauchycert.registry import documented; documented(); "
            "print('numpy' in sys.modules)"
        ))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    @pytest.mark.parametrize("env", [
        {"LC_ALL": "C", "PYTHONIOENCODING": "", "PYTHONUTF8": ""},
        {"PYTHONIOENCODING": "utf-8:strict"},
    ])
    def test_non_utf8_config_on_stdin_exits_2(self, tmp_path, env):
        # Stdin is decoded as UTF-8 whatever the locale or PYTHONIOENCODING,
        # so no surrogate reaches a message and no traceback is printed.
        path = tmp_path / "config.json"
        path.write_bytes(b'{"metric": {"name": "euclid_1d\xff"}}')
        with open(path, "rb") as fh:
            proc = self._run(["check", "--config", "-"], env_extra=env, stdin=fh)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "config error: cannot read config '-': "
            "'utf-8' codec can't decode byte 0xff in position 30: invalid start byte\n"
        )

    def test_list_runs_with_jsonschema_unimportable(self):
        proc = self._run(["list", "--no-timestamp"], code=RUN_MAIN_WITH_FINDER.format(
            finder='if name.partition(".")[0] == "jsonschema": raise ImportError("blocked")'
        ))
        assert (proc.returncode, proc.stderr) == (0, "")
        validate_report(parse_report(proc.stdout))

    def test_list_loads_no_numpy(self):
        proc = self._run(["list", "--no-timestamp"], code=RUN_MAIN_WITHOUT_NUMPY)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == GOLDEN_LIST.read_text()

    def test_list_reads_the_schema_without_importlib_resources(self):
        # Under -S no site hook loads it first; the schema is a plain file
        # next to reports.py.
        proc = self._run(["list", "--no-timestamp"], flags=["-S"], code=(
            "import sys; from cauchycert.entry import main; code = main(sys.argv[1:]); "
            "print('importlib.resources' in sys.modules, file=sys.stderr); sys.exit(code)"
        ))
        assert (proc.returncode, proc.stderr) == (0, "False\n")
        assert proc.stdout == GOLDEN_LIST.read_text()

    def test_help_loads_no_numpy(self):
        proc = self._run(["--help"], env_extra={"COLUMNS": "80"}, code=RUN_MAIN_WITHOUT_NUMPY)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, HELP_TEXT[()], "")

    def test_unknown_command_loads_no_numpy(self):
        proc = self._run(["frobnicate"], code=RUN_MAIN_WITHOUT_NUMPY)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: cauchycert")
        assert "cauchycert: error: argument command: invalid choice: 'frobnicate'" in proc.stderr

    @pytest.mark.parametrize("user_value, seen", [(None, "1"), ("3", "3")])
    def test_openblas_threads_default_to_one_and_a_user_value_wins(self, user_value, seen):
        # The finder records the variable at the moment numpy is first
        # imported, which a computing command does.
        env = {} if user_value is None else {"OPENBLAS_NUM_THREADS": user_value}
        proc = self._run(["counterexample", "--no-timestamp"], env_extra=env, code=RUN_MAIN_WITH_FINDER.format(
            finder='if name == "numpy": print("numpy sees", os.environ.get("OPENBLAS_NUM_THREADS"), '
            'file=sys.stderr)'
        ))
        assert (proc.returncode, proc.stderr) == (0, f"numpy sees {seen}\n")

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
    with mock.patch("sys.stdin", byte_stdin(json.dumps(config).encode())), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--config", "-", "--no-timestamp"])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
