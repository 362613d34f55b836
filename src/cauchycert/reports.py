"""Run report assembly, schema validation, and serialization.

Reports are deterministic: the same command, config and seed produce
byte-identical JSON once timestamps are suppressed.  Keys are sorted on
serialization so dict construction order never leaks into the output.
"""

from __future__ import annotations

import datetime as _dt
import importlib.resources
import json
from typing import Optional

import jsonschema

from . import __version__
from .errors import DivergenceError
from .metrics import to_json

REPORT_VERSION = 1


def load_schema() -> dict:
    text = importlib.resources.files("cauchycert").joinpath("report_schema.json").read_text()
    return json.loads(text)


_VALIDATOR: Optional[jsonschema.Draft202012Validator] = None


def validate_report(report: dict) -> None:
    """Raise jsonschema.ValidationError if the report violates the schema.

    The error is the one ``jsonschema.validate`` would raise.  The shipped
    schema itself is not re-checked against its metaschema here, which costs
    more than the validation; the test suite checks it once.
    """
    global _VALIDATOR
    if _VALIDATOR is None:
        _VALIDATOR = jsonschema.Draft202012Validator(load_schema())
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(report))
    if error is not None:
        raise error


def build_report(
    command: str,
    config_echo: dict,
    results,
    seed: int,
    include_timestamp: bool = True,
    elapsed: Optional[float] = None,
) -> dict:
    """Assemble the envelope around per-command results, which
    :func:`~cauchycert.metrics.to_json` turns into JSON values.

    The config echo is self-contained: re-running it with the recorded seed
    reproduces the report bit-for-bit.  ``include_timestamp=False`` drops both
    the timestamp and the timing field, which is what byte-identity tests
    rely on.  A report off the schema is a bug and raises ``DivergenceError``.
    """
    report = {
        "report_version": REPORT_VERSION,
        "tool": {"name": "cauchycert", "version": __version__},
        "command": command,
        "seed": seed,
        "config": config_echo,
        "results": to_json(results),
    }
    if include_timestamp:
        report["timestamp"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
        if elapsed is not None:
            report["timing_seconds"] = elapsed
    try:
        validate_report(report)
    except jsonschema.ValidationError as exc:
        raise DivergenceError(f"the report fails its schema: {exc.message}") from exc
    return report


def dump_report(report: dict, out_path: Optional[str] = None) -> str:
    """Serialize with sorted keys; write to ``out_path`` or return the text.

    NaN and infinities are refused: they are not JSON.
    """
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(text)
    return text
