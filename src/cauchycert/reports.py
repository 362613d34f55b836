"""Run report assembly, schema validation, and serialization.

Reports are deterministic: the same command, config and seed produce
byte-identical JSON once timestamps are suppressed.  Keys are sorted on
serialization so dict construction order never leaks into the output.

Every report is checked against the shipped ``report_schema.json`` (JSON
Schema draft 2020-12) by the small validator below.  It implements exactly
the keywords that schema uses (see ``_KEYWORDS``), so a CLI process needs no
jsonschema import; the tests hold its verdicts equal to jsonschema's.  Every
object the schema closes is closed by ``additionalProperties: false``, which
reads only its own schema's ``properties``, so each keyword is a check on
its own.
"""

from __future__ import annotations

import datetime as _dt
import importlib.resources
import json
from typing import Optional

from . import __version__
from .errors import DivergenceError
from .metrics import to_json

REPORT_VERSION = 1


def load_schema() -> dict:
    text = importlib.resources.files("cauchycert").joinpath("report_schema.json").read_text()
    return json.loads(text)


class SchemaError(ValueError):
    """A report off its schema.

    ``message`` is worded as jsonschema words it, and ``path`` holds the keys
    and list indices from the report's root to the offending value.
    """

    def __init__(self, message: str, path: tuple = ()):
        super().__init__(message)
        self.message = message
        self.path = path

    def __str__(self) -> str:
        if not self.path:
            return self.message
        return f"{self.message} (at {'/'.join(map(str, self.path))})"


def _is_number(instance) -> bool:
    return isinstance(instance, (int, float)) and not isinstance(instance, bool)


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}


def _has_type(instance, types) -> bool:
    """Whether the instance has the JSON type, or one of the types in a list.

    Booleans are not numbers, and an integral float is an integer.
    """
    for name in [types] if isinstance(types, str) else types:
        if name == "number":
            if _is_number(instance):
                return True
        elif name == "integer":
            if _is_number(instance) and (isinstance(instance, int) or instance.is_integer()):
                return True
        elif isinstance(instance, _JSON_TYPES[name]):
            return True
    return False


def _json_equal(a, b) -> bool:
    """Equality of JSON values: booleans are not numbers, 1 equals 1.0."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


def _unexpected(extras: list) -> str:
    verb = "was" if len(extras) == 1 else "were"
    return f"{', '.join(map(repr, extras))} {verb} unexpected"


class _Validator:
    """Checks an instance against one schema; ``check`` raises :class:`SchemaError`.

    Each keyword method checks its keyword and raises on the first error;
    none depends on what another keyword evaluated.
    """

    def __init__(self, schema: dict):
        self.root = schema

    def check(self, instance) -> None:
        self._descend(self.root, instance)

    def _descend(self, schema: dict, instance) -> None:
        for keyword, value in schema.items():
            if keyword not in _SKIPPED:
                _KEYWORDS[keyword](self, value, instance, schema)

    def _child(self, schema, instance, key) -> None:
        try:
            self._descend(schema, instance)
        except SchemaError as exc:
            exc.path = (key,) + exc.path
            raise

    def _resolve(self, ref: str) -> dict:
        target = self.root
        for token in ref.removeprefix("#/").split("/"):
            target = target[token]
        return target

    def _meant_for(self, schema, instance) -> bool:
        """Whether the ``type`` a schema declares, through ``$ref``, admits the instance."""
        while "type" not in schema and "$ref" in schema:
            schema = self._resolve(schema["$ref"])
        return "type" in schema and _has_type(instance, schema["type"])

    # -- keywords for any instance ---------------------------------------

    def _type(self, types, instance, schema):
        if not _has_type(instance, types):
            names = [types] if isinstance(types, str) else types
            raise SchemaError(f"{instance!r} is not of type {', '.join(map(repr, names))}")

    def _const(self, const, instance, schema):
        if not _json_equal(instance, const):
            raise SchemaError(f"{const!r} was expected")

    def _enum(self, enum, instance, schema):
        if not any(_json_equal(instance, item) for item in enum):
            raise SchemaError(f"{instance!r} is not one of {enum!r}")

    def _ref(self, ref, instance, schema):
        self._descend(self._resolve(ref), instance)

    def _all_of(self, subschemas, instance, schema):
        for sub in subschemas:
            self._descend(sub, instance)

    def _any_of(self, subschemas, instance, schema):
        errors = []
        for sub in subschemas:
            try:
                self._descend(sub, instance)
                return
            except SchemaError as exc:
                errors.append((sub, exc))
        # The one branch meant for this kind of value says best what is wrong.
        typed = [exc for sub, exc in errors if self._meant_for(sub, instance)]
        if len(typed) == 1:
            raise typed[0]
        raise SchemaError(f"{instance!r} is not valid under any of the given schemas")

    def _if(self, condition, instance, schema):
        try:
            self._descend(condition, instance)
        except SchemaError:
            branch = "else"
        else:
            branch = "then"
        if branch in schema:
            self._descend(schema[branch], instance)

    # -- numbers -----------------------------------------------------------

    def _minimum(self, minimum, instance, schema):
        if _is_number(instance) and instance < minimum:
            raise SchemaError(f"{instance!r} is less than the minimum of {minimum!r}")

    def _exclusive_minimum(self, minimum, instance, schema):
        if _is_number(instance) and instance <= minimum:
            raise SchemaError(f"{instance!r} is less than or equal to the minimum of {minimum!r}")

    def _exclusive_maximum(self, maximum, instance, schema):
        if _is_number(instance) and instance >= maximum:
            raise SchemaError(f"{instance!r} is greater than or equal to the maximum of {maximum!r}")

    # -- arrays ------------------------------------------------------------

    def _items(self, items, instance, schema):
        if isinstance(instance, list):
            for index, item in enumerate(instance):
                self._child(items, item, index)

    def _min_items(self, bound, instance, schema):
        if isinstance(instance, list) and len(instance) < bound:
            raise SchemaError(f"{instance!r} {'should be non-empty' if bound == 1 else 'is too short'}")

    def _max_items(self, bound, instance, schema):
        if isinstance(instance, list) and len(instance) > bound:
            raise SchemaError(f"{instance!r} {'is expected to be empty' if bound == 0 else 'is too long'}")

    # -- objects -----------------------------------------------------------

    def _required(self, names, instance, schema):
        if isinstance(instance, dict):
            for name in names:
                if name not in instance:
                    raise SchemaError(f"{name!r} is a required property")

    def _properties(self, properties, instance, schema):
        if isinstance(instance, dict):
            for name, sub in properties.items():
                if name in instance:
                    self._child(sub, instance[name], name)

    def _additional_properties(self, additional, instance, schema):
        if not isinstance(instance, dict):
            return
        known = schema.get("properties", {})
        extras = [name for name in instance if name not in known]
        if additional is False:
            if extras:
                raise SchemaError(f"Additional properties are not allowed ({_unexpected(extras)})")
        else:
            for name in extras:
                self._child(additional, instance[name], name)


#: The assertion and applicator keywords, by the method that applies each.
_KEYWORDS = {
    "type": _Validator._type,
    "const": _Validator._const,
    "enum": _Validator._enum,
    "$ref": _Validator._ref,
    "allOf": _Validator._all_of,
    "anyOf": _Validator._any_of,
    "if": _Validator._if,
    "minimum": _Validator._minimum,
    "exclusiveMinimum": _Validator._exclusive_minimum,
    "exclusiveMaximum": _Validator._exclusive_maximum,
    "items": _Validator._items,
    "minItems": _Validator._min_items,
    "maxItems": _Validator._max_items,
    "required": _Validator._required,
    "properties": _Validator._properties,
    "additionalProperties": _Validator._additional_properties,
}

#: Keywords that ``_descend`` does not dispatch: ``then`` and ``else`` run
#: under ``if``, and the rest assert nothing.
_SKIPPED = frozenset({"then", "else", "$schema", "title", "$defs"})

_VALIDATOR: Optional[_Validator] = None


def validate_report(report: dict) -> None:
    """Raise :class:`SchemaError` if the report violates the shipped schema.

    The verdict is jsonschema's Draft 2020-12 verdict, which the tests check
    on every golden report under many mutations.  The messages of the common
    errors are jsonschema's too ("'x' is a required property", "Additional
    properties are not allowed ('x' was unexpected)").  Where an ``anyOf``
    fails, the error comes from the branch whose ``type`` matches the value.
    """
    global _VALIDATOR
    if _VALIDATOR is None:
        _VALIDATOR = _Validator(load_schema())
    _VALIDATOR.check(report)


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
    except SchemaError as exc:
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
