"""Experiment configuration: parsing, validation, and resolution.

A config is a JSON object with up to three sections:

* ``metric``    -- {"name": ..., "s": optional override, "params": {...}}
* ``source``    -- one of {"inline": [...]}, {"generator": {...}},
                   {"csv": "path"}, {"orbit": {...}}
* ``parameters`` -- seed, tail window, delta grid, search grids, explicit
                   witness, axiom sampler, solver settings, contraction.

Everything is optional except what the invoked command needs.  The key table
gives every accepted key its JSON kind, and some keys a range, and
:func:`make_experiment` checks the whole config against it once, whichever
command runs.  Unknown keys, values of the wrong kind or out of range, and
missing or contradictory pieces raise :class:`ConfigError`, which the CLI
maps to its configuration exit code.  The ranges that a library type checks
(``TailConfig``, ``SearchConfig`` and the like) are checked when a command
builds that type from its section.
"""

from __future__ import annotations

import codecs
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .certificates import delta_grid
from .contractions import Contraction, SolverConfig, iterate, make_contraction
from .errors import CauchyCertError, ConfigError
from .metrics import DbMetric, Point, SamplerConfig, make_metric
from .registry import factory
from .sequences import SearchConfig, SequencePrefix, ShiftWitness, TailConfig


def _finite_float(text: str) -> float:
    """A JSON number, or one of the non-JSON constants NaN, Infinity and
    -Infinity that Python's parser accepts, as a float; it must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config holds {text}, which is not a finite float")
    return value


def _float_range_int(text: str) -> int:
    """A JSON integer that converts to a finite float."""
    _finite_float(text)
    return int(text)


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are distinct; JSON would keep the last of two."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config repeats the key {key!r}; only one value can hold")
        data[key] = value
    return data


def load_config_text(text: str) -> dict:
    """The config object in ``text``, after one leading byte-order mark."""
    try:
        data = json.loads(
            text.removeprefix("\ufeff"),
            object_pairs_hook=_unique_keys,
            parse_float=_finite_float,
            parse_int=_float_range_int,
            parse_constant=_finite_float,
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    return data


def _number(value) -> bool:
    """A JSON number: int or float, but not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


def _free(value) -> bool:
    """A number or a list of free-form values."""
    return _number(value) or isinstance(value, list) and all(map(_free, value))


#: Leaf kinds: the name an error gives each, and its test.  In the key table
#: a kind may be followed by a range, a second name and test, for a value
#: that no library type checks when the config is read.
NUMBER = ("a number", _number)
INTEGER = ("an integer", _integer)
STRING = ("a string", lambda value: isinstance(value, str))
NUMBERS = ("a list of numbers", _list_of(_number))
INTEGERS = ("a list of integers", _list_of(_integer))
#: A free-form value, handed on to a registry factory or to ``Point``.
#: Booleans and numeric strings are no numbers, though ``float()`` reads
#: ``true`` as 1.0 and ``"0.5"`` as 0.5.
FREE = ("a number or a list of numbers", _free)
#: An object of free-form values under any keys; ``"*"`` matches every key.
PARAMS = {"*": FREE}
_CONTRACTION = {"name": STRING, "params": PARAMS}

#: Every key a config accepts, with its kind and, for some, its range.  A
#: dict is an object that takes exactly the listed keys: a misspelt key would
#: otherwise be ignored and its default used.  ``parameters.n`` is read by
#: ``counterexample``.
_TABLE = {
    "metric": {"name": STRING, "s": NUMBER, "params": PARAMS},
    "source": {
        "inline": FREE,
        "generator": {"name": STRING, "params": PARAMS},
        "csv": STRING,
        "orbit": {"contraction": _CONTRACTION, "n": INTEGER, "x0": FREE},
    },
    "parameters": {
        "seed": INTEGER + ("a nonnegative integer", lambda v: v >= 0),
        "tail": {"tau": NUMBER, "eps": NUMBER},
        "delta_grid": {
            "values": NUMBERS + ("positive numbers", lambda v: bool(v) and min(v) > 0),
            "delta0": NUMBER,
            "levels": INTEGER,
        },
        "search": {"p_max": INTEGER, "lambdas": NUMBERS, "n0_values": INTEGERS},
        "witness": {"p": INTEGER, "lambda": NUMBER, "n0": INTEGER},
        "axioms": {
            "box": NUMBERS + ("[low, high]", lambda v: len(v) == 2),
            "pair_count": INTEGER,
            "triple_count": INTEGER,
            "grid_points": INTEGER,
        },
        "solver": {
            "target_delta": NUMBER + ("a positive number", lambda v: v > 0),
            "x0": FREE,
            "lambda": NUMBER + ("a number in (0, 1)", lambda v: 0 < v < 1),
            "n0": INTEGER + ("an integer >= 1", lambda v: v >= 1),
            "block": INTEGER,
            "max_iterations": INTEGER,
        },
        "contraction": _CONTRACTION,
        "n": INTEGER + ("an integer >= 4", lambda v: v >= 4),
    },
}


def _check(value, kind, path: str) -> None:
    """Raise :class:`ConfigError` unless ``value``, found at ``path``, has
    ``kind`` and lies in the kind's range, if it has one."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f'"{path}" must be an object, got {value!r}')
        for key, item in value.items():
            sub = kind.get(key, kind.get("*"))
            if sub is None:
                where = f'"{path}"' if path else "the config"
                raise ConfigError(
                    f"unknown key {key!r} in {where}; expected one of {', '.join(kind)}"
                )
            _check(item, sub, f"{path}.{key}" if path else key)
    else:
        for name, test in zip(kind[::2], kind[1::2]):
            if not test(value):
                raise ConfigError(f'"{path}" must be {name}, got {value!r}')


def _required(spec: dict, key: str, where: str):
    if key not in spec:
        raise ConfigError(f'"{where}.{key}" is required')
    return spec[key]


@contextmanager
def _building(what: str):
    """A library constructor's rejection of a setting, as a config error.

    ``TypeError`` comes from the name table's factories, whose free-form
    ``params`` the table cannot type: an unknown parameter name, or a list
    where a number belongs.
    """
    try:
        yield
    except CauchyCertError as exc:
        raise ConfigError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def read_csv_points(path: str, header: bool = False) -> list[list[float]]:
    """One point per row, comma-separated coordinates; malformed rows,
    non-finite values and lines that are not UTF-8 are hard errors reported
    with their line number.

    Blank lines are skipped; with ``header``, so is the first nonblank line.
    The file is UTF-8, and one leading byte-order mark is dropped.  Lines end
    at ``\\n``, ``\\r\\n`` or ``\\r``, as in text mode.
    """
    rows: list[list[float]] = []
    width: Optional[int] = None
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read csv {path!r}: {exc}") from exc
    # Each line is decoded on its own: text I/O decodes in blocks, so its
    # error cannot name the line.
    for lineno, raw in enumerate(data.removeprefix(codecs.BOM_UTF8).splitlines(), 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}:{lineno}: not UTF-8") from None
        if not line:
            continue
        if header:
            header = False
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed row {line!r}") from None
        if not all(map(math.isfinite, row)):
            bad = next(c for c, v in zip(cells, row) if not math.isfinite(v))
            raise ConfigError(f"{path}:{lineno}: non-finite value {bad!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ConfigError(
                f"{path}:{lineno}: expected {width} coordinates, got {len(row)}"
            )
        rows.append(row)
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least 2 points, got {len(rows)}")
    return rows


@dataclass
class Experiment:
    """A parsed config plus lazily resolved pieces the commands pull from.

    Every value in ``raw`` already has the kind the key table gives it.  The
    getters apply defaults and hand the values to the library constructors,
    which check their ranges.
    """

    raw: dict
    seed: int

    # -- metric ------------------------------------------------------------
    def metric(self) -> DbMetric:
        section = self.raw.get("metric", {})
        name = _required(section, "name", "metric")
        with _building("metric parameters"):
            return make_metric(name, s=section.get("s"), **section.get("params", {}))

    # -- sequence source ---------------------------------------------------
    def sequence(self, metric: DbMetric, csv_header: bool = False) -> SequencePrefix:
        section = self.raw.get("source", {})
        if len(section) != 1:
            raise ConfigError(
                'config needs a "source" object with exactly one of '
                '"inline", "generator", "csv", "orbit"'
            )
        (kind, spec), = section.items()
        with _building("source"):
            if kind == "inline":
                return SequencePrefix(spec, metric)
            if kind == "csv":
                return SequencePrefix(read_csv_points(spec, csv_header), metric)
            if kind == "generator":
                name = _required(spec, "name", "source.generator")
                return SequencePrefix(factory("generators", name)(**spec.get("params", {})), metric)
            f = self._contraction_from(spec.get("contraction", {}), "source.orbit.contraction")
            n = _required(spec, "n", "source.orbit")
            return iterate(f, Point(spec.get("x0", 0.0)), n, metric)

    # -- parameters --------------------------------------------------------
    def _section(self, name: str) -> dict:
        return self.raw["parameters"].get(name, {})

    def tail(self) -> TailConfig:
        with _building("tail parameters"):
            return TailConfig(**self._section("tail"))

    def deltas(self) -> list[float]:
        spec = self._section("delta_grid")
        if "values" in spec:
            if len(spec) > 1:
                raise ConfigError('"parameters.delta_grid" takes "values" or "delta0"/"levels", not both')
            return [float(v) for v in spec["values"]]
        with _building("delta grid"):
            return delta_grid(**spec)

    def search(self) -> SearchConfig:
        # The grids are JSON lists; SearchConfig holds tuples.
        spec = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in self._section("search").items()
        }
        with _building("search parameters"):
            return SearchConfig(**spec)

    def witness_for(self, delta: float) -> ShiftWitness:
        """Explicit witness parameters from the config, applied at ``delta``."""
        spec = self._section("witness")
        p = _required(spec, "p", "parameters.witness")
        with _building("witness parameters"):
            return ShiftWitness(delta=delta, p=p, lam=spec.get("lambda", 0.5), n0=spec.get("n0", 1))

    def sampler(self) -> SamplerConfig:
        spec = dict(self._section("axioms"))
        if "box" in spec:
            low, high = spec.pop("box")
            spec.update(box_low=float(low), box_high=float(high))
        with _building("axiom sampler parameters"):
            return SamplerConfig(seed=self.seed, **spec)

    def _contraction_from(self, spec: dict, where: str) -> Contraction:
        name = _required(spec, "name", where)
        with _building("contraction parameters"):
            return make_contraction(name, **spec.get("params", {}))

    def contraction(self) -> Contraction:
        return self._contraction_from(self._section("contraction"), "parameters.contraction")

    def solver(self) -> tuple[SolverConfig, Point, float]:
        """Solver settings, the seed point x0 and the target delta.

        A setting left out takes the ``SolverConfig`` default.
        """
        spec = self._section("solver")
        target_delta = _required(spec, "target_delta", "parameters.solver")
        settings = {
            "lam" if key == "lambda" else key: value
            for key, value in spec.items()
            if key not in ("target_delta", "x0")
        }
        eps = self.tail().eps
        with _building("solver parameters"):
            cfg = SolverConfig(eps=eps, seed=self.seed, **settings)
            return cfg, Point(spec.get("x0", 0.0)), target_delta


def make_experiment(raw: dict, seed_override: Optional[int] = None) -> Experiment:
    """Check every key and value of ``raw`` against the key table, whichever
    command runs, and fix the effective seed.  ``seed_override`` is the
    CLI's ``--seed``, whose parser takes only a nonnegative integer."""
    _check(raw, _TABLE, "")
    params = raw.get("parameters", {})
    seed = params.get("seed", 0) if seed_override is None else seed_override
    # Echo the effective seed so the recorded config is self-contained.
    echoed = dict(raw, parameters=dict(params, seed=seed))
    return Experiment(raw=echoed, seed=seed)
