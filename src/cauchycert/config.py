"""Experiment configuration: parsing, validation, and resolution.

A config is a JSON object with up to three sections:

* ``metric``    -- {"name": ..., "s": optional override, "params": {...}}
* ``source``    -- one of {"inline": [...]}, {"generator": {...}},
                   {"csv": "path"}, {"orbit": {...}}
* ``parameters`` -- seed, tail window, delta grid, search grids, explicit
                   witness, axiom sampler, solver settings, contraction.

Everything is optional except what the invoked command needs; missing or
contradictory pieces raise :class:`ConfigError`, which the CLI maps to its
configuration exit code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .certificates import delta_grid
from .contractions import Contraction, SolverConfig, iterate, make_contraction
from .errors import CauchyCertError, ConfigError
from .metrics import DbMetric, Point, SamplerConfig, make_metric
from .sequences import (
    SearchConfig,
    SequencePrefix,
    ShiftWitness,
    TailConfig,
    make_sequence,
)


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


def load_config_text(text: str) -> dict:
    try:
        data = json.loads(
            text,
            parse_float=_finite_float,
            parse_int=_float_range_int,
            parse_constant=_finite_float,
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    return data


def _is_number(value) -> bool:
    """A JSON number: int or float, but not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """A JSON integer, but not bool."""
    return _is_number(value) and isinstance(value, int)


def _numbers(value, where: str):
    """``value`` unchanged, after rejecting a JSON boolean anywhere in it:
    the metric, contraction and point constructors convert with ``float()``,
    which would read ``true`` as 1.0."""
    if isinstance(value, bool):
        raise ConfigError(f'"{where}" must be a number, got {value!r}')
    if isinstance(value, list):
        for i, item in enumerate(value):
            _numbers(item, f"{where}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            _numbers(item, f"{where}.{key}")
    return value


#: The keys each ``parameters`` section accepts.
_SECTION_KEYS = {
    "tail": ("tau", "eps"),
    "delta_grid": ("values", "delta0", "levels"),
    "search": ("p_max", "lambdas", "n0_values"),
    "witness": ("p", "lambda", "n0"),
    "axioms": ("box", "pair_count", "triple_count", "grid_points"),
    "solver": ("target_delta", "x0", "lambda", "n0", "block", "max_iterations"),
}

#: The keys each object of a config accepts, by its path from the top; a
#: ``parameters`` key that is not a section holds the setting of one command.
_KEYS = {
    (): ("metric", "source", "parameters"),
    ("metric",): ("name", "s", "params"),
    ("source", "generator"): ("name", "params"),
    ("source", "orbit"): ("contraction", "n", "x0"),
    ("source", "orbit", "contraction"): ("name", "params"),
    ("parameters",): ("seed", *_SECTION_KEYS, "contraction", "n"),
    ("parameters", "contraction"): ("name", "params"),
    **{("parameters", name): keys for name, keys in _SECTION_KEYS.items()},
}


def _reject_unknown_keys(raw: dict) -> None:
    """A misspelt key would otherwise be ignored and its default used."""
    for path, keys in _KEYS.items():
        spec = raw
        for name in path:
            spec = spec.get(name) if isinstance(spec, dict) else None
        unknown = [key for key in spec if key not in keys] if isinstance(spec, dict) else []
        if unknown:
            where = f'"{".".join(path)}"' if path else "the config"
            raise ConfigError(
                f"unknown key {unknown[0]!r} in {where}; expected one of {', '.join(keys)}"
            )


def read_csv_points(path: str, header: bool = False) -> list[list[float]]:
    """One point per row, comma-separated coordinates; malformed rows are
    hard errors reported with their line number."""
    rows: list[list[float]] = []
    width: Optional[int] = None
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read csv {path!r}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, 1):
            if header and lineno == 1:
                continue
            line = raw.strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: malformed row {line!r}") from None
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
    """A parsed config plus lazily resolved pieces the commands pull from."""

    raw: dict
    seed: int

    # -- metric ------------------------------------------------------------
    def metric(self) -> DbMetric:
        section = self.raw.get("metric")
        if not isinstance(section, dict) or "name" not in section:
            raise ConfigError('config needs a "metric" object with a "name"')
        params = section.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError('"metric.params" must be an object')
        s = section.get("s")
        if s is not None and not _is_number(s):
            raise ConfigError(f'"metric.s" must be a number, got {s!r}')
        _numbers(params, "metric.params")
        try:
            return make_metric(section["name"], s=s, **params)
        except CauchyCertError as exc:
            raise ConfigError(str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad metric parameters: {exc}") from exc

    # -- sequence source ---------------------------------------------------
    def sequence(self, metric: DbMetric, csv_header: bool = False) -> SequencePrefix:
        section = self.raw.get("source")
        if not isinstance(section, dict) or len(section) != 1:
            raise ConfigError(
                'config needs a "source" object with exactly one of '
                '"inline", "generator", "csv", "orbit"'
            )
        (kind, spec), = section.items()
        try:
            if kind == "inline":
                return SequencePrefix(_numbers(spec, "source.inline"), metric)
            if kind == "generator":
                if not isinstance(spec, dict) or "name" not in spec:
                    raise ConfigError('"source.generator" needs a "name"')
                params = _numbers(spec.get("params", {}), "source.generator.params")
                return make_sequence(spec["name"], metric, **params)
            if kind == "csv":
                return SequencePrefix(read_csv_points(spec, csv_header), metric)
            if kind == "orbit":
                if not isinstance(spec, dict):
                    raise ConfigError('"source.orbit" must be an object')
                f = self._contraction_from(spec.get("contraction"), "source.orbit.contraction")
                n = spec.get("n")
                if not isinstance(n, int) or n < 2:
                    raise ConfigError('"source.orbit.n" must be an integer >= 2')
                x0 = Point(_numbers(spec.get("x0", 0.0), "source.orbit.x0"))
                return iterate(f, x0, n, metric)
        except ConfigError:
            raise
        except (CauchyCertError, ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        raise ConfigError(f"unknown source kind {kind!r}")

    # -- parameters --------------------------------------------------------
    def _params(self) -> dict:
        params = self.raw.get("parameters", {})
        if not isinstance(params, dict):
            raise ConfigError('"parameters" must be an object')
        return params

    def tail(self) -> TailConfig:
        spec = self._params().get("tail", {})
        try:
            tau, eps = spec.get("tau", 0.5), spec.get("eps", 1e-6)
            if not (_is_number(tau) and _is_number(eps)):
                raise ValueError(f"tau and eps must be numbers, got {tau!r} and {eps!r}")
            return TailConfig(tau=tau, eps=eps)
        except (ValueError, AttributeError) as exc:
            raise ConfigError(f"bad tail parameters: {exc}") from exc

    def deltas(self) -> list[float]:
        spec = self._params().get("delta_grid", {})
        if not isinstance(spec, dict):
            raise ConfigError('"parameters.delta_grid" must be an object')
        if "values" in spec:
            values = spec["values"]
            if not (isinstance(values, list) and values) or any(
                not _is_number(v) or v <= 0 for v in values
            ):
                raise ConfigError("explicit delta values must be positive numbers")
            return [float(v) for v in values]
        delta0, levels = spec.get("delta0", 0.5), spec.get("levels", 7)
        if not (_is_number(delta0) and _is_int(levels)):
            raise ConfigError(
                f'"parameters.delta_grid" needs a number delta0 and an integer levels, '
                f"got {delta0!r} and {levels!r}"
            )
        try:
            return delta_grid(delta0, levels)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def explicit_deltas(self) -> bool:
        return "values" in self._params().get("delta_grid", {})

    def search(self) -> SearchConfig:
        spec = self._params().get("search", {})
        try:
            p_max = spec.get("p_max", 8)
            n0_values = tuple(spec["n0_values"]) if "n0_values" in spec else None
            if not (_is_int(p_max) and all(_is_int(n0) and n0 >= 1 for n0 in n0_values or ())):
                raise ValueError(
                    f"p_max and n0_values must be integers (n0 >= 1), got {p_max!r} and {n0_values!r}"
                )
            return SearchConfig(
                p_max=p_max,
                lambdas=tuple(spec.get("lambdas", SearchConfig.lambdas)),
                n0_values=n0_values,
            )
        except (ValueError, AttributeError, TypeError) as exc:
            raise ConfigError(f"bad search parameters: {exc}") from exc

    def witness_for(self, delta: float) -> Optional[ShiftWitness]:
        """Explicit witness parameters from the config, applied at ``delta``."""
        spec = self._params().get("witness")
        if spec is None:
            return None
        try:
            return ShiftWitness(
                delta=delta,
                p=spec["p"],
                lam=spec.get("lambda", 0.5),
                n0=spec.get("n0", 1),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad witness parameters: {exc}") from exc

    def sampler(self) -> SamplerConfig:
        spec = self._params().get("axioms", {})
        if not isinstance(spec, dict):
            raise ConfigError('"parameters.axioms" must be an object')
        box = spec.get("box", [0.0, 10.0])
        if not (isinstance(box, (list, tuple)) and len(box) == 2 and all(map(_is_number, box))):
            raise ConfigError(f'"parameters.axioms.box" must be [low, high] numbers, got {box!r}')
        for key in ("pair_count", "triple_count", "grid_points"):
            if key in spec and not _is_int(spec[key]):
                raise ConfigError(f'"parameters.axioms.{key}" must be an integer, got {spec[key]!r}')
        try:
            return SamplerConfig(
                pair_count=spec.get("pair_count", 200),
                triple_count=spec.get("triple_count", 200),
                seed=self.seed,
                box_low=float(box[0]),
                box_high=float(box[1]),
                grid_points=spec.get("grid_points", 11),
            )
        except ValueError as exc:
            raise ConfigError(f"bad axiom sampler parameters: {exc}") from exc

    def _contraction_from(self, spec, where: str) -> Contraction:
        if not isinstance(spec, dict) or "name" not in spec:
            raise ConfigError('a contraction spec needs a "name"')
        params = _numbers(spec.get("params", {}), f"{where}.params")
        try:
            return make_contraction(spec["name"], **params)
        except CauchyCertError as exc:
            raise ConfigError(str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad contraction parameters: {exc}") from exc

    def contraction(self) -> Contraction:
        return self._contraction_from(self._params().get("contraction"), "parameters.contraction")

    def solver(self) -> tuple[SolverConfig, Point, float]:
        """Solver settings, the seed point x0 and the target delta."""
        spec = self._params().get("solver", {})
        if not isinstance(spec, dict):
            raise ConfigError('"parameters.solver" must be an object')
        if "target_delta" not in spec:
            raise ConfigError('"parameters.solver.target_delta" is required for solve')
        target_delta = spec["target_delta"]
        if not (_is_number(target_delta) and math.isfinite(target_delta) and target_delta > 0):
            raise ConfigError(
                f'"parameters.solver.target_delta" must be a positive number, got {target_delta!r}'
            )
        for key in ("block", "max_iterations"):
            if key in spec and not _is_int(spec[key]):
                raise ConfigError(f'"parameters.solver.{key}" must be an integer, got {spec[key]!r}')
        n0 = spec.get("n0", 1)
        if not (_is_int(n0) and n0 >= 1):
            raise ConfigError(f'"parameters.solver.n0" must be an integer >= 1, got {n0!r}')
        lam = spec.get("lambda", 0.5)
        if not (_is_number(lam) and 0 < lam < 1):
            raise ConfigError(f'"parameters.solver.lambda" must be a number in (0, 1), got {lam!r}')
        try:
            cfg = SolverConfig(
                lam=lam,
                n0=n0,
                block=spec.get("block", 32),
                max_iterations=spec.get("max_iterations", 10_000),
                tail=self.tail(),
                seed=self.seed,
            )
            x0 = Point(_numbers(spec.get("x0", 0.0), "parameters.solver.x0"))
        except (ValueError, CauchyCertError) as exc:
            raise ConfigError(str(exc)) from exc
        return cfg, x0, target_delta


def make_experiment(raw: dict, seed_override: Optional[int] = None) -> Experiment:
    params = raw.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError('"parameters" must be an object')
    _reject_unknown_keys(raw)
    seed = params.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    # Echo the effective seed so the recorded config is self-contained.
    echoed = dict(raw)
    echoed["parameters"] = dict(params)
    echoed["parameters"]["seed"] = seed
    return Experiment(raw=echoed, seed=seed)
