"""Scenario files: one JSON object describing a model, a payoff and run options.

Schema::

    {
      "model":   {"kind": "logistic", "q": -1, "b": 0.5, "beta": 1.0, "y0": 1.0}
               | {"kind": "custom", "drift": "<expr in x>", "vol": "<expr in x>", "y0": 1.0},
      "payoff":  {"K": 1.0, "phi": "<expr in z>",
                  "interaction": "harvest_rate" | "expected_stock"},   # optional
      "simulation": {<SimConfig field>: value, ...},                   # optional
      "single":   {"z": 0.7},                                          # optional
      "simulate": {"threshold": 5.13, "horizon": 50.0},                # optional
      "sweep":    {"draws": 100}                                       # optional
    }

Expressions use the grammar of :mod:`harvestfield.expressions`. A top-level
key other than these six sections, an unknown key in ``model`` or
``simulation`` (``dt``, ``horizon``, ``seed``, ``chunk_size``), a number field
that does not convert or lies out of range (``dt <= 0``, a negative ``seed``,
a ``simulate.horizon <= 0``, a non-finite ``simulate.threshold``, a logistic
``b <= 0``, ...), a model that overflows while it is built, or ``draws < 1``
raises :class:`ScenarioError`, whose message starts with the scenario's path.
A number field takes no ``true``/``false``, and an integer field (``seed``,
``chunk_size``, ``draws``) takes no fraction.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .diffusion import DiffusionModel, model_from_dict
from .errors import ScenarioError
from .expressions import parse_expression
from .payoff import Interaction, PayoffSpec
from .simulation import SimConfig

__all__ = ["Scenario", "load_scenario", "scenario_from_dict"]

_SECTIONS = frozenset({"model", "payoff", "simulation", "single", "simulate", "sweep"})


@dataclass
class Scenario:
    model: DiffusionModel
    payoff: Optional[PayoffSpec]
    sim: SimConfig
    single_z: Optional[float]
    simulate_threshold: Optional[float]
    simulate_horizon: Optional[float]
    sweep_draws: int
    raw: dict

    def require_payoff(self) -> PayoffSpec:
        if self.payoff is None:
            raise ScenarioError("this command needs a 'payoff' section in the scenario")
        return self.payoff


def _convert(value, kind):
    """``value`` as an ``int`` or ``float``, refusing a conversion that would change it."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if kind is int and not isinstance(value, int):
        number = float(value)
        if not number.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return int(number)
    return kind(value)


def _build_config(cls_default, section: dict | None, name: str, source: str):
    if section is None:
        return cls_default
    if not isinstance(section, dict):
        raise ScenarioError(f"{source}: '{name}' must be an object")
    valid = {f.name for f in dataclasses.fields(cls_default)}
    unknown = set(section) - valid
    if unknown:
        raise ScenarioError(f"{source}: unknown {name} option(s): {sorted(unknown)}")
    coerced = {}
    for key, value in section.items():
        try:
            coerced[key] = _convert(value, type(getattr(cls_default, key)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"{source}: {name}.{key}: {exc}") from exc
    try:
        return dataclasses.replace(cls_default, **coerced)
    except ValueError as exc:   # the section's own range checks raise DomainError
        raise ScenarioError(f"{source}: {name}: {exc}") from exc


def _field(data: dict, section: str, key: str, source: str, kind=float, default=None):
    """``data[section][key]`` converted to ``kind``, or ``default`` if the key is absent."""
    fields = data.get(section) or {}
    if not isinstance(fields, dict):
        raise ScenarioError(f"{source}: '{section}' must be an object")
    if key not in fields:
        return default
    try:
        return _convert(fields[key], kind)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{source}: {section}.{key}: {exc}") from exc


def scenario_from_dict(data: dict, *, source: str = "<dict>") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: scenario must be a JSON object")
    unknown = set(data) - _SECTIONS
    if unknown:
        raise ScenarioError(f"{source}: unknown section(s): {sorted(unknown)}")
    if "model" not in data:
        raise ScenarioError(f"{source}: missing 'model' section")
    try:
        model = model_from_dict(data["model"])
    except (TypeError, ValueError, ArithmeticError) as exc:  # DomainError is a ValueError
        raise ScenarioError(f"{source}: model: {exc}") from exc

    payoff = None
    if "payoff" in data:
        spec = data["payoff"]
        if not isinstance(spec, dict):
            raise ScenarioError(f"{source}: 'payoff' must be an object")
        for key in ("K", "phi", "interaction"):
            if key not in spec:
                raise ScenarioError(f"{source}: payoff is missing '{key}'")
        try:
            interaction = Interaction(spec["interaction"])
        except ValueError:
            raise ScenarioError(
                f"{source}: interaction must be one of "
                f"{[i.value for i in Interaction]}, got {spec['interaction']!r}"
            )
        phi = parse_expression(spec["phi"], "z")
        payoff = PayoffSpec(
            cost=_field(data, "payoff", "K", source),
            phi=phi,
            interaction=interaction,
            phi_source=spec["phi"],
        )

    sim = _build_config(SimConfig(), data.get("simulation"), "simulation", source)

    draws = _field(data, "sweep", "draws", source, int, 100)
    if draws < 1:
        raise ScenarioError(f"{source}: sweep.draws must be at least 1, got {draws}")
    horizon = _field(data, "simulate", "horizon", source)
    if horizon is not None and not 0.0 < horizon < math.inf:   # also rejects NaN
        raise ScenarioError(f"{source}: simulate.horizon must be positive and finite, got {horizon}")
    threshold = _field(data, "simulate", "threshold", source)
    if threshold is not None and not math.isfinite(threshold):
        raise ScenarioError(f"{source}: simulate.threshold must be finite, got {threshold}")
    return Scenario(
        model=model,
        payoff=payoff,
        sim=sim,
        single_z=_field(data, "single", "z", source),
        simulate_threshold=threshold,
        simulate_horizon=horizon,
        sweep_draws=draws,
        raw=data,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    return scenario_from_dict(data, source=str(path))
