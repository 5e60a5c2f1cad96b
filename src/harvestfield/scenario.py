"""Scenario files: one JSON object describing a model, a payoff and run options.

Schema::

    {
      "model":   {"kind": "logistic", "q": -1, "b": 0.5, "beta": 1.0, "y0": 1.0}
               | {"kind": "custom", "drift": "<expr in x>", "vol": "<expr in x>", "y0": 1.0},
      "payoff":  {"K": 1.0, "phi": "<expr in z>",
                  "interaction": "harvest_rate" | "expected_stock"},   # optional
      "numerics":   {"scan_points": 500, "stopping_grid_points": 400}, # optional
      "simulation": {<SimConfig field>: value, ...},                   # optional
      "single":   {"z": 0.7},                                          # optional
      "simulate": {"threshold": 5.13, "horizon": 50.0},                # optional
      "sweep":    {"draws": 100}                                       # optional
    }

Expressions use the grammar of :mod:`harvestfield.expressions`. An unknown
key in ``model``, ``numerics`` or ``simulation``, a number field that does not convert
(or a model that overflows while it is built), or ``draws < 1`` raises
:class:`ScenarioError`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .config import DEFAULT_NUMERICS, NumericsConfig
from .diffusion import DiffusionModel, model_from_dict
from .errors import ScenarioError
from .expressions import parse_expression
from .payoff import Interaction, PayoffSpec
from .simulation import SimConfig

__all__ = ["Scenario", "load_scenario", "scenario_from_dict"]


@dataclass
class Scenario:
    model: DiffusionModel
    payoff: Optional[PayoffSpec]
    numerics: NumericsConfig
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


def _build_config(cls_default, section: dict | None, name: str):
    if section is None:
        return cls_default
    if not isinstance(section, dict):
        raise ScenarioError(f"'{name}' must be an object")
    valid = {f.name for f in dataclasses.fields(cls_default)}
    unknown = set(section) - valid
    if unknown:
        raise ScenarioError(f"unknown {name} option(s): {sorted(unknown)}")
    coerced = {}
    for key, value in section.items():
        default = getattr(cls_default, key)
        try:
            if isinstance(default, bool):
                coerced[key] = bool(value)
            elif isinstance(default, int):
                coerced[key] = int(value)
            elif isinstance(default, float):
                coerced[key] = float(value)
            else:
                coerced[key] = value
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"{name}.{key}: {exc}") from exc
    return dataclasses.replace(cls_default, **coerced)


def _field(data: dict, section: str, key: str, source: str, convert=float, default=None):
    """``convert(data[section][key])``, or ``default`` if the key is absent."""
    fields = data.get(section) or {}
    if not isinstance(fields, dict):
        raise ScenarioError(f"{source}: '{section}' must be an object")
    if key not in fields:
        return default
    try:
        return convert(fields[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{source}: {section}.{key}: {exc}") from exc


def scenario_from_dict(data: dict, *, source: str = "<dict>") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: scenario must be a JSON object")
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

    numerics = _build_config(DEFAULT_NUMERICS, data.get("numerics"), "numerics")
    sim = _build_config(SimConfig(), data.get("simulation"), "simulation")

    draws = _field(data, "sweep", "draws", source, int, 100)
    if draws < 1:
        raise ScenarioError(f"{source}: sweep.draws must be at least 1, got {draws}")
    return Scenario(
        model=model,
        payoff=payoff,
        numerics=numerics,
        sim=sim,
        single_z=_field(data, "single", "z", source),
        simulate_threshold=_field(data, "simulate", "threshold", source),
        simulate_horizon=_field(data, "simulate", "horizon", source),
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
