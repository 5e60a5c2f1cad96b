"""Report assembly and deterministic text rendering.

JSON reports keep full precision; the text table prints every number with 6
significant digits. A number that is not finite (a divergent integral, say)
is reported as ``null``, since strict JSON has no NaN or infinity. Rendering
depends only on the report dict contents, so a report re-read from JSON
prints the identical table.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

__all__ = ["build_report", "render_table", "dump_json"]


def _plain(value: Any):
    """``value`` as JSON-ready Python: dataclasses as dicts of their fields in order, tuples
    and arrays as lists, numpy scalars as Python numbers and non-finite floats as ``None``."""
    if isinstance(value, float):   # numpy's float64 included
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, np.generic):
        return _plain(value.item())
    return value


def build_report(command: str, scenario: dict, results, diagnostics: dict | None = None) -> dict:
    """The report of one command, converted by one walk; ``results`` may be a result object."""
    return _plain({
        "command": command,
        "scenario": scenario,
        "results": results,
        "diagnostics": diagnostics or {},
    })


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_lines(prefix: str, value: Any, lines: list[str]) -> None:
    if isinstance(value, dict):
        for key in value:
            _render_lines(f"{prefix}{key}.", value[key], lines)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            lines.append(f"{prefix[:-1]:<44} {', '.join(_fmt(v) for v in value)}")
        else:
            for i, v in enumerate(value):
                _render_lines(f"{prefix}{i}.", v, lines)
    else:
        lines.append(f"{prefix[:-1]:<44} {_fmt(value)}")


def render_table(report: dict) -> str:
    """Human-readable table for a report dict; stable across JSON round-trips."""
    lines = [f"harvestfield {report.get('command', '?')}", "-" * 60]
    _render_lines("", report.get("results", {}), lines)
    diagnostics = report.get("diagnostics") or {}
    if diagnostics:
        lines.append("-" * 60)
        _render_lines("diag.", diagnostics, lines)
    return "\n".join(lines) + "\n"


def dump_json(report: dict, path) -> None:
    """Write the report as indented strict JSON in one write; a non-finite float raises."""
    with open(path, "w") as fh:
        fh.write(json.dumps(report, indent=2, allow_nan=False) + "\n")
