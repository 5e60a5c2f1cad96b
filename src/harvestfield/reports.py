"""Report assembly and deterministic text rendering.

JSON reports keep full precision; the text table prints every number with 6
significant digits. A number that is not finite (a divergent integral, say)
is reported as ``null``, since strict JSON has no NaN or infinity. Rendering
depends only on the report dict contents, so a report re-read from JSON
prints the identical table.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

__all__ = ["build_report", "render_table", "dump_json"]


def _jsonable(obj: Any):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _finite_or_null(value: Any):
    """``value`` with each non-finite float replaced by ``None``, and arrays and tuples as lists."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, np.ndarray):
        return _finite_or_null(value.tolist())
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def build_report(command: str, scenario: dict, results: dict, diagnostics: dict | None = None) -> dict:
    return _finite_or_null({
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
        fh.write(json.dumps(report, indent=2, default=_jsonable, allow_nan=False) + "\n")
