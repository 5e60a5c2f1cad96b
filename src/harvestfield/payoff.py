"""Payoff specification: per-harvest reward ``gamma(y, z) = (y - y0) * phi(z)``.

``z`` is the market interaction quantity: either the population's average
harvesting rate or its expected standing stock. ``phi`` is the unit price as
a function of ``z``; a strictly decreasing ``phi`` is the economically
meaningful case, and the one under which the uniqueness / ordering results
hold. A constant ``phi`` is accepted as the degenerate no-interaction case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

__all__ = ["Interaction", "PayoffSpec"]


class Interaction(str, Enum):
    HARVEST_RATE = "harvest_rate"
    EXPECTED_STOCK = "expected_stock"


@dataclass(frozen=True)
class PayoffSpec:
    cost: float                              # K, per-impulse fixed cost
    phi: Callable[[float], float]            # unit price at interaction level z
    interaction: Interaction
    phi_source: Optional[str] = None         # expression text, for reports
    domain: Optional[tuple[float, float]] = None  # attainable z range, filled on resolve

    def with_domain(self, lo: float, hi: float) -> "PayoffSpec":
        return replace(self, domain=(float(lo), float(hi)))
