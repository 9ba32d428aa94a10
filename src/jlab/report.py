"""Residual reports: named checks with thresholds and verdicts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def worst_of(values):
    """Largest of the values, 0.0 if none; a NaN, once seen, is the worst."""
    worst = 0.0
    for val in values:
        val = float(val)
        # NaN compares false: it replaces any worst value and is never replaced
        worst = worst if val <= worst or math.isnan(worst) else val
    return worst


@dataclass(frozen=True)
class CheckItem:
    name: str
    residual: float | None
    threshold: float
    passed: bool


@dataclass
class ResidualReport:
    """Outcome of a bundle of residual checks.

    Items carry one residual each; extras hold non-residual payload
    (counts, flags, condition numbers) that accompanies the verdict.
    """

    items: list[CheckItem] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def add(self, name, residual, threshold):
        """Record residual <= threshold; None records an undefined, failed check."""
        if residual is not None:
            residual = float(residual)
        ok = residual is not None and math.isfinite(residual) and residual <= threshold
        self.items.append(CheckItem(name, residual, float(threshold), ok))
        return self

    @property
    def passed(self):
        return all(item.passed for item in self.items)

    def item(self, name):
        for item in self.items:
            if item.name == name:
                return item
        raise KeyError(name)

    def to_dict(self):
        """JSON-ready form; an undefined or non-finite residual is written as null."""
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": it.name,
                    "residual": it.residual
                    if it.residual is not None and math.isfinite(it.residual)
                    else None,
                    "threshold": it.threshold,
                    "passed": it.passed,
                }
                for it in self.items
            ],
            "extras": dict(self.extras),
        }
