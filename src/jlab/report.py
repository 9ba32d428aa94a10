"""Residual reports: named checks with thresholds and verdicts, all by one
rule, ``within``: a residual passes only if finite and in [0, threshold]."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def within(value, bound):
    """The verdict rule: None, NaN, +-inf and negative values fail; -0.0 passes."""
    return value is not None and 0.0 <= value <= bound and math.isfinite(value)


def worst_of(values):
    """Largest of the values, 0.0 if none, or else the first that no bound passes
    (None, NaN, +-inf or negative): within(worst_of(vs), b) iff all vs pass."""
    worst = 0.0
    for val in values:
        if not within(val, math.inf):
            return val if val is None else float(val)
        worst = max(worst, float(val))
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
        """Record the residual's ``within`` verdict; None is undefined and fails."""
        if residual is not None:
            residual = float(residual)
        self.items.append(CheckItem(name, residual, float(threshold), within(residual, threshold)))
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
