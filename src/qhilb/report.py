"""Residual reports: checkers return numbers, they never raise on
axiom failure."""

from __future__ import annotations

from collections.abc import Mapping
from math import isnan

__all__ = ["ResidualReport"]


class ResidualReport(Mapping):
    """Ordered map check-name -> Frobenius residual, plus informational
    scalars that do not participate in pass/fail."""

    def __init__(self):
        self.residuals: dict[str, float] = {}
        self.info: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.residuals[name] = float(value)

    def add_info(self, name: str, value: float) -> None:
        self.info[name] = float(value)

    def extend(self, prefix: str, other: "ResidualReport") -> None:
        for k, v in other.residuals.items():
            self.add(f"{prefix}{k}", v)
        for k, v in other.info.items():
            self.add_info(f"{prefix}{k}", v)

    def __getitem__(self, key):
        return self.residuals[key]

    def __iter__(self):
        return iter(self.residuals)

    def __len__(self):
        return len(self.residuals)

    @property
    def max_residual(self) -> float:
        return self.worst()[1]

    def worst(self) -> tuple[str, float]:
        """The first ``nan`` row if there is one, else the first largest
        row; ``("", 0.0)`` on no rows."""
        if not self.residuals:
            return ("", 0.0)
        name = next((k for k, v in self.residuals.items() if isnan(v)), None)
        if name is None:
            name = max(self.residuals, key=self.residuals.get)
        return name, self.residuals[name]

    def passes(self, limit: float) -> bool:
        return all(v <= limit for v in self.residuals.values())

    def rows(self, limit: float):
        for name, value in self.residuals.items():
            yield name, value, limit, value <= limit

    def __repr__(self):
        name, value = self.worst()
        return f"ResidualReport({len(self.residuals)} checks, worst {name}={value:.3e})"
