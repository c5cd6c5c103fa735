"""Verification reports: named checks with norms, tolerances, and flags.

Reports serialize to JSON deterministically (checks ordered by name, floats
at 17 significant digits via repr, a non-finite sup or ratio as null) and
are written atomically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .grid import dump_json


@dataclass
class CheckResult:
    name: str
    anchor: str  # the defining formula or property being checked
    sup: float
    count: int
    tol: float
    passed: bool
    flags: dict = dc_field(default_factory=dict)  # sigma, convention, ratios, notes
    grid: dict | None = None
    ratio: float | None = None  # residual drop under h-halving, if measured

    def to_json(self) -> dict:
        d = {
            "name": self.name,
            "anchor": self.anchor,
            "sup_norm": self.sup if math.isfinite(self.sup) else None,  # strict JSON has no nan or inf
            "valid_points": self.count,
            "tolerance": self.tol,
            "passed": self.passed,
        }
        if self.flags:
            d["flags"] = self.flags
        if self.grid is not None:
            d["grid"] = self.grid
        if self.ratio is not None:
            d["convergence_ratio"] = self.ratio if math.isfinite(self.ratio) else None
        return d

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ratio={self.ratio:.3g}" if self.ratio is not None else ""
        notes = "".join(f" {k}={v}" for k, v in self.flags.items() if isinstance(v, str))
        return (
            f"{status}  {self.name}: sup={self.sup:.6g} tol={self.tol:.3g} "
            f"n={self.count}{extra}{notes}"
        )


@dataclass
class VerificationReport:
    checks: list
    config: dict = dc_field(default_factory=dict)
    diagnostics: dict | None = None  # where a run's time went; never serialized

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "passed": self.passed,
            "checks": [c.to_json() for c in sorted(self.checks, key=lambda c: c.name)],
        }

    def write(self, path: str) -> None:
        """Write JSON atomically (temp file in the target directory, then rename)."""
        dump_json(self.to_json(), path)
