"""Shared result containers for audits and power-law fits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .surface import _finite_array

__all__ = ["AuditReport", "PowerLawFit", "fit_power_law"]


@dataclass
class AuditReport:
    """Outcome of one randomized or exhaustive audit.

    stats holds scalar summaries (counts, extremes, medians); failures holds
    up to a handful of concrete counterexamples for debugging.  The JSON key
    for the boolean is "pass" ("passed" is used on the dataclass because
    "pass" is a Python keyword).
    """

    name: str
    passed: bool
    samples: int = 0
    stats: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "samples": int(self.samples),
            "stats": _plain(self.stats),
            "failures": _plain(self.failures),
        }


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of log(y) = exponent * log(x) + log_prefactor."""

    exponent: float
    log_prefactor: float
    r_squared: float
    n: int


def fit_power_law(x, y) -> PowerLawFit:
    """OLS fit of a power law through positive finite samples (x_i, y_i)."""
    x, y = _finite_array(x=x, y=y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if np.unique(x).size < 2:
        raise ValueError("need at least two distinct x values")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(exponent=float(slope), log_prefactor=float(intercept), r_squared=r2, n=x.size)
