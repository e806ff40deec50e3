"""Regression performance measures and report assembly.

Three measures: mean absolute percent error, its population spread, and
the coefficient of determination. Percent errors are undefined at zero
ground truth and rejected rather than returned as infinities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def _check_pairs(y_true, y_pred):
    yt = np.asarray(y_true, dtype=np.float64)
    yp = np.asarray(y_pred, dtype=np.float64)
    if yt.shape != yp.shape or yt.ndim != 1 or yt.size == 0:
        raise ValueError("need equal-length non-empty 1-D inputs")
    return yt, yp


def _abs_percent_errors(y_true, y_pred) -> np.ndarray:
    yt, yp = _check_pairs(y_true, y_pred)
    if np.any(yt == 0):
        raise ValueError("percent error undefined at zero ground truth")
    return np.abs((yt - yp) / yt)


def mean_abs_percent_error(y_true, y_pred) -> float:
    """(1/N) * sum |(Y_i - Yhat_i) / Y_i|."""
    return float(np.mean(_abs_percent_errors(y_true, y_pred)))


def std_percent_error(y_true, y_pred) -> float:
    """Population std of the absolute percent errors about their own mean:
    the companion spread of mean_abs_percent_error."""
    return float(np.std(_abs_percent_errors(y_true, y_pred)))


def r_squared(y_true, y_pred) -> float:
    """1 - SS_res / SS_tot. Can be negative for worse-than-mean predictors."""
    yt, yp = _check_pairs(y_true, y_pred)
    if yt.size < 2:
        raise ValueError("need at least 2 points")
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("undefined total variance: constant ground truth")
    ss_res = float(np.sum((yt - yp) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class EvalReport:
    """Packaged evaluation over per-group (truth, prediction) pairs."""

    mu_e: float
    sigma_e: float
    r2: float
    per_group: tuple[tuple[str, float, float], ...]

    @property
    def n(self) -> int:
        return len(self.per_group)

    def to_dict(self) -> dict:
        return {
            "mean_abs_percent_error": self.mu_e,
            "std_percent_error": self.sigma_e,
            "r_squared": self.r2,
            "n_groups": self.n,
            "per_group": [
                {"group_id": g, "truth": y, "prediction": p}
                for g, y, p in self.per_group
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_table(self, row_label: str) -> str:
        """Aligned plain-text table with the three headline numbers."""
        header = f"{'Data':<20}{'R^2':>12}{'MeanAbsPctErr':>16}{'StdPctErr':>14}"
        row = f"{row_label:<20}{self.r2:>12.4g}{self.mu_e:>16.4g}{self.sigma_e:>14.4g}"
        return header + "\n" + row


def build_report(per_group) -> EvalReport:
    """Compute all three metrics over (group_id, truth, prediction) triples."""
    rows = tuple((str(g), float(y), float(p)) for g, y, p in per_group)
    if len(rows) < 2:
        raise ValueError("need at least 2 groups")
    yt = [y for _, y, _ in rows]
    yp = [p for _, _, p in rows]
    return EvalReport(
        mu_e=mean_abs_percent_error(yt, yp),
        sigma_e=std_percent_error(yt, yp),
        r2=r_squared(yt, yp),
        per_group=rows,
    )
