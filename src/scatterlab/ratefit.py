"""Power-law exponent estimation by least squares in log-log coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RateFit:
    exponent: float
    residual_rms: float


def fit_rate(times, values) -> RateFit:
    """
    Fit value ~ C * t^p on (ln t, ln value).  Requires at least 4 samples at
    strictly increasing times and strictly positive values; exact on pure
    power laws.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size != y.size:
        raise ValueError("times and values must have equal length")
    if t.size < 4:
        raise ValueError("rate fit needs at least 4 samples")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    if np.any(y <= 0):
        raise ValueError("rate fit needs strictly positive values")
    lx = np.log(t)
    ly = np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return RateFit(exponent=float(slope), residual_rms=rms)
