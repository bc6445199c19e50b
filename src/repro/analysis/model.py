"""Model fitting: the linear page-send relation of Fig. 5 / Eq. 4.

The dynamic period manager's model is ``t = αN/P + C``.  This module
provides ordinary least squares (implemented directly — no SciPy
dependency) to estimate ``α`` and ``C`` from measured (N, t) pairs, and
goodness-of-fit so experiments can *verify* linearity rather than
assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class LinearFit:
    """Result of a least-squares fit t = slope * n + intercept."""

    slope: float
    intercept: float
    r_squared: float
    n_samples: int

    def predict(self, n: float) -> float:
        return self.slope * n + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares over (xs, ys)."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    n = len(xs)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all x values identical; slope is undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_total = sum((y - mean_y) ** 2 for y in ys)
    ss_residual = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
    )
    r_squared = 1.0 if ss_total == 0 else 1.0 - ss_residual / ss_total
    return LinearFit(
        slope=slope, intercept=intercept, r_squared=r_squared, n_samples=n
    )


def estimate_alpha(
    dirty_pages: Sequence[float],
    pause_durations: Sequence[float],
    parallelism: int = 1,
) -> Tuple[float, float]:
    """Estimate (α, C) of Eq. 4 from checkpoint measurements.

    ``pause = (α/P)·N + C``, so the fitted slope times ``P`` recovers
    the single-stream per-page cost α.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1: {parallelism}")
    fit = linear_fit(dirty_pages, pause_durations)
    if fit.slope < 0:
        raise ValueError(
            f"negative fitted slope ({fit.slope:g}); measurements do not "
            "follow the linear page-send model"
        )
    return fit.slope * parallelism, max(0.0, fit.intercept)


def improvement_pct(baseline: float, improved: float) -> float:
    """How much smaller ``improved`` is than ``baseline``, in percent.

    The metric behind the paper's "HERE is 70 % lower than Remus"
    statements.
    """
    if baseline == 0:
        return math.nan
    return 100.0 * (baseline - improved) / baseline
