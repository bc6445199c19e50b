"""Regression gating: compare a sweep against a stored baseline.

A :class:`RegressionGate` takes two flat metric mappings — typically a
previous ``BENCH_sweep.json``'s ``metrics`` block and the current
:meth:`~repro.experiments.runner.SweepResult.metric_summary` — and
reports the per-metric delta against a tolerance.  For deterministic
metrics, deviations in *either* direction fail the gate: the
simulation is deterministic, so any drift means the code changed
behaviour, not that the hardware had a slow day.  Improvements are
surfaced the same way and acknowledged by refreshing the baseline.

Host-performance metrics (steps/sec throughput) are the exception:
they legitimately vary with the machine, and only a *drop* is a
regression.  A :class:`Tolerance` with ``direction="at-least"`` gates
one-sidedly — the current value must reach the baseline minus the
margin, while any improvement passes (a faster machine or a real
optimisation never fails the gate).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional


@dataclass(frozen=True)
class Tolerance:
    """Allowed drift for one metric: max(absolute, relative·|baseline|).

    ``direction`` selects which deviations count:

    * ``"both"`` (default) — any drift beyond the margin fails; right
      for deterministic simulation statistics.
    * ``"at-least"`` — only a drop below ``baseline - margin`` fails;
      right for throughput, where exceeding the baseline is good.
    * ``"at-most"`` — only a rise above ``baseline + margin`` fails;
      right for cost-like metrics (wall-time budgets).
    """

    relative: float = 0.05
    absolute: float = 1e-9
    direction: str = "both"

    def __post_init__(self):
        if not (0.0 <= self.relative < math.inf
                and 0.0 <= self.absolute < math.inf):
            raise ValueError(
                "tolerance margins must be finite and >= 0, got "
                f"relative={self.relative}, absolute={self.absolute}"
            )
        if self.direction not in ("both", "at-least", "at-most"):
            raise ValueError(
                f"direction must be 'both', 'at-least' or 'at-most', "
                f"got {self.direction!r}"
            )

    def allows(self, baseline: float, current: float) -> bool:
        if math.isnan(baseline) or math.isnan(current):
            return math.isnan(baseline) and math.isnan(current)
        if math.isinf(baseline) or math.isinf(current):
            return baseline == current
        margin = max(self.absolute, self.relative * abs(baseline))
        if self.direction == "at-least":
            return current >= baseline - margin
        if self.direction == "at-most":
            return current <= baseline + margin
        return abs(current - baseline) <= margin


@dataclass
class MetricDelta:
    """One metric's comparison row."""

    metric: str
    baseline: Optional[float]
    current: Optional[float]
    ok: bool
    #: "ok" | "regressed" | "missing" (gone from current) | "new"
    verdict: str

    @property
    def delta(self) -> float:
        if self.baseline is None or self.current is None:
            return math.nan
        return self.current - self.baseline

    @property
    def relative_delta(self) -> float:
        if self.baseline is None or self.current is None or self.baseline == 0:
            return math.nan
        return (self.current - self.baseline) / abs(self.baseline)


@dataclass
class GateReport:
    """Every compared metric plus the pass/fail verdict."""

    deltas: List[MetricDelta] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(delta.ok for delta in self.deltas)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [delta for delta in self.deltas if not delta.ok]

    def summary_rows(self) -> List[dict]:
        rows = []
        for delta in self.deltas:
            rows.append({
                "metric": delta.metric,
                "baseline": delta.baseline,
                "current": delta.current,
                "delta": delta.delta,
                "rel": delta.relative_delta,
                "verdict": delta.verdict,
            })
        return rows


class RegressionGate:
    """Compares metric mappings under configurable tolerances."""

    def __init__(
        self,
        tolerance: Tolerance = Tolerance(),
        per_metric: Optional[Mapping[str, Tolerance]] = None,
    ):
        self.tolerance = tolerance
        self.per_metric = dict(per_metric or {})

    def _tolerance_for(self, metric: str) -> Tolerance:
        return self.per_metric.get(metric, self.tolerance)

    def compare(
        self,
        baseline: Mapping[str, float],
        current: Mapping[str, float],
    ) -> GateReport:
        report = GateReport()
        for metric in sorted(set(baseline) | set(current)):
            before = baseline.get(metric)
            after = current.get(metric)
            if before is None:
                # A metric the baseline has never seen: informational.
                report.deltas.append(MetricDelta(
                    metric, None, after, ok=True, verdict="new"))
            elif after is None:
                report.deltas.append(MetricDelta(
                    metric, before, None, ok=False, verdict="missing"))
            else:
                ok = self._tolerance_for(metric).allows(before, after)
                report.deltas.append(MetricDelta(
                    metric, before, after, ok=ok,
                    verdict="ok" if ok else "regressed"))
        return report


def load_baseline(path: str) -> Dict[str, float]:
    """The flat metric mapping inside a ``BENCH_sweep.json`` file.

    Accepts either a full bench payload (reads its ``metrics`` block)
    or a bare ``{metric: value}`` mapping.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload: Any = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"baseline {path!r} is not a JSON object")
    metrics = payload.get("metrics", payload)
    if not isinstance(metrics, dict):
        raise ValueError(f"baseline {path!r} has no metric mapping")
    return {
        str(name): float(value)
        for name, value in metrics.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
