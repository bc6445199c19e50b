"""Live metric aggregation with percentile summaries.

A :class:`MetricsAggregator` subscribes to a bus and keeps, per record
name: counts, totals and value distributions — span durations for
spans, increments for counters, samples for gauges.  ``summary_rows``
renders the percentile table the benchmark harness prints (p50/p90/p99
of checkpoint pauses is exactly the shape of the paper's Fig. 8/17
discussions).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .records import CounterRecord, GaugeRecord, SpanRecord
from .recorder import Recorder


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100]: {q}")
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def fingerprint_float(value: float):
    """``value`` as a determinism fingerprint carries it: rounded to 9
    places, NaN/inf string-encoded (NaN != NaN would break equality)."""
    return round(value, 9) if math.isfinite(value) else str(value)


class _Series:
    __slots__ = ("kind", "values", "total")

    def __init__(self, kind: str):
        self.kind = kind
        self.values: List[float] = []
        self.total = 0.0

    def add(self, value: float) -> None:
        self.values.append(value)
        self.total += value


class MetricsAggregator:
    """Accumulates distributions per record name."""

    def __init__(self):
        self._series: Dict[str, _Series] = {}

    def __call__(self, record) -> None:
        if isinstance(record, SpanRecord):
            self._get(record.name, "span").add(record.duration)
        elif isinstance(record, CounterRecord):
            self._get(record.name, "counter").add(record.value)
        elif isinstance(record, GaugeRecord):
            self._get(record.name, "gauge").add(record.value)

    def _get(self, name: str, kind: str) -> _Series:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series(kind)
        return series

    # -- construction ------------------------------------------------------
    @classmethod
    def from_recorder(cls, recorder: Recorder) -> "MetricsAggregator":
        """Aggregate a finished :class:`Recorder` after the fact."""
        aggregator = cls()
        for record in recorder.records:
            aggregator(record)
        return aggregator

    # -- queries -----------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._series)

    def count(self, name: str) -> int:
        series = self._series.get(name)
        return len(series.values) if series else 0

    def total(self, name: str) -> float:
        series = self._series.get(name)
        return series.total if series else 0.0

    def mean(self, name: str) -> float:
        series = self._series.get(name)
        if not series or not series.values:
            return math.nan
        return series.total / len(series.values)

    def quantile(self, name: str, q: float) -> float:
        series = self._series.get(name)
        return percentile(series.values if series else [], q)

    def summary_rows(self, kind: Optional[str] = None) -> List[dict]:
        """One table row per metric name (optionally one kind only).

        Span rows summarise durations; counter rows increments; gauge
        rows samples.
        """
        rows = []
        for name in self.names():
            series = self._series[name]
            if kind is not None and series.kind != kind:
                continue
            values = series.values
            rows.append(
                {
                    "name": name,
                    "kind": series.kind,
                    "count": len(values),
                    "total": series.total,
                    "mean": self.mean(name),
                    "p50": percentile(values, 50.0),
                    "p90": percentile(values, 90.0),
                    "p99": percentile(values, 99.0),
                    "max": max(values) if values else math.nan,
                }
            )
        return rows

    def __repr__(self) -> str:
        return f"<MetricsAggregator names={len(self._series)}>"
