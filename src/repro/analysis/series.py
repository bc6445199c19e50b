"""Time-series helpers for experiment post-processing."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple


class TimeSeries:
    """An append-only (time, value) series with windowed statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    @classmethod
    def from_recorder(cls, recorder, name: str, **attr_filters) -> "TimeSeries":
        """Build a series from a telemetry gauge stream.

        ``recorder`` is a :class:`repro.telemetry.Recorder`; every gauge
        record named ``name`` (matching ``attr_filters``, if given)
        contributes one (time, value) point.  Gauges are emitted in
        simulation order, so the series is already monotone in time.
        """
        series = cls(name)
        for record in recorder.gauges(name, **attr_filters):
            series.append(record.time, record.value)
        return series

    def append(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time went backwards: {time} after {self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(value)

    def extend(self, pairs: Sequence[Tuple[float, float]]) -> None:
        for time, value in pairs:
            self.append(time, value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> List[float]:
        return list(self._times)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def window(self, start: float, end: float) -> "TimeSeries":
        """Sub-series with start <= t < end."""
        if start > end:
            raise ValueError(f"window [{start}, {end}) is inverted")
        result = TimeSeries(self.name)
        for time, value in zip(self._times, self._values):
            if start <= time < end:
                result.append(time, value)
        return result

    def mean(self) -> float:
        if not self._values:
            return math.nan
        return sum(self._values) / len(self._values)

    def last(self) -> float:
        if not self._values:
            raise IndexError(f"series {self.name!r} is empty")
        return self._values[-1]

    def value_at(self, time: float) -> float:
        """Step-interpolated value in force at ``time``."""
        if not self._times:
            raise IndexError(f"series {self.name!r} is empty")
        result = self._values[0]
        for t, value in zip(self._times, self._values):
            if t > time:
                break
            result = value
        return result

    def resample(self, step: float, end: Optional[float] = None) -> "TimeSeries":
        """Step-hold resampling onto a regular grid (for plots)."""
        if step <= 0:
            raise ValueError(f"step must be positive: {step}")
        if not self._times:
            return TimeSeries(self.name)
        stop = end if end is not None else self._times[-1]
        result = TimeSeries(self.name)
        time = self._times[0]
        while time <= stop:
            result.append(time, self.value_at(time))
            time += step
        return result


def rate_of_progress(
    samples: Sequence[Tuple[float, float]], window: float
) -> TimeSeries:
    """Differentiate cumulative (time, count) samples over ``window``.

    Used to turn workload progress samples into a throughput series
    (ops/s over trailing windows) for the Fig. 9/10 overlays.
    """
    if window <= 0:
        raise ValueError(f"window must be positive: {window}")
    series = TimeSeries("rate")
    start_index = 0
    for index, (time, count) in enumerate(samples):
        while samples[start_index][0] < time - window:
            start_index += 1
        t0, c0 = samples[start_index]
        span = time - t0
        if span > 0:
            series.append(time, (count - c0) / span)
    return series
