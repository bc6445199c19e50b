"""Exact processor-sharing queue under a piecewise service capacity.

One protected VM serves its request population as an egalitarian
processor-sharing (PS) server: ``N`` concurrent requests each receive
``C(t)/N`` of the service capacity ``C(t)``.  The capacity profile is
piecewise constant — full speed while the VM runs, zero while a
checkpoint pause or a preserved-guest microreboot stalls it, and
*lost* across a failover blackout (in-flight requests and new arrivals
die with the primary).

With equal per-request demand ``s`` the PS dynamics collapse onto
Kleinrock's virtual time ``V(t)`` with ``dV/dt = C(t)/N(t)``: a
request arriving at ``a`` finishes when ``V`` reaches ``V(a) + s``.
``V`` is non-decreasing, so completion order equals arrival order and
the whole queue reduces to a FIFO of monotone virtual thresholds —
O(n) overall.

The kernel is a scalar loop over Python floats.  At the loads the
overlay runs (rho = 0.5 in the strategy study) almost every completion
pops alone, so a numpy drain pays a handful of array calls per
one-element pop; the scalar loop is several times faster.  It keeps
the numpy drain's exact arithmetic order, which fixes the rounding of
every completion time.  Completions pop in *rounds*: a round starts
from the last completion ``(now, virtual)`` and, for its ``k``-th pop,
updates ``acc += (theta - prev) * (backlog - k)`` and finishes that
request at ``now + acc / capacity``.  A round ends at the first time
past the next arrival or segment end, or after ``_CHUNK`` pops; the
next round restarts the sum.  The results are byte-identical to the
earlier vectorised ``np.cumsum`` kernel, which
``tests/serving/test_queue.py`` keeps as its oracle.

The loop is deliberately not batched across busy periods either: a
lockstep numpy pass would reorder these sums, and the serving
fingerprints are bit-for-bit contracts (DESIGN §15).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Sequence, Tuple

import numpy as np

#: One completion round pops at most this many requests before its
#: running sum restarts (the vectorised kernel's allocation cap, kept
#: because it fixes where the sums restart).
_CHUNK = 8192


@dataclass(frozen=True)
class CapacitySegment:
    """One constant-capacity stretch of a VM's service timeline."""

    start: float
    end: float
    #: Service capacity in demand-units per second (1.0 = full speed,
    #: 0.0 = paused: requests queue but nobody is lost).
    capacity: float = 1.0
    #: A blackout: queued and arriving requests are lost, not delayed.
    lost: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"segment bounds must be finite: {self}")
        if self.end < self.start:
            raise ValueError(f"segment ends before it starts: {self}")
        if self.capacity < 0:
            raise ValueError(f"negative capacity: {self.capacity}")
        if not math.isfinite(self.capacity):
            raise ValueError(f"capacity must be finite: {self.capacity}")


def validate_segments(segments: Sequence[CapacitySegment]) -> None:
    """Segments must be contiguous and time-ordered."""
    if not segments:
        raise ValueError("a service timeline needs at least one segment")
    for earlier, later in zip(segments, segments[1:]):
        if not math.isclose(earlier.end, later.start, abs_tol=1e-12):
            raise ValueError(
                f"segments not contiguous: {earlier.end} -> {later.start}"
            )


def segments_from_windows(
    start: float,
    end: float,
    pauses: Sequence[Tuple[float, float]] = (),
    blackouts: Sequence[Tuple[float, float]] = (),
    capacity: float = 1.0,
) -> List[CapacitySegment]:
    """Build a contiguous capacity profile over ``[start, end]``.

    ``pauses`` become capacity-0 segments, ``blackouts`` lost segments;
    blackouts win where the two overlap.  Windows outside the horizon
    are clipped; empty or inverted windows are dropped.
    """
    if end <= start:
        raise ValueError(f"empty horizon: [{start}, {end}]")

    def _clip(windows):
        clipped = []
        for w_start, w_end in windows:
            lo, hi = max(w_start, start), min(w_end, end)
            if hi > lo:
                clipped.append((lo, hi))
        return sorted(clipped)

    cuts = {start, end}
    pause_windows = _clip(pauses)
    blackout_windows = _clip(blackouts)
    for lo, hi in pause_windows + blackout_windows:
        cuts.add(lo)
        cuts.add(hi)
    points = sorted(cuts)

    def _inside(t, windows):
        return any(lo <= t < hi for lo, hi in windows)

    segments = []
    for lo, hi in zip(points, points[1:]):
        midpoint = (lo + hi) / 2.0
        if _inside(midpoint, blackout_windows):
            segments.append(CapacitySegment(lo, hi, capacity=0.0, lost=True))
        elif _inside(midpoint, pause_windows):
            segments.append(CapacitySegment(lo, hi, capacity=0.0))
        else:
            segments.append(CapacitySegment(lo, hi, capacity=capacity))
    return segments


def ps_complete(
    arrivals: np.ndarray,
    demand: float,
    segments: Sequence[CapacitySegment],
) -> np.ndarray:
    """Completion time of each arrival under processor sharing.

    ``arrivals`` must be sorted ascending and lie inside the segment
    span.  Returns one completion time per arrival; ``NaN`` marks a
    request lost to a blackout or still unfinished when the timeline
    ends (both are user-visible failures).
    """
    if demand <= 0:
        raise ValueError(f"per-request demand must be positive: {demand}")
    if not math.isfinite(demand):
        raise ValueError(f"per-request demand must be finite: {demand}")
    validate_segments(segments)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    n = arrivals.size
    completions = np.full(n, math.nan)
    if n == 0:
        return completions
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrivals must be sorted ascending")
    if arrivals[0] < segments[0].start or arrivals[-1] > segments[-1].end:
        raise ValueError("arrivals outside the segment span")
    if np.isnan(arrivals).any():
        raise ValueError("arrivals must not be NaN")

    arrival_list = arrivals.tolist()
    queue: Deque[float] = deque()  # virtual thresholds, oldest first
    pop, push = queue.popleft, queue.append
    head = 0  # index of the oldest unfinished request
    index = 0  # index of the next arrival
    virtual = 0.0

    for segment in segments:
        end = segment.end
        if segment.lost:
            # Blackout: everything in flight dies, arrivals bounce; all
            # of them keep their NaN completion.
            queue.clear()
            while index < n and arrival_list[index] < end:
                index += 1
            head = index
            continue
        capacity = segment.capacity
        serving = capacity > 0.0
        now = segment.start
        while True:
            at_arrival = index < n and arrival_list[index] < end
            boundary = arrival_list[index] if at_arrival else end
            # Pop every completion due before the boundary, one round
            # per pass: the head's time restarts the running sum.
            while serving and queue:
                backlog = len(queue)
                theta = queue[0]
                acc = (theta - virtual) * backlog
                time = now + acc / capacity
                if time > boundary:
                    break
                chunk = backlog if backlog < _CHUNK else _CHUNK
                popped = 0
                while True:
                    pop()
                    completions[head] = time
                    head += 1
                    popped += 1
                    virtual = theta
                    last = time
                    if popped == chunk:
                        break
                    theta = queue[0]
                    acc += (theta - virtual) * (backlog - popped)
                    time = now + acc / capacity
                    if time > boundary:
                        break
                now = last
            if serving and queue:
                virtual += (boundary - now) * capacity / len(queue)
            now = boundary
            if not at_arrival:
                break
            push(virtual + demand)
            index += 1
    return completions
