"""From bus telemetry to a per-VM service timeline.

Everything the serving model needs already exists as spans and
counters on the telemetry bus — the serving subsystem adds **no**
events to the simulation (which is why default campaign fingerprints
are untouched).  :class:`ServiceTimeline` reads one finished
:class:`~repro.telemetry.Recorder` and distils, for one protected VM:

* **pauses** — capacity-0 windows: ``replication.checkpoint.pause``
  (Remus/HERE stop-and-copy points), ``replication.suspended`` (the
  degradation ladder's suspend rung), ``colo.sync`` /
  ``colo.sync.initial`` (lockstep resynchronisation), and successful
  ``recovery`` spans (a microreboot preserves guests in memory, so
  requests stall rather than die);
* **blackouts** — lost windows: ``failover`` spans (primary crash
  until replica activation; in-flight requests die with the primary)
  plus any caller-supplied windows (the unreplicated baseline's cold
  restart, COLO's detection gap);
* **buffering windows + egress events** — output commit: between
  ``devices.protection_started``/``ended`` a finished response leaves
  the host only at the next ``devices.packets_released`` release (a
  checkpoint acknowledgement), at the closing flush, or never — a
  ``devices.packets_dropped`` drop or a window that ends in a
  blackout loses it;
* **replica windows** — when a hedged clone can be served from the
  replica's committed state (seeding done, session alive, not mid
  sync).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .queue import CapacitySegment, segments_from_windows

#: Span names whose windows pause the primary VM (capacity 0).
PAUSE_SPANS = (
    "replication.checkpoint.pause",
    "replication.suspended",
    "colo.sync",
    "colo.sync.initial",
)

#: Every record name :meth:`ServiceTimeline.from_recorder` reads.
TIMELINE_NAMES = frozenset(PAUSE_SPANS) | {
    "replication.session",
    "colo.session",
    "replication.seeding",
    "colo.seeding",
    "fault.injected",
    "failover",
    "recovery",
    "devices.protection_started",
    "devices.protection_ended",
    "devices.packets_released",
    "devices.packets_dropped",
}

# Egress event codes, ordered by time into one event list per window.
RELEASE = 0
FLUSH = 1
DROP = 2


def _engine_vm_map(recorder) -> dict:
    """engine name -> VM name, from the session spans."""
    mapping = {}
    for name in ("replication.session", "colo.session"):
        for span in recorder.spans(name):
            engine = span.attrs.get("engine")
            vm = span.attrs.get("vm")
            if engine and vm:
                mapping[engine] = vm
    return mapping


def _merge_windows(
    windows: Sequence[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass
class ServiceTimeline:
    """One VM's serving-relevant history over ``[start, horizon]``."""

    vm: str
    start: float
    horizon: float
    #: Capacity-0 windows (requests queue).
    pauses: List[Tuple[float, float]] = field(default_factory=list)
    #: Lost windows (requests die).
    blackouts: List[Tuple[float, float]] = field(default_factory=list)
    #: Output-commit windows; completions inside one are held.
    buffering: List[Tuple[float, float]] = field(default_factory=list)
    #: (time, code) egress events: RELEASE / FLUSH / DROP.
    egress_events: List[Tuple[float, int]] = field(default_factory=list)
    #: When a hedged clone can be served from the replica.
    replica_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Pauses that also stall the replica (COLO sync stalls both sides).
    replica_pauses: List[Tuple[float, float]] = field(default_factory=list)

    # -- construction --------------------------------------------------------
    @classmethod
    def from_recorder(
        cls,
        recorder,
        vm: str,
        start: float,
        horizon: float,
        extra_blackouts: Sequence[Tuple[float, float]] = (),
        engine_names: Sequence[str] = (),
    ) -> "ServiceTimeline":
        """Distil one VM's timeline from a recorder.

        ``engine_names`` attributes engine-keyed spans to this VM even
        when the ``*.session`` span has not been recorded yet (session
        spans only hit the bus when the engine halts; a campaign
        harvests before halting).
        """
        if horizon <= start:
            raise ValueError(f"empty serving window: [{start}, {horizon}]")
        timeline = cls(vm=vm, start=start, horizon=horizon)
        engines = set(engine_names) | {
            engine
            for engine, mapped in _engine_vm_map(recorder).items()
            if mapped == vm
        }

        def _for_vm(span) -> bool:
            if span.attrs.get("vm") == vm:
                return True
            return span.attrs.get("engine") in engines

        fault_times = [
            record.time for record in recorder.counters("fault.injected")
        ]

        def _fault_before(when: float) -> float:
            earlier = [t for t in fault_times if t <= when]
            return max(earlier) if earlier else when

        pauses: List[Tuple[float, float]] = []
        for name in PAUSE_SPANS:
            for span in recorder.spans(name):
                if _for_vm(span):
                    pauses.append((span.started_at, span.ended_at))

        blackouts: List[Tuple[float, float]] = list(extra_blackouts)
        for span in recorder.spans("failover"):
            if not _for_vm(span):
                continue
            darkness_began = _fault_before(span.started_at)
            if span.attrs.get("failed"):
                blackouts.append((darkness_began, horizon))
            else:
                blackouts.append((darkness_began, span.ended_at))
        for span in recorder.spans("recovery"):
            if span.attrs.get("vm") != vm or not span.attrs.get("attempted"):
                continue
            if span.attrs.get("outcome") == "recovered":
                # Preserved guests: the outage is a stall, not a loss.
                pauses.append((_fault_before(span.started_at), span.ended_at))
            # Escalated/abandoned outcomes are priced by their failover
            # span (or by a caller-supplied blackout to the horizon).

        timeline.pauses = _merge_windows(pauses)
        timeline.blackouts = _merge_windows(blackouts)

        # -- output commit ---------------------------------------------------
        started = [
            r.time
            for r in recorder.counters("devices.protection_started")
            if r.attrs.get("vm") == vm
        ]
        ended = [
            (r.time, FLUSH)
            for r in recorder.counters("devices.protection_ended")
            if r.attrs.get("vm") == vm
        ]
        releases = [
            (r.time, RELEASE)
            for r in recorder.counters("devices.packets_released")
            if r.attrs.get("vm") == vm
        ]
        drops = [
            (r.time, DROP)
            for r in recorder.counters("devices.packets_dropped")
            if r.attrs.get("vm") == vm
        ]
        timeline.egress_events = sorted(releases + ended + drops)
        windows = []
        flush_times = [time for time, _ in ended]
        for begin in sorted(started):
            closes = [t for t in flush_times if t > begin]
            # A blackout also terminates buffering: the engine died
            # with the primary and nothing flushes.
            for b_start, _ in timeline.blackouts:
                if b_start > begin:
                    closes.append(b_start)
                    break
            windows.append((begin, min(closes) if closes else horizon))
        timeline.buffering = _merge_windows(windows)

        # -- replica availability --------------------------------------------
        seeded = [
            span.ended_at
            for span in recorder.spans("replication.seeding")
            if _for_vm(span)
        ] + [
            span.ended_at
            for span in recorder.spans("colo.seeding")
            if _for_vm(span)
        ]
        replica: List[Tuple[float, float]] = []
        if seeded:
            # The replica stops standing by when it is promoted (a
            # failover consumed it) or when the engine's session ends.
            promoted = [
                span.ended_at
                for span in recorder.spans("failover")
                if _for_vm(span)
            ]
            session_ends = [
                span.ended_at
                for name in ("replication.session", "colo.session")
                for span in recorder.spans(name)
                if _for_vm(span)
            ]
            standby_until = min(promoted + session_ends + [horizon])
            replica.append((min(seeded), min(standby_until, horizon)))
        timeline.replica_windows = _merge_windows(replica)
        timeline.replica_pauses = _merge_windows(
            [
                (span.started_at, span.ended_at)
                for name in ("colo.sync", "colo.sync.initial")
                for span in recorder.spans(name)
                if _for_vm(span)
            ]
        )
        return timeline

    # -- capacity profiles ---------------------------------------------------
    def segments(self, capacity: float = 1.0) -> List[CapacitySegment]:
        """The primary service path's capacity profile."""
        return segments_from_windows(
            self.start,
            self.horizon,
            pauses=self.pauses,
            blackouts=self.blackouts,
            capacity=capacity,
        )

    def replica_segments(
        self, capacity: float = 1.0
    ) -> Optional[List[CapacitySegment]]:
        """The clone path's capacity profile; None without a replica.

        Time outside every replica window is a blackout for clones —
        a clone sent when no committed replica state exists is simply
        lost (its primary copy still counts).
        """
        if not self.replica_windows:
            return None
        unavailable = []
        cursor = self.start
        for w_start, w_end in self.replica_windows:
            if w_start > cursor:
                unavailable.append((cursor, w_start))
            cursor = max(cursor, w_end)
        if cursor < self.horizon:
            unavailable.append((cursor, self.horizon))
        return segments_from_windows(
            self.start,
            self.horizon,
            pauses=self.replica_pauses,
            blackouts=unavailable,
            capacity=capacity,
        )

    # -- egress mapping ------------------------------------------------------
    def deliver(self, completions: np.ndarray) -> np.ndarray:
        """Map service completions to client-visible delivery times.

        A completion outside every buffering window passes through
        unchanged.  Inside a window it waits for the next egress event
        in that window: RELEASE and FLUSH deliver at the event time, a
        DROP (or running out of events before the window closes) loses
        the response — NaN, like any other lost request.
        """
        delivered = np.array(completions, dtype=np.float64, copy=True)
        if not self.buffering or delivered.size == 0:
            return delivered
        event_times = np.asarray(
            [time for time, _ in self.egress_events], dtype=np.float64
        )
        event_codes = np.asarray(
            [code for _, code in self.egress_events], dtype=np.int64
        )
        for w_start, w_end in self.buffering:
            held = (
                ~np.isnan(delivered)
                & (delivered >= w_start)
                & (delivered < w_end)
            )
            if not held.any():
                continue
            lo = int(np.searchsorted(event_times, w_start, side="left"))
            hi = int(np.searchsorted(event_times, w_end, side="right"))
            times = event_times[lo:hi]
            codes = event_codes[lo:hi]
            if times.size == 0:
                # A window with no egress at all (e.g. closed by a
                # blackout before any release): everything held dies.
                delivered[held] = math.nan
                continue
            slots = np.searchsorted(times, delivered[held], side="left")
            out = np.full(slots.size, math.nan)
            in_range = slots < times.size
            released = in_range & (codes[np.minimum(slots, times.size - 1)] != DROP)
            out[released] = times[np.minimum(slots, times.size - 1)][released]
            delivered[held] = out
        return delivered
