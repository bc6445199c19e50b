"""Fair-share network links.

A :class:`Link` connects two hosts' NICs and carries bulk transfers.
Concurrent transfers share the link's capacity equally (processor-
sharing model, a standard approximation of TCP fairness on a dedicated
interconnect).  Progress is tracked exactly: whenever the set of active
transfers changes, every transfer's remaining byte count is advanced by
the elapsed time at the rate it enjoyed, and the next completion is
re-scheduled.

The link also integrates utilisation statistics so experiments can
report interconnect load.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..simkernel.events import Event
from ..telemetry import NULL_SPAN
from .nic import Nic


class _ActiveTransfer:
    """Bookkeeping for one in-flight transfer."""

    __slots__ = ("nbytes", "remaining", "done_event", "started_at", "span")

    def __init__(self, nbytes: float, done_event: Event, started_at: float, span):
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.done_event = done_event
        self.started_at = started_at
        self.span = span


class Link:
    """A full-duplex point-to-point link with fair capacity sharing.

    Each direction is modelled independently in practice by creating two
    links; the replication stream only needs one direction plus a
    latency-only ack path, so a single link per host pair suffices here.
    """

    #: Completion slack below which a transfer counts as finished
    #: (absorbs float rounding in progress arithmetic).
    EPSILON_BYTES = 1e-6
    #: Minimum wake-up delay.  Without a floor, a transfer whose
    #: remaining time underflows the float resolution of ``sim.now``
    #: would reschedule at the *same* instant forever (now + delay ==
    #: now); one nanosecond is far below any modelled timescale.
    MIN_WAKE_DELAY = 1e-9

    def __init__(self, sim, nic: Nic, name: str = ""):
        self.sim = sim
        self.nic = nic
        self.name = name or nic.name
        self._active: List[_ActiveTransfer] = []
        self._last_update = sim.now
        #: Monotonic token invalidating stale completion callbacks.
        self._epoch = 0
        # -- fault state (see degrade/partition/restore) --
        self._bandwidth_factor = 1.0
        self._extra_latency_s = 0.0
        self._down = False
        # -- impairment state (see impair/clear_impairment) --
        self._loss_rate = 0.0
        self._corrupt_rate = 0.0
        self._latency_jitter_s = 0.0
        self._rng = None  # lazily bound: an unimpaired link never draws
        # -- statistics --
        self.bytes_delivered = 0.0
        self.transfers_completed = 0
        self._busy_integral = 0.0
        self.messages_dropped = 0
        self.messages_lost = 0

    # -- public API --------------------------------------------------------
    @property
    def capacity(self) -> float:
        """Link capacity in bytes/second (0 while partitioned)."""
        if self._down:
            return 0.0
        return self.nic.bandwidth_bytes * self._bandwidth_factor

    @property
    def latency(self) -> float:
        """One-way propagation latency, including injected degradation."""
        return self.nic.base_latency_s + self._extra_latency_s

    @property
    def is_down(self) -> bool:
        return self._down

    # -- fault hooks -------------------------------------------------------
    def degrade(
        self, bandwidth_factor: float = 1.0, extra_latency_s: float = 0.0
    ) -> None:
        """Throttle the link: scale bandwidth, add propagation latency.

        In-flight transfers keep the progress they already made and
        continue at the new (shared) rate.
        """
        if not 0.0 < bandwidth_factor <= 1.0:
            raise ValueError(f"bandwidth_factor must be in (0, 1]: {bandwidth_factor}")
        if extra_latency_s < 0:
            raise ValueError(f"negative extra latency: {extra_latency_s}")
        self._advance_progress()
        self._bandwidth_factor = bandwidth_factor
        self._extra_latency_s = extra_latency_s
        self._down = False
        self.sim.telemetry.counter(
            "link.degraded", 1.0, link=self.name,
            bandwidth_factor=bandwidth_factor, extra_latency_s=extra_latency_s,
        )
        self._reschedule()

    def partition(self) -> None:
        """Cut the link entirely: nothing in flight makes progress and
        new messages are silently dropped, exactly like a network
        partition.  In-flight transfers stay queued (they resume on
        :meth:`restore`); their events never trigger while down."""
        self._advance_progress()
        self._down = True
        self.sim.telemetry.counter("link.partitioned", 1.0, link=self.name)
        self._reschedule()

    def restore(self) -> None:
        """Heal any degradation, partition or impairment; queued
        transfers resume."""
        self._advance_progress()
        self._bandwidth_factor = 1.0
        self._extra_latency_s = 0.0
        self._down = False
        self._loss_rate = 0.0
        self._corrupt_rate = 0.0
        self._latency_jitter_s = 0.0
        self.sim.telemetry.counter("link.restored", 1.0, link=self.name)
        self._reschedule()

    # -- impairment (lossy-link semantics) -----------------------------------
    def impair(
        self,
        loss_rate: Optional[float] = None,
        corrupt_rate: Optional[float] = None,
        latency_jitter_s: Optional[float] = None,
    ) -> None:
        """Make the wire lossy: drop/corrupt packets, jitter latency.

        Unlike :meth:`degrade`, impairment is per-*packet*: each control
        message is dropped with probability ``loss_rate`` and delayed by
        a uniform draw in ``[0, latency_jitter_s]``; bulk checkpoint
        chunks additionally corrupt with probability ``corrupt_rate``
        (see :meth:`draw_chunk_outcomes`).  Draws come from a seeded
        named stream, so impaired runs are reproducible.  ``None``
        leaves that knob unchanged (impairments compose).
        """
        if loss_rate is not None:
            if not 0.0 <= loss_rate <= 1.0:
                raise ValueError(f"loss_rate must be in [0, 1]: {loss_rate}")
            self._loss_rate = loss_rate
        if corrupt_rate is not None:
            if not 0.0 <= corrupt_rate <= 1.0:
                raise ValueError(
                    f"corrupt_rate must be in [0, 1]: {corrupt_rate}"
                )
            self._corrupt_rate = corrupt_rate
        if latency_jitter_s is not None:
            if latency_jitter_s < 0:
                raise ValueError(
                    f"negative latency jitter: {latency_jitter_s}"
                )
            self._latency_jitter_s = latency_jitter_s
        self.sim.telemetry.counter(
            "link.impaired", 1.0, link=self.name,
            loss_rate=self._loss_rate, corrupt_rate=self._corrupt_rate,
            latency_jitter_s=self._latency_jitter_s,
        )

    def clear_impairment(self) -> None:
        """Heal packet loss/corruption/jitter (degradation untouched)."""
        if not self.is_impaired:
            return
        self._loss_rate = 0.0
        self._corrupt_rate = 0.0
        self._latency_jitter_s = 0.0
        self.sim.telemetry.counter(
            "link.impairment_cleared", 1.0, link=self.name
        )

    @property
    def is_impaired(self) -> bool:
        return (
            self._loss_rate > 0.0
            or self._corrupt_rate > 0.0
            or self._latency_jitter_s > 0.0
        )

    @property
    def loss_rate(self) -> float:
        return self._loss_rate

    @property
    def corrupt_rate(self) -> float:
        return self._corrupt_rate

    @property
    def latency_jitter_s(self) -> float:
        return self._latency_jitter_s

    def _impairment_rng(self):
        if self._rng is None:
            self._rng = self.sim.random.stream(f"link.impair.{self.name}")
        return self._rng

    def draw_chunk_outcomes(self, count: int) -> List[str]:
        """Per-chunk delivery verdicts: ``"ok"``/``"lost"``/``"corrupt"``.

        The fluid fair-share model cannot drop individual packets, so
        the reliable transport layers chunk semantics on top: after a
        bulk send it asks the wire what happened to each chunk.  An
        unimpaired link answers all-ok without consuming any randomness
        (existing seeded runs stay bit-for-bit unchanged); a partitioned
        link delivers nothing.
        """
        if count <= 0:
            return []
        if self._down:
            return ["lost"] * count
        if self._loss_rate <= 0.0 and self._corrupt_rate <= 0.0:
            return ["ok"] * count
        # Batched draw: ``count`` sequential scalar draws off the named
        # stream (identical stream consumption to the historical
        # per-chunk loop — seeded runs are bit-for-bit unchanged), then
        # one vectorized classification instead of ``count`` branch
        # pairs.  The float64 comparisons are the same IEEE-754
        # comparisons the scalar branches made; the property suite pins
        # batched-vs-loop agreement.
        rng = self._impairment_rng()
        draws = np.array([rng.random() for _ in range(count)])
        lost = draws < self._loss_rate
        corrupt = ~lost & (draws < self._loss_rate + self._corrupt_rate)
        outcomes = np.where(lost, "lost", np.where(corrupt, "corrupt", "ok"))
        return outcomes.tolist()

    @property
    def active_transfers(self) -> int:
        return len(self._active)

    def transfer(self, nbytes: float) -> Event:
        """Start a bulk transfer; the event succeeds on full delivery.

        The event's value is the transfer duration in seconds.  A
        zero-byte transfer completes after the propagation latency only.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        done = Event(self.sim, name=f"xfer:{self.name}")
        bus = self.sim.telemetry
        if bus.enabled:
            span = bus.span(
                "link.transfer", link=self.name, nbytes=nbytes,
                **self.nic.telemetry_labels(),
            )
        else:
            span = NULL_SPAN
        if nbytes == 0 and not self._down:
            span.end(latency_only=True)
            done.succeed(self.latency, delay=self.latency)
            return done
        self._advance_progress()
        self._active.append(_ActiveTransfer(nbytes, done, self.sim.now, span))
        self._reschedule()
        return done

    def message(self, nbytes: float = 0.0) -> Event:
        """A small control message: latency plus serialisation, unshared.

        Used for checkpoint acknowledgements and heartbeats, which are
        tiny and latency- rather than bandwidth-bound.
        """
        event = Event(self.sim, name=f"msg:{self.name}")
        if self._down:
            # A partitioned wire drops the packet: the event stays
            # pending forever, exactly what a sender waiting on an ack
            # would observe.  Callers must race it against a timeout.
            self.messages_dropped += 1
            bus = self.sim.telemetry
            if bus.enabled:
                bus.counter("link.message_dropped", 1.0, link=self.name, nbytes=nbytes)
            return event
        if self._loss_rate > 0.0:
            if self._impairment_rng().random() < self._loss_rate:
                # A lossy wire eats the packet: like a partition drop,
                # the event never fires and the sender's timeout wins.
                self.messages_lost += 1
                bus = self.sim.telemetry
                if bus.enabled:
                    bus.counter(
                        "link.message_lost", 1.0, link=self.name, nbytes=nbytes
                    )
                return event
        delay = self.latency + (nbytes / self.capacity)
        if self._latency_jitter_s > 0.0:
            delay += self._impairment_rng().uniform(
                0.0, self._latency_jitter_s
            )
        event.succeed(delay, delay=delay)
        bus = self.sim.telemetry
        if bus.enabled:
            bus.counter("link.message", 1.0, link=self.name, nbytes=nbytes)
        return event

    def utilisation(self, since: float = 0.0) -> float:
        """Average fraction of capacity in use over ``[since, now]``."""
        self._advance_progress()
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        # Utilisation is always reported against the *nominal* capacity,
        # so a degraded link shows up as under-utilised rather than
        # dividing by a throttled (possibly zero) rate.
        return min(1.0, self._busy_integral / (self.nic.bandwidth_bytes * elapsed))

    # -- internals -----------------------------------------------------------
    def _per_transfer_rate(self) -> float:
        return self.capacity / len(self._active)

    def _advance_progress(self) -> None:
        """Apply elapsed-time progress to all active transfers."""
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active or self._down:
            return
        rate = self._per_transfer_rate()
        moved = 0.0
        for item in self._active:
            step = min(item.remaining, rate * elapsed)
            item.remaining -= step
            moved += step
        self._busy_integral += moved
        self.bytes_delivered += moved
        bus = self.sim.telemetry
        if bus.enabled and moved > 0:
            bus.counter("link.bytes_delivered", moved, link=self.name)
        finished = [t for t in self._active if t.remaining <= self.EPSILON_BYTES]
        if finished:
            self._active = [
                t for t in self._active if t.remaining > self.EPSILON_BYTES
            ]
            for item in finished:
                self.transfers_completed += 1
                duration = self.sim.now - item.started_at + self.latency
                item.span.end(duration=duration)
                item.done_event.succeed(duration, delay=self.latency)

    def _reschedule(self) -> None:
        """Schedule a wake-up at the next transfer completion time."""
        self._epoch += 1
        if not self._active or self.capacity <= 0:
            return  # nothing queued, or a partition froze the queue
        rate = self._per_transfer_rate()
        shortest = min(t.remaining for t in self._active)
        delay = max(shortest / rate, self.MIN_WAKE_DELAY)
        epoch = self._epoch

        def wake() -> None:
            if epoch != self._epoch:
                return  # superseded by a newer schedule
            self._advance_progress()
            self._reschedule()

        self.sim.schedule_callback(delay, wake, name=f"linkwake:{self.name}")

    def __repr__(self) -> str:
        return (
            f"<Link {self.name!r} active={len(self._active)} "
            f"delivered={self.bytes_delivered:.0f}B>"
        )


class LinkPair:
    """Convenience bundle: a data link plus its reverse control path."""

    def __init__(self, sim, nic: Nic, name: str = ""):
        self.name = name or nic.name
        self.forward = Link(sim, nic, name=f"{self.name}:fwd")
        self.backward = Link(sim, nic, name=f"{self.name}:rev")

    def transfer(self, nbytes: float) -> Event:
        """Bulk transfer in the forward direction."""
        return self.forward.transfer(nbytes)

    def ack(self, nbytes: float = 64.0) -> Event:
        """Small acknowledgement in the reverse direction."""
        return self.backward.message(nbytes)

    def round_trip_latency(self) -> float:
        """Minimal request/ack round-trip time."""
        return self.forward.latency + self.backward.latency

    # -- fault hooks (applied to both directions) ---------------------------
    def degrade(
        self, bandwidth_factor: float = 1.0, extra_latency_s: float = 0.0
    ) -> None:
        self.forward.degrade(bandwidth_factor, extra_latency_s)
        self.backward.degrade(bandwidth_factor, extra_latency_s)

    def partition(self) -> None:
        self.forward.partition()
        self.backward.partition()

    def restore(self) -> None:
        self.forward.restore()
        self.backward.restore()

    def impair(
        self,
        loss_rate: Optional[float] = None,
        corrupt_rate: Optional[float] = None,
        latency_jitter_s: Optional[float] = None,
    ) -> None:
        self.forward.impair(loss_rate, corrupt_rate, latency_jitter_s)
        self.backward.impair(loss_rate, corrupt_rate, latency_jitter_s)

    def clear_impairment(self) -> None:
        self.forward.clear_impairment()
        self.backward.clear_impairment()

    @property
    def is_impaired(self) -> bool:
        return self.forward.is_impaired or self.backward.is_impaired

    @property
    def is_partitioned(self) -> bool:
        return self.forward.is_down and self.backward.is_down
