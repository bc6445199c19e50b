"""Background replica scrubbing under a bandwidth budget.

The scrubber is the detection half of the integrity story: a
simulation process that wakes every ``scrub_interval``, asks the
:class:`~repro.integrity.monitor.IntegrityMonitor` to re-derive the
semantic root from the replica's committed post-translation state, and
compares it to the attestation the primary shipped.  Audit traffic is
priced against ``scrub_bandwidth`` so scrubbing is never free, and
every detection records its latency (injection → audit) — the number
the latent-corruption-window analysis is built on.  The charge is made
on every pass, including passes where the monitor reuses the clean
verdict of an unchanged committed state: that memo saves host work,
never simulated time.  On detection the scrubber immediately walks the
repair ladder (see
:class:`~repro.integrity.repair.IntegrityRepairController`) inside its
own process, so repair time delays the next audit exactly as a real
single-budget scrubber would be delayed.
"""

from __future__ import annotations

from typing import Optional

from ..simkernel.errors import Interrupt
from .monitor import IntegrityMonitor


class ReplicaScrubber:
    """Periodic semantic audit of one engine's replica state."""

    def __init__(
        self,
        sim,
        monitor: IntegrityMonitor,
        repairer: Optional[object] = None,
    ):
        self.sim = sim
        self.monitor = monitor
        self.repairer = repairer
        self.process = None
        self.audited_bytes = 0.0
        self.detections = 0

    def start(self):
        """Spawn the scrub loop (idempotent while one is alive)."""
        if self.process is None or not self.process.is_alive:
            self.process = self.sim.process(
                self._loop(), name=f"scrub:{self.monitor.vm_name}"
            )
        return self.process

    def stop(self) -> None:
        if self.process is not None and self.process.is_alive:
            self.process.interrupt("scrubber stopped")

    def _loop(self):
        config = self.monitor.config
        bus = self.sim.telemetry
        vm_name = self.monitor.vm_name
        try:
            while True:
                yield self.sim.timeout(config.scrub_interval)
                span = bus.span("integrity.scrub", vm=vm_name)
                audited, detected = self.monitor.audit()
                if audited:
                    # The audit re-reads the replica's state payload;
                    # charge it against the scrub bandwidth budget.
                    yield self.sim.timeout(audited / config.scrub_bandwidth)
                self.audited_bytes += audited
                bus.counter("integrity.scrub.audit", 1.0, vm=vm_name)
                for event in detected:
                    self.detections += 1
                    latency = self.sim.now - event.injected_at
                    bus.counter(
                        "integrity.corruption_detected", 1.0,
                        vm=vm_name, kind=event.kind,
                    )
                    bus.gauge(
                        "integrity.detection_latency", latency,
                        vm=vm_name, kind=event.kind,
                    )
                span.end(audited_bytes=audited, detected=len(detected))
                if detected and self.repairer is not None:
                    yield from self.repairer.repair(detected)
        except Interrupt:
            return
