"""Per-VM protection assembly: detector -> recovery gate -> failover.

Every protected engine (deployments, chaos, fleet, serving study) is
guarded the same way, and this is the one place that wiring is spelled
out.  The construction and ``start()``/``arm()`` order is part of the
deterministic event order (process creation breaks same-instant ties),
so it is fixed here: detector, degradation controller (hardened
transport only), recovery gate (non-failover policies only), failover
controller (not for COLO, whose replica already executes).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from ..recovery import (
    MicrorebootConfig,
    MicrorebootEngine,
    RecoveryController,
    RecoveryPolicy,
)
from ..hardware.link import Link
from ..replication.colo import ColoEngine
from ..replication.failover import FailoverController
from ..replication.heartbeat import HeartbeatMonitor
from ..replication.transport import DegradationController
from .detection import PhiAccrualDetector


class Protection(NamedTuple):
    """The controllers guarding one engine."""

    monitor: object
    #: None for a COLO engine (lock-stepping has no ASR failover).
    failover: Optional[FailoverController]
    gate: Optional[RecoveryController]
    degradation: Optional[DegradationController]

    def stop(self) -> None:
        """Teardown: with the detector stopped, failover cannot fire."""
        if self.degradation is not None:
            self.degradation.stop()
        if self.gate is not None:
            self.gate.stop()
        self.monitor.stop()


def protect_engine(
    sim,
    engine,
    *,
    interval: float,
    miss_threshold: int,
    microreboots: Optional[Dict[str, MicrorebootEngine]] = None,
    policy: RecoveryPolicy = RecoveryPolicy.FAILOVER,
    microreboot: Optional[MicrorebootConfig] = None,
    detector: str = "heartbeat",
    phi_threshold: float = 8.0,
    degraded_miss_threshold: Optional[int] = None,
    replica_service_link: Optional[Link] = None,
) -> Protection:
    """Start a detector on ``engine``'s primary and arm its failover.

    Under a recovery policy the failover controller watches a
    :class:`~repro.recovery.RecoveryController` gate instead of the raw
    detector: suspicion is withheld while a microreboot is in flight
    and only propagated per policy.  ``microreboots`` caches one
    :class:`~repro.recovery.MicrorebootEngine` per primary host name,
    so co-located VMs share the attempt.  ``replica_service_link``
    lets the failover re-home a client service.
    """
    transport = getattr(engine, "transport", None)  # COLO has none
    if detector == "phi":
        monitor = PhiAccrualDetector(
            sim,
            engine.primary.host,
            engine.primary,
            engine.link,
            interval=interval,
            threshold=phi_threshold,
        )
    else:
        monitor = HeartbeatMonitor(
            sim,
            engine.primary.host,
            engine.primary,
            engine.link,
            interval=interval,
            miss_threshold=miss_threshold,
            degraded_miss_threshold=degraded_miss_threshold,
            loss_signal=(
                transport.link_appears_lossy if transport is not None else None
            ),
        )
    monitor.start()
    degradation = None
    if transport is not None:
        degradation = DegradationController(sim, engine)
        degradation.start()
    gate = None
    if policy is not RecoveryPolicy.FAILOVER:
        if microreboots is None:
            microreboots = {}
        host_name = engine.primary.host.name
        if host_name not in microreboots:
            microreboots[host_name] = MicrorebootEngine(
                sim, engine.primary, config=microreboot
            )
        gate = RecoveryController(
            sim, engine, monitor, microreboots[host_name], policy=policy
        )
        gate.start()
    failover = None
    if not isinstance(engine, ColoEngine):
        failover = FailoverController(
            sim,
            engine,
            monitor if gate is None else gate,
            replica_service_link=replica_service_link,
        )
        failover.arm()
    return Protection(monitor, failover, gate, degradation)
