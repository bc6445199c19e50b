"""Per-VM protection assembly: detector -> recovery gate -> failover.

Chaos trials and the fleet control plane guard every replication engine
the same way, and this is the one place that wiring is spelled out.  The
construction and ``start()``/``arm()`` order is part of the
deterministic event order (process creation breaks same-instant ties),
so it is fixed here: detector, degradation controller (hardened
transport only), recovery gate (non-failover policies only), failover
controller.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from ..recovery import (
    MicrorebootConfig,
    MicrorebootEngine,
    RecoveryController,
    RecoveryPolicy,
)
from ..replication.failover import FailoverController
from ..replication.heartbeat import HeartbeatMonitor
from ..replication.transport import DegradationController
from .detection import PhiAccrualDetector


class Protection(NamedTuple):
    """The controllers guarding one engine."""

    monitor: object
    failover: FailoverController
    gate: Optional[RecoveryController]
    degradation: Optional[DegradationController]


def protect_engine(
    sim,
    engine,
    *,
    interval: float,
    miss_threshold: int,
    microreboots: Dict[str, MicrorebootEngine],
    policy: RecoveryPolicy = RecoveryPolicy.FAILOVER,
    microreboot: Optional[MicrorebootConfig] = None,
    detector: str = "heartbeat",
    phi_threshold: float = 8.0,
    degraded_miss_threshold: Optional[int] = None,
) -> Protection:
    """Start a detector on ``engine``'s primary and arm its failover.

    Under a recovery policy the failover controller watches a
    :class:`~repro.recovery.RecoveryController` gate instead of the raw
    detector: suspicion is withheld while a microreboot is in flight
    and only propagated per policy.  ``microreboots`` caches one
    :class:`~repro.recovery.MicrorebootEngine` per primary host name,
    so co-located VMs share the attempt.
    """
    transport = engine.transport
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
        host_name = engine.primary.host.name
        if host_name not in microreboots:
            microreboots[host_name] = MicrorebootEngine(
                sim, engine.primary, config=microreboot
            )
        gate = RecoveryController(
            sim, engine, monitor, microreboots[host_name], policy=policy
        )
        gate.start()
    failover = FailoverController(
        sim, engine, monitor if gate is None else gate
    )
    failover.arm()
    return Protection(monitor, failover, gate, degradation)
