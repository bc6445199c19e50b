"""The Remus baseline: homogeneous, single-threaded, fixed-period ASR.

Configures :class:`~repro.replication.engine.ReplicationEngine` the way
stock Xen Remus behaves (§3.2): a checkpoint period fixed at VM start,
one migrator thread walking the shared dirty bitmap, ordinary (non
per-vCPU) seeding, and a Xen replica on the secondary host.
"""

from __future__ import annotations

from typing import Optional

from ..hardware.link import LinkPair
from ..hardware.perfmodel import TransferCostModel
from ..hypervisor.base import Hypervisor
from .engine import ReplicationConfig, ReplicationEngine
from .period import FixedPeriodController
from .translator import StateTranslator


def remus_config(period: float) -> ReplicationConfig:
    """Stock Remus parameters with checkpoint period ``period``."""
    return ReplicationConfig(
        controller=FixedPeriodController(period),
        checkpoint_threads=1,
        chunked_transfer=False,
        per_vcpu_seeding=False,
        seeding_threads=1,
    )


def remus_engine(
    sim,
    primary: Hypervisor,
    secondary: Hypervisor,
    link: LinkPair,
    period: float,
    cost_model: Optional[TransferCostModel] = None,
    name: str = "remus",
) -> ReplicationEngine:
    """A Remus replication engine with checkpoint period ``period``.

    Remus requires both sides to run the same hypervisor; passing
    hypervisors with different state formats is rejected — that is the
    gap HERE exists to fill.
    """
    if primary.state_format != secondary.state_format:
        raise ValueError(
            "Remus requires homogeneous hypervisors (got "
            f"{primary.product} -> {secondary.product}); "
            "use here_engine() for heterogeneous replication"
        )
    return ReplicationEngine(
        sim,
        primary,
        secondary,
        link,
        remus_config(period),
        translator=StateTranslator(),
        cost_model=cost_model,
        name=name,
    )
