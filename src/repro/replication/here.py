"""HERE: heterogeneous replication with dynamic checkpoint control (§4–§7).

Configures :class:`~repro.replication.engine.ReplicationEngine` the way
the paper's system behaves: per-vCPU multithreaded seeding with
problematic-page resend (§7.2(1)), chunked round-robin checkpoint
transfer (§7.2(2)), per-checkpoint state translation between the
primary and secondary hypervisor formats (§7.4), and the dynamic
checkpoint period manager of Algorithm 1 (§5.4, §7.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..hardware.link import LinkPair
from ..hardware.perfmodel import TransferCostModel
from ..hypervisor.base import Hypervisor
from ..integrity.config import IntegrityConfig
from .engine import ReplicationConfig, ReplicationEngine
from .transport import TransportConfig
from .period import DynamicPeriodController, FixedPeriodController, PeriodController
from .translator import StateTranslator

#: Default number of checkpoint transfer threads (one per vCPU of the
#: paper's evaluation VMs).
DEFAULT_CHECKPOINT_THREADS = 4


@dataclass(frozen=True)
class EngineRecipe:
    """Everything that configures one HERE engine, written once.

    The paper's (D, T_max, σ) surface (Table 6) plus this repo's
    checkpoint threads, cost model, hardened transport and integrity
    overlay.  Every site that builds a HERE engine — a deployment, a
    fleet, a chaos or fleet re-seed — builds it from a recipe, so a
    re-seed that wants a different knob says so with
    ``dataclasses.replace`` and cannot silently drop the others.

    ``target_degradation = 0`` enforces ``T = T_max`` (the fixed-period
    configurations such as HERE(3Sec, 0 %)); any positive target enables
    Algorithm 1.
    """

    target_degradation: float
    t_max: float
    sigma: float = 0.25
    #: Optional override of Algorithm 1's initial T = T_max (see
    #: DynamicPeriodController.__init__).
    initial_period: Optional[float] = None
    checkpoint_threads: int = DEFAULT_CHECKPOINT_THREADS
    #: None uses the primary host's cost model.
    cost_model: Optional[TransferCostModel] = None
    #: Hardened transport; None keeps the classic protocol.
    transport: Optional[TransportConfig] = None
    #: Integrity overlay; None computes no digests.
    integrity: Optional[IntegrityConfig] = None

    def __post_init__(self):
        if self.target_degradation == 0.0 and not math.isfinite(self.t_max):
            raise ValueError("D=0% requires a finite T_max (T is pinned to it)")

    def controller(self) -> PeriodController:
        """A fresh period controller (controllers carry per-engine state)."""
        if self.target_degradation == 0.0:
            return FixedPeriodController(self.t_max)
        return DynamicPeriodController(
            target_degradation=self.target_degradation,
            t_max=self.t_max,
            sigma=self.sigma,
            initial_period=self.initial_period,
        )

    def config(self) -> ReplicationConfig:
        """HERE's replication config, with a fresh period controller."""
        return ReplicationConfig(
            controller=self.controller(),
            checkpoint_threads=self.checkpoint_threads,
            chunked_transfer=True,
            per_vcpu_seeding=True,
            transport=self.transport,
            integrity=self.integrity,
        )


def here_engine(
    sim,
    primary: Hypervisor,
    secondary: Hypervisor,
    link: LinkPair,
    recipe: EngineRecipe,
    name: str = "here",
) -> ReplicationEngine:
    """A HERE replication engine built from ``recipe``.

    Unlike Remus, the two hypervisors may — and in the intended
    deployment do — differ; every checkpoint payload is translated.
    """
    return ReplicationEngine(
        sim,
        primary,
        secondary,
        link,
        recipe.config(),
        translator=StateTranslator(),
        cost_model=recipe.cost_model,
        name=name,
    )
