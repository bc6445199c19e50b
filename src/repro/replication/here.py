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


def here_controller(
    target_degradation: float,
    t_max: float = math.inf,
    sigma: float = 0.25,
    initial_period=None,
) -> PeriodController:
    """The paper's (D, T_max) configuration surface (Table 6).

    ``target_degradation = 0`` enforces ``T = T_max`` (the fixed-period
    configurations such as HERE(3Sec, 0 %)); any positive target enables
    Algorithm 1.
    """
    if target_degradation == 0.0:
        if not math.isfinite(t_max):
            raise ValueError("D=0% requires a finite T_max (T is pinned to it)")
        return FixedPeriodController(t_max)
    return DynamicPeriodController(
        target_degradation=target_degradation,
        t_max=t_max,
        sigma=sigma,
        initial_period=initial_period,
    )


def here_config(
    controller: PeriodController,
    checkpoint_threads: int = DEFAULT_CHECKPOINT_THREADS,
    transport: Optional[TransportConfig] = None,
    integrity: Optional[IntegrityConfig] = None,
) -> ReplicationConfig:
    """HERE parameters with the given period controller."""
    return ReplicationConfig(
        controller=controller,
        checkpoint_threads=checkpoint_threads,
        chunked_transfer=True,
        per_vcpu_seeding=True,
        transport=transport,
        integrity=integrity,
    )


def here_engine(
    sim,
    primary: Hypervisor,
    secondary: Hypervisor,
    link: LinkPair,
    target_degradation: float = 0.3,
    t_max: float = math.inf,
    sigma: float = 0.25,
    initial_period=None,
    checkpoint_threads: int = DEFAULT_CHECKPOINT_THREADS,
    controller: Optional[PeriodController] = None,
    cost_model: Optional[TransferCostModel] = None,
    translator: Optional[StateTranslator] = None,
    name: str = "here",
    transport: Optional[TransportConfig] = None,
    integrity: Optional[IntegrityConfig] = None,
    generation: int = 0,
) -> ReplicationEngine:
    """A HERE replication engine.

    Parameters mirror the paper's configuration surface: the desired
    degradation ``D`` (soft), the maximum checkpoint interval ``T_max``
    (hard), and the adjustment step ``σ``.  Pass an explicit
    ``controller`` to override the (D, T_max) surface entirely.

    Unlike Remus, the two hypervisors may — and in the intended
    deployment do — differ; every checkpoint payload is translated.
    """
    chosen = controller or here_controller(
        target_degradation, t_max, sigma, initial_period
    )
    return ReplicationEngine(
        sim,
        primary,
        secondary,
        link,
        here_config(
            chosen, checkpoint_threads,
            transport=transport, integrity=integrity,
        ),
        translator=translator or StateTranslator(),
        cost_model=cost_model,
        name=name,
        generation=generation,
    )
