"""One-call construction of a protected deployment.

Every experiment in the paper uses the same shape: two hosts on an
Omni-Path interconnect, a hypervisor on each, one protected VM with a
workload, a replication engine, a heartbeat, and a failover controller.
:class:`ProtectedDeployment` assembles all of it from a
:class:`DeploymentSpec` so benchmarks and examples stay short and
consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..hardware.link import LinkPair
from ..hardware.perfmodel import TransferCostModel
from ..hardware.topology import Testbed, build_testbed
from ..hardware.units import GIB
from ..hypervisor import registry
from ..hypervisor.base import Hypervisor
from ..net.egress import EgressBuffer
from ..net.service import ServiceConnection
from ..integrity.config import IntegrityConfig
from ..recovery import MicrorebootConfig, RecoveryPolicy
from ..replication.colo import colo_engine
from ..replication.engine import ReplicationEngine
from ..replication.failover import FailoverController
from ..replication.here import EngineRecipe, here_engine
from ..replication.remus import remus_engine
from ..replication.transport import TransportConfig
from ..simkernel.core import Simulation
from ..vm.machine import VirtualMachine
from .planner import PlanResult


@dataclass
class DeploymentSpec:
    """Declarative description of a protected deployment."""

    vm_name: str = "protected"
    vcpus: int = 4
    memory_bytes: int = 8 * GIB
    primary_flavor: str = "xen"
    secondary_flavor: str = "kvm"
    #: "here", "remus" or "colo" (lock-stepping baseline).
    engine: str = "here"
    #: Remus's fixed period / HERE's T_max (∞ allowed for HERE).
    period: float = 5.0
    #: COLO's output-comparison interval (engine="colo" only).
    comparison_interval: float = 0.02
    #: HERE's desired degradation D (0 pins T to T_max).
    target_degradation: float = 0.0
    #: Algorithm 1's adjustment step σ.
    sigma: float = 0.25
    #: Optional override of Algorithm 1's initial T = T_max (see
    #: DynamicPeriodController.__init__).
    initial_period: Optional[float] = None
    checkpoint_threads: int = 4
    heartbeat_interval: float = 0.03
    heartbeat_misses: int = 3
    #: Tolerated consecutive misses while the transport reports "link
    #: degraded but alive" (lossy links; needs a reliable transport).
    degraded_heartbeat_misses: Optional[int] = None
    seed: int = 0
    cost_model: Optional[TransferCostModel] = None
    #: Hardened transport config; None keeps the classic protocol
    #: ("here" engines only — Remus/COLO model the original papers).
    transport: Optional[TransportConfig] = None
    #: End-to-end integrity (attestation + scrubbing + repair ladder);
    #: None — the default — adds nothing to the run ("here" only).
    integrity: Optional[IntegrityConfig] = None

    def __post_init__(self):
        if self.engine not in ("here", "remus", "colo"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.engine == "remus" and not math.isfinite(self.period):
            raise ValueError("Remus needs a finite checkpoint period")
        if self.engine == "colo" and not self.comparison_interval > 0:
            raise ValueError("COLO needs a positive comparison interval")
        if self.transport is not None and self.engine != "here":
            raise ValueError(
                "the hardened transport is a HERE feature; "
                f"engine {self.engine!r} does not support it"
            )
        if self.integrity is not None and self.engine != "here":
            raise ValueError(
                "checkpoint integrity is a HERE feature; "
                f"engine {self.engine!r} does not support it"
            )
        if (
            self.degraded_heartbeat_misses is not None
            and self.degraded_heartbeat_misses < self.heartbeat_misses
        ):
            raise ValueError(
                "degraded_heartbeat_misses must be >= heartbeat_misses"
            )


class ProtectedDeployment:
    """The assembled testbed, engines and protected VM."""

    def __init__(self, spec: DeploymentSpec):
        self.spec = spec
        self.sim = Simulation(seed=spec.seed)
        host_kwargs = {}
        if spec.cost_model is not None:
            host_kwargs["cost_model"] = spec.cost_model
        self.testbed: Testbed = build_testbed(self.sim, **host_kwargs)
        self.primary: Hypervisor = registry.install(
            spec.primary_flavor, self.sim, self.testbed.primary
        )
        self.secondary: Hypervisor = registry.install(
            spec.secondary_flavor, self.sim, self.testbed.secondary
        )
        self.vm: VirtualMachine = self.primary.create_vm(
            spec.vm_name,
            vcpus=spec.vcpus,
            memory_bytes=spec.memory_bytes,
            seed=spec.seed,
        )
        self.vm.start()
        if spec.engine == "remus":
            self.engine: ReplicationEngine = remus_engine(
                self.sim,
                self.primary,
                self.secondary,
                self.testbed.interconnect,
                period=spec.period,
                cost_model=spec.cost_model,
            )
        elif spec.engine == "colo":
            self.engine = colo_engine(
                self.sim,
                self.primary,
                self.secondary,
                self.testbed.interconnect,
                comparison_interval=spec.comparison_interval,
                cost_model=spec.cost_model,
            )
        else:
            recipe = EngineRecipe(
                target_degradation=spec.target_degradation,
                t_max=spec.period,
                sigma=spec.sigma,
                initial_period=spec.initial_period,
                checkpoint_threads=spec.checkpoint_threads,
                cost_model=spec.cost_model,
                transport=spec.transport,
                integrity=spec.integrity,
            )
            self.engine = here_engine(
                self.sim,
                self.primary,
                self.secondary,
                self.testbed.interconnect,
                recipe,
            )
        #: Built by :meth:`start_protection`.
        self.protection = None
        self.service: Optional[ServiceConnection] = None

    # -- orchestration -------------------------------------------------------
    def start_protection(
        self,
        wait_ready: bool = True,
        *,
        policy: RecoveryPolicy = RecoveryPolicy.FAILOVER,
        microreboot: Optional[MicrorebootConfig] = None,
    ) -> None:
        """Start the engine, then protect it (:func:`protect_engine`),
        and optionally run seeding to completion."""
        # Imported here: repro.faults imports this module.
        from ..faults.protection import protect_engine

        spec = self.spec
        self.engine.start(spec.vm_name)
        self.protection = protect_engine(
            self.sim,
            self.engine,
            interval=spec.heartbeat_interval,
            miss_threshold=spec.heartbeat_misses,
            degraded_miss_threshold=spec.degraded_heartbeat_misses,
            policy=policy,
            microreboot=microreboot,
            replica_service_link=self.testbed.service_secondary,
        )
        if wait_ready:
            self.sim.run_until_triggered(self.engine.ready)

    def _started_protection(self):
        if self.protection is None:
            raise RuntimeError("start_protection() must run first")
        return self.protection

    @property
    def monitor(self):
        return self._started_protection().monitor

    @property
    def failover(self) -> Optional[FailoverController]:
        """None for COLO (lock-stepping has no acked checkpoint)."""
        return self._started_protection().failover

    def attach_service(self, service_time: float = 20e-6) -> ServiceConnection:
        """Wire an external client path through the engine's egress.

        Must run after :meth:`start_protection` so the connection uses
        the replication engine's output-commit buffer.
        """
        if self.engine.device_manager is None:
            raise RuntimeError("start_protection() must run first")
        self.service = ServiceConnection(
            self.sim,
            self.vm,
            self.testbed.service_primary,
            self.engine.device_manager.egress,
            service_time=service_time,
            name=f"svc:{self.spec.vm_name}",
        )
        if self.failover is not None:
            self.failover.service = self.service
        return self.service

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)

    # -- convenience accessors ---------------------------------------------------
    @property
    def stats(self):
        return self.engine.stats

    @property
    def replica(self) -> Optional[VirtualMachine]:
        return self.engine.replica_vm


def unprotected_baseline(
    spec: DeploymentSpec,
) -> "ProtectedDeployment":
    """The same deployment without any replication engine running.

    Used for the "Xen" baseline bars of Figs. 11–16: the VM and its
    workload run, but no checkpoints ever pause it.  The engine object
    exists but is never started; the service path gets a passthrough
    egress buffer.
    """
    deployment = ProtectedDeployment(spec)
    egress = EgressBuffer(
        deployment.sim, name=f"egress:{spec.vm_name}:baseline"
    )
    deployment.service = ServiceConnection(
        deployment.sim,
        deployment.vm,
        deployment.testbed.service_primary,
        egress,
        name=f"svc:{spec.vm_name}:baseline",
    )
    return deployment


class ProtectedFleet:
    """A planned fleet of replication pipelines over shared interconnects.

    Where :class:`ProtectedDeployment` assembles the paper's two-host
    testbed, this takes a :class:`~repro.cluster.planner.PlanResult`
    over an arbitrary fleet and stands up one HERE engine per placed VM
    from ``recipe``.  All placements of one (primary host, secondary
    host) pair share a single :class:`LinkPair` over the primary's
    interconnect NIC — N checkpoint pipelines contending for the same
    wire, which is exactly the fleet situation the ablation suite
    measures.
    """

    def __init__(self, sim, plan: PlanResult, recipe: EngineRecipe):
        if not plan.placements:
            raise ValueError("the plan has no placements to deploy")
        self.sim = sim
        self.plan = plan
        self.links: Dict[Tuple[str, str], LinkPair] = {}
        self.engines: Dict[str, ReplicationEngine] = {}
        for pair, placements in plan.by_host_pair().items():
            link = LinkPair(
                sim,
                placements[0].primary.host.interconnect,
                name=f"{pair[0]}->{pair[1]}",
            )
            self.links[pair] = link
            for placement in placements:
                self.engines[placement.vm_name] = here_engine(
                    sim,
                    placement.primary,
                    placement.secondary,
                    link,
                    recipe,
                    name=f"here:{placement.vm_name}",
                )

    def start_protection(self, wait_ready: bool = True) -> None:
        """Start every engine; optionally run all seedings to completion."""
        for vm_name, engine in self.engines.items():
            engine.start(vm_name)
        if wait_ready:
            self.sim.run_until_triggered(
                self.sim.all_of([e.ready for e in self.engines.values()])
            )

    def halt(self, reason: str = "fleet halted") -> None:
        for engine in self.engines.values():
            engine.halt(reason)
