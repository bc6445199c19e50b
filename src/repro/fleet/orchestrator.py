"""The fleet control plane: shards, spares, and the feedback loop.

:class:`FleetOrchestrator` turns a :class:`~repro.fleet.spec.FleetSpec`
into a running fleet on the sharded kernel:

1. A **planning model** — one lightweight `Simulation` holding a
   logical host/hypervisor per physical machine, labelled in a
   :class:`~repro.cluster.fleetplan.Topology` — is what the
   :class:`~repro.cluster.fleetplan.FleetPlanner` plans against.  It
   is never advanced; it tracks *state* (which hosts are up, committed
   spare capacity), not time.
2. Each planned **(primary host, secondary host) pair** becomes one
   shard of a :class:`~repro.simkernel.sharded.ShardedSimulation`,
   holding shard-local materializations of its two hosts, the VMs they
   protect, one shared interconnect link, and a HERE engine + heartbeat
   + failover controller per VM.  A physical host appearing in k pairs
   is materialized k times — shard calendars never share objects, which
   is what lets them advance independently between boundaries.
3. A **control loop** on the fleet calendar runs every quantum:
   poll shards for redundancy losses -> reap finished re-seedings ->
   observe -> :meth:`~repro.fleet.control.FleetControlLogic.decide` ->
   apply (admission limit, period scale) -> drain the re-protection
   queue onto planner-chosen spares.

Cross-shard effects (fault fan-out, re-seed starts) land only at
quantum boundaries, so a fleet run is deterministic for a fixed seed
regardless of host machine or wall-clock conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..cluster.fleetplan import FleetConstraints, FleetPlanner, Topology
from ..cluster.planner import PlacementRequest, PlanResult
from ..faults.protection import Protection, protect_engine
from ..hardware.host import Host
from ..hardware.link import LinkPair
from ..hardware.memory import MemorySpec
from ..hypervisor import registry
from ..hypervisor.base import Hypervisor
from ..recovery import MicrorebootEngine, RecoveryPolicy
from ..replication.engine import ReplicationEngine
from ..replication.here import EngineRecipe, here_engine
from ..simkernel.core import Simulation
from ..simkernel.random import derive_seed
from ..simkernel.sharded import ShardedSimulation
from .control import ControlAction, FleetControlLogic, FleetObservation
from .queue import AdmissionController, ReprotectRequest, ReprotectionQueue
from .spec import FleetSpec

#: Drain attempts before a request is declared unrecoverable.
MAX_REPROTECT_ATTEMPTS = 5


@dataclass
class PairShard:
    """One materialized host pair and everything protecting its VMs."""

    name: str
    sim: Simulation
    primary: Hypervisor
    secondary: Hypervisor
    link: LinkPair
    engines: Dict[str, ReplicationEngine] = field(default_factory=dict)
    #: Detector, recovery gate and failover controller per VM name.
    protections: Dict[str, Protection] = field(default_factory=dict)
    #: Spare hypervisors materialized into this shard for re-seeding,
    #: keyed by logical host name.
    spares: Dict[str, Hypervisor] = field(default_factory=dict)
    #: Re-seed engines, keyed by VM name.
    reseed_engines: Dict[str, ReplicationEngine] = field(default_factory=dict)


@dataclass
class Reseeding:
    """One admitted re-protection streaming onto a spare."""

    request: ReprotectRequest
    engine: ReplicationEngine
    spare_host: str
    started_at: float


@dataclass
class ReprotectionRecord:
    """A completed (or abandoned) re-protection, for the fingerprint."""

    vm_name: str
    shard_name: str
    spare_host: str = ""
    detected_at: float = math.nan
    ready_at: float = math.nan
    unprotected_window: float = math.nan
    failed: bool = False
    failure_reason: str = ""


class FleetOrchestrator:
    """Materializes and runs a protected fleet on the sharded kernel."""

    def __init__(self, spec: FleetSpec):
        self.spec = spec
        #: What every seed and re-seed builds its HERE engine from.
        self.recipe = EngineRecipe(
            target_degradation=spec.target_degradation,
            t_max=spec.t_max,
            checkpoint_threads=spec.checkpoint_threads,
            integrity=spec.integrity,
        )
        # -- planning model (state only, never advanced) --------------------
        self.planning_sim = Simulation(seed=derive_seed(spec.seed, "plan"))
        self.topology = Topology()
        self.logical: Dict[str, Hypervisor] = {}
        memory = MemorySpec(total_bytes=spec.host_memory_bytes)
        for name, flavor, zone, rack in spec.grid_hosts + spec.spare_hosts:
            host = Host(self.planning_sim, name, memory=memory)
            self.logical[name] = registry.install(
                flavor, self.planning_sim, host
            )
            self.topology.add(name, zone=zone, rack=rack)
        spare_names = [name for name, _, _, _ in spec.spare_hosts]
        self.planner = FleetPlanner(
            list(self.logical.values()),
            topology=self.topology,
            constraints=FleetConstraints(
                anti_affinity=spec.anti_affinity,
                max_vms_per_link=spec.max_vms_per_link,
            ),
            spares=spare_names,
        )
        self.plan = self._plan_vms()
        # -- shards ----------------------------------------------------------
        self.sharded = ShardedSimulation(seed=spec.seed, quantum=spec.quantum)
        self.shards: Dict[str, PairShard] = {}
        #: logical host name -> every (shard, Host) materialization.
        self.materializations: Dict[str, List[Tuple[PairShard, Host]]] = {}
        for pair, placements in self.plan.by_host_pair().items():
            self._materialize_pair(pair, placements)
        # -- control plane ---------------------------------------------------
        self.queue = ReprotectionQueue()
        self.admission = AdmissionController()
        self.logic = FleetControlLogic(
            max_admission=self.admission.max_limit
        )
        self.period_scale = 1.0
        self.last_action: Optional[ControlAction] = None
        #: Spare memory already promised to re-seedings (host -> bytes).
        self.committed: Dict[str, int] = {}
        self.inflight: Dict[str, Reseeding] = {}
        self.reprotections: List[ReprotectionRecord] = []
        self.dropped: Dict[str, str] = {}
        self.failovers = 0
        self.failed_failovers = 0
        self.secondary_losses = 0
        self.recoveries = 0
        self.failed_recoveries = 0
        self._handled: set = set()
        self._escalations: set = set()
        self._started = False

    # -- construction --------------------------------------------------------
    def _plan_vms(self) -> PlanResult:
        xen_primaries = sorted(
            (
                hv
                for hv in self.planner.hypervisors
                if hv.flavor == "xen"
                and hv.host.name not in self.planner.spares
            ),
            key=lambda hv: hv.host.name,
        )
        requests = [
            PlacementRequest(
                f"vm-{number:04d}",
                xen_primaries[number % len(xen_primaries)],
                self.spec.vm_memory_bytes,
            )
            for number in range(self.spec.vms)
        ]
        plan = self.planner.plan(requests)
        if not plan.fully_placed:
            raise RuntimeError(
                f"the fleet cannot protect all {self.spec.vms} VMs: "
                f"{plan.unplaced}"
            )
        return plan

    def _materialize_host(
        self, shard: PairShard, logical_name: str
    ) -> Hypervisor:
        """A shard-local replica of one physical host + its hypervisor."""
        logical = self.logical[logical_name]
        host = Host(
            shard.sim,
            logical_name,
            memory=MemorySpec(total_bytes=self.spec.host_memory_bytes),
        )
        hypervisor = registry.install(logical.flavor, shard.sim, host)
        self.materializations.setdefault(logical_name, []).append(
            (shard, host)
        )
        return hypervisor

    def _materialize_pair(self, pair, placements) -> None:
        primary_name, secondary_name = pair
        shard_name = f"{primary_name}--{secondary_name}"
        sim = self.sharded.add_shard(shard_name)
        shard = PairShard(
            name=shard_name,
            sim=sim,
            primary=None,  # type: ignore[arg-type]
            secondary=None,  # type: ignore[arg-type]
            link=None,  # type: ignore[arg-type]
        )
        shard.primary = self._materialize_host(shard, primary_name)
        shard.secondary = self._materialize_host(shard, secondary_name)
        shard.link = LinkPair(
            sim, shard.primary.host.interconnect, name=f"ic:{shard_name}"
        )
        self.shards[shard_name] = shard
        for placement in placements:
            vm = shard.primary.create_vm(
                placement.vm_name,
                vcpus=2,
                memory_bytes=self.spec.vm_memory_bytes,
                seed=derive_seed(self.spec.seed, f"vm:{placement.vm_name}"),
            )
            vm.start()
            shard.engines[placement.vm_name] = here_engine(
                sim,
                shard.primary,
                shard.secondary,
                shard.link,
                self.recipe,
                name=f"here:{placement.vm_name}",
            )

    # -- lifecycle -----------------------------------------------------------
    @property
    def fleet_sim(self) -> Simulation:
        return self.sharded.fleet

    @property
    def now(self) -> float:
        return self.sharded.now

    def start_protection(self, seed_deadline: float = 60.0) -> None:
        """Start every engine/monitor/failover and run initial seeding.

        Advances the fleet in quanta until every engine is ready (or
        ``seed_deadline`` fleet-seconds pass, which is an error), then
        starts the control loop.
        """
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        for shard_name in self.sharded.shard_names():
            shard = self.shards[shard_name]
            # Per-zone policy: the zone of the shard's *primary* host
            # decides how its VMs answer a dead hypervisor.
            zone = self.topology.zone_of(shard.primary.host.name)
            policy = RecoveryPolicy.parse(self.spec.policy_for_zone(zone))
            microreboots: Dict[str, MicrorebootEngine] = {}
            for vm_name in sorted(shard.engines):
                engine = shard.engines[vm_name]
                engine.start(vm_name)
                shard.protections[vm_name] = protect_engine(
                    shard.sim,
                    engine,
                    interval=self.spec.heartbeat_interval,
                    miss_threshold=self.spec.miss_threshold,
                    microreboots=microreboots,
                    policy=policy,
                )
        deadline = self.now + seed_deadline
        while not self._all_ready() and self.now < deadline:
            self.sharded.step_quantum()
        not_ready = [
            vm
            for shard in self.shards.values()
            for vm, engine in shard.engines.items()
            if engine.ready.ok is not True
        ]
        if not_ready:
            raise RuntimeError(
                f"initial seeding missed the deadline: {sorted(not_ready)}"
            )
        self.fleet_sim.process(self._control_loop(), name="fleet-control")

    def _all_ready(self) -> bool:
        return all(
            engine.ready.ok is not None
            for shard in self.shards.values()
            for engine in shard.engines.values()
        )

    def run_for(self, duration: float) -> None:
        self.sharded.run_for(duration)

    def run(self, until: float) -> None:
        self.sharded.run(until=until)

    # -- the boundary loop ---------------------------------------------------
    def _control_loop(self):
        while True:
            yield self.fleet_sim.timeout(self.spec.quantum)
            self._poll_shards()
            self._reap_reseedings()
            observation = self.observe()
            action = self.logic.decide(observation)
            self._apply(action)
            self._drain_queue()
            bus = self.fleet_sim.telemetry
            if bus.enabled:
                bus.gauge(
                    "fleet.protected_fraction",
                    observation.protected_fraction,
                )
                bus.gauge("fleet.queue_depth", float(self.queue.depth))
                bus.gauge(
                    "fleet.admission_limit", float(self.admission.limit)
                )
                bus.gauge("fleet.inflight", float(len(self.inflight)))

    def _poll_shards(self) -> None:
        """Find redundancy losses the shards detected since last boundary."""
        for shard_name in self.sharded.shard_names():
            shard = self.shards[shard_name]
            for vm_name in sorted(shard.engines):
                if vm_name in self._handled:
                    continue
                engine = shard.engines[vm_name]
                protection = shard.protections[vm_name]
                report = protection.failover.report
                gate = protection.gate
                recovery = gate.report if gate is not None else None
                if recovery is not None and recovery.recovered:
                    # The microreboot restored the VM in place and the
                    # engine re-armed incrementally: redundancy is back
                    # without touching the spare pool.  Recorded as a
                    # re-protection so the window statistics price both
                    # paths with the same accounting.
                    self._handled.add(vm_name)
                    self.recoveries += 1
                    self.reprotections.append(
                        ReprotectionRecord(
                            vm_name=vm_name,
                            shard_name=shard_name,
                            spare_host="(in-place)",
                            detected_at=recovery.detected_at,
                            ready_at=recovery.resolved_at,
                            unprotected_window=recovery.unprotected_window,
                        )
                    )
                    bus = self.fleet_sim.telemetry
                    if bus.enabled:
                        bus.counter(
                            "fleet.vm.recovered", 1.0,
                            vm=vm_name, shard=shard_name,
                        )
                    continue
                if recovery is not None and not recovery.escalated:
                    # Pure recover-in-place that did not recover (a
                    # failed microreboot, or nothing to microreboot —
                    # e.g. the whole host lost power): the gate never
                    # propagates, so no failover will ever happen — the
                    # VM is lost by policy.
                    self._handled.add(vm_name)
                    if recovery.attempted:
                        self.failed_recoveries += 1
                    self._drop(
                        vm_name,
                        shard,
                        "in-place recovery failed: "
                        f"{recovery.failure_reason}",
                    )
                    continue
                if (
                    recovery is not None
                    and recovery.escalated
                    and recovery.attempted
                ):
                    # Hybrid fallback in flight: count the failed
                    # attempt once, then let the failover report drive
                    # the normal re-protection path below.
                    if vm_name not in self._escalations:
                        self._escalations.add(vm_name)
                        self.failed_recoveries += 1
                if report is not None:
                    self._handled.add(vm_name)
                    if report.failed:
                        self.failed_failovers += 1
                        self._drop(
                            vm_name,
                            shard,
                            f"failover failed: {report.failure_reason}",
                        )
                        continue
                    self.failovers += 1
                    self._enqueue(
                        vm_name,
                        shard,
                        primary_host=engine.secondary.host.name,
                        detected_at=report.detected_at,
                        cause="failover",
                    )
                elif (
                    engine.ready.ok is True
                    and not engine.secondary.host.is_up
                    and engine.primary.host.is_up
                    and engine.vm is not None
                    and not engine.vm.is_destroyed
                ):
                    # The replica's host died under it: the primary is
                    # fine but the VM runs 1-redundant from here on.
                    self._handled.add(vm_name)
                    self.secondary_losses += 1
                    engine.halt("secondary host lost")
                    self._enqueue(
                        vm_name,
                        shard,
                        primary_host=engine.primary.host.name,
                        detected_at=self.now,
                        cause="secondary-loss",
                    )

    def _enqueue(self, vm_name, shard, primary_host, detected_at, cause):
        self.queue.push(
            ReprotectRequest(
                vm_name=vm_name,
                shard_name=shard.name,
                primary_host=primary_host,
                memory_bytes=self.spec.vm_memory_bytes,
                detected_at=detected_at,
                enqueued_at=self.now,
                cause=cause,
            )
        )
        bus = self.fleet_sim.telemetry
        if bus.enabled:
            bus.counter(
                "fleet.reprotect.enqueued", 1.0, vm=vm_name, cause=cause
            )

    def _drop(self, vm_name: str, shard: PairShard, reason: str) -> None:
        self.dropped[vm_name] = reason
        bus = self.fleet_sim.telemetry
        if bus.enabled:
            bus.counter(
                "fleet.vm.dropped", 1.0, vm=vm_name, reason=reason
            )

    def _surviving_side(self, request: ReprotectRequest):
        """The (hypervisor, vm) pair a re-seed streams *from*."""
        shard = self.shards[request.shard_name]
        engine = shard.engines[request.vm_name]
        if request.cause == "failover":
            return shard, engine.secondary, engine.replica_vm
        return shard, engine.primary, engine.vm

    def _drain_queue(self) -> None:
        admitted = self.queue.drain(
            self.now, len(self.inflight), self.admission
        )
        for request in admitted:
            self._start_reseeding(request)

    def _retry_later(self, request: ReprotectRequest, reason: str) -> None:
        """Requeue with backoff, or abandon once retries are exhausted."""
        request.attempts += 1
        if request.attempts >= MAX_REPROTECT_ATTEMPTS:
            self._abandon(request, reason)
        else:
            request.not_before = self.now + self.spec.reprotect_retry_delay
            self.queue.requeue(request)

    def _start_reseeding(self, request: ReprotectRequest) -> None:
        shard, new_primary, vm = self._surviving_side(request)
        if (
            vm is None
            or vm.is_destroyed
            or not new_primary.host.is_up
            or not new_primary.is_responsive
        ):
            self._abandon(request, "the surviving side died while queued")
            return
        logical_primary = self.logical[request.primary_host]
        plan = self.planner.plan_spare(
            PlacementRequest(
                request.vm_name, logical_primary, request.memory_bytes
            ),
            committed_spare_bytes=self.committed,
        )
        if not plan.fully_placed:
            reason = plan.unplaced[request.vm_name]
            self._retry_later(request, f"no spare after retries: {reason}")
            return
        spare_name = plan.secondary_of(request.vm_name).host.name
        self.committed[spare_name] = (
            self.committed.get(spare_name, 0) + request.memory_bytes
        )
        if spare_name not in shard.spares:
            shard.spares[spare_name] = self._materialize_host(
                shard, spare_name
            )
        spare = shard.spares[spare_name]
        link = LinkPair(
            shard.sim,
            new_primary.host.interconnect,
            name=f"reseed:{request.vm_name}",
        )
        recipe = replace(self.recipe, t_max=self.recipe.t_max * self.period_scale)
        engine = here_engine(
            shard.sim,
            new_primary,
            spare,
            link,
            recipe,
            name=f"reseed:{request.vm_name}",
        )
        engine.start(request.vm_name)
        shard.reseed_engines[request.vm_name] = engine
        self.inflight[request.vm_name] = Reseeding(
            request=request,
            engine=engine,
            spare_host=spare_name,
            started_at=self.now,
        )
        bus = self.fleet_sim.telemetry
        if bus.enabled:
            bus.counter(
                "fleet.reprotect.started", 1.0,
                vm=request.vm_name, spare=spare_name,
            )

    def _reap_reseedings(self) -> None:
        for vm_name in sorted(self.inflight):
            reseeding = self.inflight[vm_name]
            ok = reseeding.engine.ready.ok
            if ok is None:
                continue
            del self.inflight[vm_name]
            request = reseeding.request
            if ok:
                ready_at = reseeding.engine.ready.value
                record = ReprotectionRecord(
                    vm_name=vm_name,
                    shard_name=request.shard_name,
                    spare_host=reseeding.spare_host,
                    detected_at=request.detected_at,
                    ready_at=ready_at,
                    unprotected_window=ready_at - request.detected_at,
                )
                self.reprotections.append(record)
                self.queue.stats.completed += 1
                bus = self.fleet_sim.telemetry
                if bus.enabled:
                    bus.gauge(
                        "fleet.reprotect.unprotected_window",
                        record.unprotected_window,
                        vm=vm_name, spare=reseeding.spare_host,
                    )
                continue
            # The re-seed failed (e.g. the spare's zone went down too):
            # release the committed capacity and retry elsewhere.
            self.committed[reseeding.spare_host] -= request.memory_bytes
            self._retry_later(request, "re-seeding failed after retries")

    def _abandon(self, request: ReprotectRequest, reason: str) -> None:
        shard = self.shards[request.shard_name]
        self.queue.stats.failed += 1
        self.reprotections.append(
            ReprotectionRecord(
                vm_name=request.vm_name,
                shard_name=request.shard_name,
                detected_at=request.detected_at,
                failed=True,
                failure_reason=reason,
            )
        )
        self._drop(request.vm_name, shard, f"re-protection abandoned: {reason}")

    # -- observation / actuation --------------------------------------------
    def observe(self) -> FleetObservation:
        total = self.spec.vms
        unprotected = self.queue.depth + len(self.inflight)
        dropped = len(self.dropped)
        return FleetObservation(
            time=self.now,
            total_vms=total,
            protected=max(total - unprotected - dropped, 0),
            unprotected=unprotected,
            dropped=dropped,
            queue_depth=self.queue.depth,
            inflight_reseedings=len(self.inflight),
            spare_free_fraction=self._spare_free_fraction(),
            availability_slo=self.spec.availability_slo,
        )

    def _spare_free_fraction(self) -> float:
        spares = self.planner.spare_hypervisors()
        if not spares:
            return 0.0
        total = free = 0
        for hypervisor in spares:
            capacity = hypervisor.host.memory_pool.free_bytes
            total += capacity
            if hypervisor.host.is_up:
                free += max(
                    capacity - self.committed.get(hypervisor.host.name, 0), 0
                )
        return free / total if total else 0.0

    def _apply(self, action: ControlAction) -> None:
        self.admission.limit = action.admission_limit
        self.period_scale = action.period_scale
        self.last_action = action

    # -- teardown ------------------------------------------------------------
    def halt(self, reason: str = "fleet halted") -> None:
        """Stop every engine and monitor (campaign teardown)."""
        for shard in self.shards.values():
            for protection in shard.protections.values():
                protection.stop()
            for engine in shard.engines.values():
                engine.halt(reason)
            for engine in shard.reseed_engines.values():
                engine.halt(reason)
