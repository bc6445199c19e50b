"""Automated re-protection after failover.

HERE is 1-redundant: the moment failover promotes the replica, the
service runs *unprotected* until a fresh backup is seeded somewhere
else.  The paper's fast heterogeneous migration matters precisely
because it shrinks this window (§8.4; vulnerability-window analysis in
:mod:`repro.security.window`).  The :class:`ReprotectionController`
makes the window a measured quantity: it waits for the
:class:`~repro.replication.failover.FailoverController` to complete,
plans a spare secondary with the
:class:`~repro.cluster.planner.ReplicationPlanner` (heterogeneous,
alive, with capacity), seeds a fresh backup over a new link from the
campaign's :class:`~repro.replication.here.EngineRecipe` (so it keeps
the transport and integrity overlay), and emits a ``reprotection``
telemetry span covering detection -> redundancy restored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..cluster.planner import PlacementRequest, ReplicationPlanner
from ..hardware.host import HostFailure
from ..hardware.link import LinkPair
from ..hypervisor.base import Hypervisor
from ..hypervisor.errors import HypervisorError
from ..replication.failover import FailoverController
from ..replication.here import EngineRecipe, here_engine
from ..replication.pipeline import StageFault
from ..replication.protocol import ProtocolError
from ..replication.transport import TransportError
from ..vm.devices import ReplicationUnsupported
from ..vm.machine import VmLifecycleError


@dataclass
class ReprotectionReport:
    """Outcome of one re-protection attempt."""

    vm_name: str
    #: When the original failure was detected (failover report).
    detected_at: float
    #: When re-seeding to the spare began.
    started_at: float
    #: When the fresh backup reached a consistent state (engine ready).
    ready_at: float
    #: The measured metric: detection -> redundancy restored.  The
    #: service ran 1-redundant (or dead) for this long.
    unprotected_window: float
    spare_host: str = ""
    spare_hypervisor: str = ""
    failed: bool = False
    failure_reason: str = ""
    #: The replication engine protecting the VM again (success only).
    engine: Optional[object] = field(default=None, repr=False, compare=False)


class ReprotectionController:
    """Restores redundancy once a failover has promoted the replica."""

    def __init__(
        self,
        sim,
        failover: FailoverController,
        spares: List[Hypervisor],
        recipe: EngineRecipe,
    ):
        if not spares:
            raise ValueError("re-protection needs at least one spare candidate")
        self.sim = sim
        self.failover = failover
        self.spares = list(spares)
        self.recipe = recipe
        self.report: Optional[ReprotectionReport] = None
        #: The fresh engine seeded to the spare (success only).
        self.engine = None
        #: The LinkPair carrying the new replication stream.
        self.link: Optional[LinkPair] = None
        #: Succeeds with the ReprotectionReport when the attempt ends.
        self.completed = sim.event(name="reprotection-complete")
        self.process = None

    def arm(self):
        """Start waiting for the failover to complete."""
        if self.process is not None:
            raise RuntimeError("reprotection controller already armed")
        self.process = self.sim.process(self._run(), name="reprotection")
        return self.process

    def _finish(self, report: ReprotectionReport) -> ReprotectionReport:
        self.report = report
        self.completed.succeed(report)
        return report

    def _fail(self, span, why: str, **fields) -> ReprotectionReport:
        span.end(failed=True, failure_reason=why)
        return self._finish(
            ReprotectionReport(
                ready_at=float("nan"),
                unprotected_window=float("nan"),
                failed=True,
                failure_reason=why,
                **fields,
            )
        )

    def _run(self):
        failover_report = yield self.failover.completed
        detected_at = failover_report.detected_at
        vm_name = (
            self.failover.engine.vm.name
            if self.failover.engine.vm is not None
            else ""
        )
        bus = self.sim.telemetry
        span = bus.span(
            "reprotection", vm=vm_name, detected_at=detected_at
        )
        if failover_report.failed:
            why = (
                "failover itself failed — nothing to re-protect: "
                f"{failover_report.failure_reason}"
            )
            return self._fail(
                span, why, vm_name=vm_name, detected_at=detected_at,
                started_at=self.sim.now,
            )
        # The old secondary is the new primary; the promoted replica is
        # already registered in its VM table (created during seeding).
        new_primary = self.failover.engine.secondary
        vm = self.failover.engine.replica_vm
        started_at = self.sim.now
        planner = ReplicationPlanner(
            [h for h in self.spares if h is not new_primary] + [new_primary]
        )
        request = PlacementRequest(vm.name, new_primary, vm.memory_bytes)
        plan = planner.plan([request])
        if not plan.fully_placed:
            why = f"no spare can host a fresh backup: {plan.unplaced[vm.name]}"
            return self._fail(
                span, why, vm_name=vm.name, detected_at=detected_at,
                started_at=started_at,
            )
        spare = plan.secondary_of(vm.name)
        self.link = LinkPair(
            new_primary.sim,
            new_primary.host.interconnect,
            name=f"{new_primary.host.name}->{spare.host.name}:reprotect",
        )
        self.engine = here_engine(
            self.sim,
            new_primary,
            spare,
            self.link,
            self.recipe,
            name=f"reprotect:{vm.name}",
        )
        self.engine.start(vm.name)
        try:
            yield self.engine.ready
        except (
            HypervisorError,
            HostFailure,
            VmLifecycleError,
            StageFault,
            ProtocolError,
            TransportError,
            ReplicationUnsupported,
            MemoryError,
            RuntimeError,
        ) as error:
            # Every way `engine.ready` legitimately fails: the spare
            # died or rejected the seed mid-way, the engine was halted
            # (RuntimeError wraps the interrupt cause), or capacity ran
            # out.  Anything else propagates — see below.
            why = f"re-seeding to {spare.host.name} failed: {error}"
            return self._fail(
                span, why, vm_name=vm.name, detected_at=detected_at,
                started_at=started_at, spare_host=spare.host.name,
                spare_hypervisor=spare.product,
            )
        except Exception as error:
            # Not part of the simulation's fault taxonomy — a bug.
            # Count it and re-raise rather than filing it as a normal
            # re-protection failure.
            self.sim.telemetry.counter(
                "error.unexpected", 1.0,
                vm=vm.name,
                where="reprotection-seeding",
                kind=type(error).__name__,
            )
            span.end(failed=True, failure_reason=str(error))
            raise
        ready_at = self.sim.now
        window = ready_at - detected_at
        span.end(
            failed=False,
            unprotected_window=window,
            spare_host=spare.host.name,
            spare_hypervisor=spare.product,
        )
        if bus.enabled:
            bus.gauge(
                "reprotection.unprotected_window", window,
                vm=vm.name, spare_host=spare.host.name,
            )
        return self._finish(
            ReprotectionReport(
                vm_name=vm.name,
                detected_at=detected_at,
                started_at=started_at,
                ready_at=ready_at,
                unprotected_window=window,
                spare_host=spare.host.name,
                spare_hypervisor=spare.product,
                engine=self.engine,
            )
        )
