"""COLO-style lock-stepping replication (LSR) — the *other* model (§3.1).

The paper contrasts two replication models: asynchronous state
replication (Remus/HERE) and **VM lock-stepping** (COLO), where primary
and replica execute *simultaneously* and a replication controller
compares their externally-visible outputs.  Matching outputs prove the
replica is an acceptable failover target, so packets release with no
buffering delay; diverging outputs force a state synchronisation (a
Remus-style checkpoint) before anything escapes.

The paper's reason for *not* building HERE on LSR (§3.1, §5.4): keeping
divergence rare "necessitates ... significant similarities between the
device model implementations of the primary and replica VM".  Two
different hypervisors deliver interrupts, timestamps and virtio/vif
ring completions differently, so a heterogeneous lock-step pair
diverges almost every comparison and degenerates into
worse-than-Remus continuous checkpointing.

This module implements that model faithfully enough to serve as the
baseline the paper argues against:

* both VMs execute; outputs are compared every ``comparison_interval``;
* divergence is a Bernoulli draw per comparison whose probability is
  derived from the *device-model similarity* of the two hypervisors
  (same flavor: rare; different flavor: near-certain);
* a divergence triggers a forced synchronisation — pause, transfer the
  dirty set, resume — exactly the ASR checkpoint path;
* client-visible latency is the comparison interval (plus syncs), not
  a checkpoint period.

The ``benchmarks/test_baseline_colo.py`` experiment uses it to show
the crossover: COLO wins latency homogeneously, collapses
heterogeneously — which is precisely why HERE uses ASR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..hardware.host import HostFailure
from ..hardware.link import LinkPair
from ..hardware.perfmodel import TransferCostModel
from ..hardware.units import PAGE_SIZE
from ..hypervisor.base import Hypervisor
from ..hypervisor.errors import HypervisorDown
from ..migration.precopy import iterative_precopy
from ..simkernel.errors import Interrupt
from ..telemetry import NULL_SPAN
from ..vm.machine import VmLifecycleError
from .devices import DeviceManager
from .pipeline import (
    AwaitAckStage,
    CaptureDirtyStage,
    CheckpointContext,
    CheckpointPipeline,
    ExtractStateStage,
    FlatTransferPolicy,
    PauseStage,
    ResumeStage,
    ShipStateStage,
    TransferStage,
    TranslateStage,
)
from .translator import StateTranslator

#: Per-comparison divergence probability for a homogeneous pair (same
#: hypervisor, same device models): rare scheduler/timing divergences.
HOMOGENEOUS_DIVERGENCE_PROBABILITY = 0.002
#: ... and for a heterogeneous pair: different device models produce
#: different interrupt/completion orderings almost every time.
HETEROGENEOUS_DIVERGENCE_PROBABILITY = 0.95


class HeterogeneousLockstepError(ValueError):
    """Raised when a lock-step pair crosses hypervisor families."""


@dataclass
class ComparisonRecord:
    """One output comparison."""

    at: float
    diverged: bool
    sync_duration: float = 0.0
    dirty_pages: float = 0.0


@dataclass
class ColoStats:
    """Aggregate record of one lock-stepping run."""

    vm_name: str
    started_at: float = 0.0
    seeding_duration: float = 0.0
    comparisons: List[ComparisonRecord] = field(default_factory=list)
    stopped_at: Optional[float] = None
    stop_reason: Optional[str] = None

    @property
    def comparison_count(self) -> int:
        return len(self.comparisons)

    @property
    def divergence_count(self) -> int:
        return sum(1 for record in self.comparisons if record.diverged)

    @property
    def divergence_rate(self) -> float:
        if not self.comparisons:
            return 0.0
        return self.divergence_count / len(self.comparisons)

    def total_sync_time(self) -> float:
        return sum(record.sync_duration for record in self.comparisons)

    def summary(self) -> dict:
        return {
            "vm": self.vm_name,
            "comparisons": self.comparison_count,
            "divergences": self.divergence_count,
            "divergence_rate": self.divergence_rate,
            "total_sync_s": self.total_sync_time(),
            "stop_reason": self.stop_reason,
        }


class ColoEngine:
    """Lock-stepping replication of one VM (COLO model)."""

    def __init__(
        self,
        sim,
        primary: Hypervisor,
        secondary: Hypervisor,
        link: LinkPair,
        comparison_interval: float = 0.02,
        cost_model: Optional[TransferCostModel] = None,
        allow_heterogeneous: bool = False,
        divergence_probability: Optional[float] = None,
        name: str = "colo",
    ):
        if not comparison_interval > 0:  # NaN included
            raise ValueError(
                f"comparison interval must be positive: {comparison_interval}"
            )
        heterogeneous = primary.state_format != secondary.state_format
        if heterogeneous and not allow_heterogeneous:
            raise HeterogeneousLockstepError(
                "lock-stepping requires substantially similar device models "
                f"on both sides (got {primary.product} -> "
                f"{secondary.product}); pass allow_heterogeneous=True to "
                "measure the collapse, or use HERE's ASR model"
            )
        self.sim = sim
        self.primary = primary
        self.secondary = secondary
        self.link = link
        self.comparison_interval = comparison_interval
        self.cost = cost_model or primary.host.cost_model
        self.heterogeneous = heterogeneous
        if divergence_probability is not None:
            if not 0.0 <= divergence_probability <= 1.0:
                raise ValueError(
                    f"divergence probability must be in [0, 1]: "
                    f"{divergence_probability}"
                )
            self.divergence_probability = divergence_probability
        else:
            self.divergence_probability = (
                HETEROGENEOUS_DIVERGENCE_PROBABILITY
                if heterogeneous
                else HOMOGENEOUS_DIVERGENCE_PROBABILITY
            )
        self.translator = StateTranslator()
        self.name = name
        self._rng = sim.random.stream(f"colo:{name}")
        self.vm = None
        self.replica_vm = None
        self.device_manager: Optional[DeviceManager] = None
        self.stats: Optional[ColoStats] = None
        self.process = None
        #: Triggered once lock-stepping is active; fails if setup
        #: aborts.  Defused like ReplicationEngine.ready (see there).
        self.ready = sim.event(name=f"ready:{name}")
        self.ready.callbacks.append(lambda _evt: None)
        self._active = False
        #: Divergence-sync and initial-sync pipelines; built by start().
        self.sync_pipeline: Optional[CheckpointPipeline] = None
        self.seed_pipeline: Optional[CheckpointPipeline] = None
        #: Whole-run telemetry span (opened by start()).
        self._session_span = NULL_SPAN

    # -- control ------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        return self._active

    def _build_pipelines(self) -> None:
        """COLO's two checkpoint-shaped paths as stage presets.

        Both reuse the ASR stages verbatim; the COLO flavour is encoded
        in flags — no output-commit seal inside the pipeline (the
        comparison round owns the epoch), state applied straight onto
        the executing replica instead of through a
        :class:`~repro.replication.protocol.ReplicaSession`, and the
        baseline COLO model bills neither translation nor the
        checkpoint constant to host CPU accounting.
        """

        def load_replica(ctx, message):
            self.secondary.load_guest_state(
                self.replica_vm, message.state_payload
            )

        # Divergence-forced synchronisation: a full ASR-style
        # checkpoint at the default (checkpoint) page-send rate.
        sync_stages = [
            PauseStage(span_name=None, check_primary=False, seal_epoch=False),
            CaptureDirtyStage(),
            TransferStage(FlatTransferPolicy(1), page_cost=None),
            ExtractStateStage(),
        ]
        if self.heterogeneous:
            sync_stages.append(
                TranslateStage(
                    span_name="colo.sync.translate", charge_component=None
                )
            )
        sync_stages += [
            ShipStateStage(charge_component=None, check_secondary=False),
            AwaitAckStage(span_name=None, counter=None, applier=load_replica),
            ResumeStage(),
        ]
        self.sync_pipeline = CheckpointPipeline(
            sync_stages, name=f"{self.name}-sync"
        )

        # Initial stop-and-copy: dirty count comes from the pre-copy
        # (no bitmap capture), pages move at the migration rate, the
        # translation is folded into the blackout (untimed), and there
        # is no per-checkpoint constant yet.
        seed_stages = [
            PauseStage(span_name=None, check_primary=False, seal_epoch=False),
            TransferStage(FlatTransferPolicy(1), page_cost="migration"),
            ExtractStateStage(),
        ]
        if self.heterogeneous:
            seed_stages.append(
                TranslateStage(
                    span_name=None,
                    charge_component=None,
                    timed=False,
                    report_cpu_seconds=False,
                )
            )
        seed_stages += [
            ShipStateStage(
                charge_component=None,
                check_secondary=False,
                include_constant=False,
            ),
            AwaitAckStage(span_name=None, counter=None, applier=load_replica),
            ResumeStage(),
        ]
        self.seed_pipeline = CheckpointPipeline(
            seed_stages, name=f"{self.name}-seed"
        )

    def _make_context(self, vm, epoch: int) -> CheckpointContext:
        return CheckpointContext(
            sim=self.sim,
            primary=self.primary,
            secondary=self.secondary,
            vm=vm,
            link=self.link,
            cost=self.cost,
            translator=self.translator,
            engine_name=self.name,
            component="replication",
            device_manager=self.device_manager,
            epoch=epoch,
        )

    def start(self, vm_name: str):
        """Begin lock-stepped protection of ``vm_name``."""
        if self.process is not None:
            raise RuntimeError(f"engine {self.name!r} already started")
        self.vm = self.primary.get_vm(vm_name)
        self.device_manager = DeviceManager(self.sim, self.vm)
        self.stats = ColoStats(vm_name=vm_name, started_at=self.sim.now)
        self._build_pipelines()
        self._session_span = self.sim.telemetry.span(
            "colo.session",
            engine=self.name,
            vm=vm_name,
            heterogeneous=self.heterogeneous,
            divergence_probability=self.divergence_probability,
        )
        self.process = self.sim.process(
            self._lockstep_loop(), name=f"colo:{self.name}"
        )
        return self.process

    def halt(self, reason: str = "halted") -> None:
        self._active = False
        if self.process is not None and self.process.is_alive:
            self.process.interrupt(reason)

    # -- the lock-step process -------------------------------------------------
    def _lockstep_loop(self):
        vm = self.vm
        try:
            yield from self._setup(vm)
            self.ready.succeed(self.sim.now)
            self._active = True
            while self._active:
                try:
                    yield self.sim.timeout(self.comparison_interval)
                    yield from self._compare_outputs(vm)
                except Interrupt as interrupt:
                    self.stats.stop_reason = str(interrupt.cause)
                    break
                except (HypervisorDown, HostFailure, VmLifecycleError) as failure:
                    self.stats.stop_reason = str(failure)
                    break
        except (HypervisorDown, HostFailure) as failure:
            self.stats.stop_reason = str(failure)
            if not self.ready.triggered:
                self.ready.fail(failure)
        except Interrupt as interrupt:
            self.stats.stop_reason = str(interrupt.cause)
            if not self.ready.triggered:
                self.ready.fail(RuntimeError(str(interrupt.cause)))
        finally:
            self._active = False
            self.stats.stopped_at = self.sim.now
            self._session_span.end(
                stop_reason=self.stats.stop_reason,
                comparisons=self.stats.comparison_count,
                divergences=self.stats.divergence_count,
            )
            if (
                not vm.is_destroyed
                and self.primary.is_responsive
                and self.primary.host.is_up
            ):
                if vm.is_paused:
                    vm.resume()
                if self.device_manager is not None:
                    self.device_manager.end_protection()
        return self.stats

    def _setup(self, vm):
        """Seed the replica, then start BOTH sides executing."""
        self.device_manager.admit()
        StateTranslator.prepare_guest(vm, self.primary, self.secondary)
        seed_start = self.sim.now
        seed_span = self.sim.telemetry.span(
            "colo.seeding",
            parent=self._session_span,
            engine=self.name,
            vm=vm.name,
        )
        self.replica_vm = self.secondary.create_vm(
            vm.name,
            vcpus=vm.vcpu_count,
            memory_bytes=vm.memory_bytes,
            features=vm.enabled_features,
        )
        precopy = yield from iterative_precopy(
            self.sim, self.primary, vm, self.link.forward, self.cost,
            threads=1, use_per_vcpu_rings=False, component="replication",
        )
        yield from self._synchronise(vm, precopy.remaining_dirty)
        # Lock-stepping: the replica executes alongside the primary.
        self.replica_vm.start()
        self.device_manager.begin_protection()
        self.stats.seeding_duration = self.sim.now - seed_start
        seed_span.end(iterations=len(precopy.iterations))

    def _compare_outputs(self, vm):
        """One comparison point: release matching output or force a sync."""
        bus = self.sim.telemetry
        self.primary._check_responsive()
        self.secondary._check_responsive()
        traffic_epoch = self.device_manager.seal_epoch()
        # Exchange output digests over the interconnect.
        yield self.link.ack(256)
        diverged = self._rng.random() < self.divergence_probability
        record = ComparisonRecord(at=self.sim.now, diverged=diverged)
        if diverged:
            # Replica state is no longer equivalent: force a full
            # synchronisation before the buffered output may escape.
            ctx = self._make_context(vm, epoch=self.stats.comparison_count)
            ctx.checkpoint_span = bus.span(
                "colo.sync",
                parent=self._session_span,
                engine=self.name,
                comparison=self.stats.comparison_count,
            )
            ctx.state_parent = ctx.checkpoint_span
            yield from self.sync_pipeline.run(ctx)
            record.sync_duration = ctx.pause_duration
            record.dirty_pages = ctx.dirty_pages
            ctx.checkpoint_span.end(
                dirty_pages=ctx.dirty_pages, duration=ctx.pause_duration
            )
            if bus.enabled:
                bus.counter(
                    "colo.bytes_sent",
                    ctx.dirty_pages * PAGE_SIZE,
                    engine=self.name,
                )
                bus.counter("colo.divergence", 1.0, engine=self.name)
        # Either way the compared (or resynchronised) epoch is safe.
        self.device_manager.release_epoch(traffic_epoch)
        self.stats.comparisons.append(record)
        bus.counter("colo.comparison", 1.0, engine=self.name)

    def _synchronise(self, vm, dirty_pages: float):
        """Initial stop-and-copy establishing the lock-step pair."""
        ctx = self._make_context(vm, epoch=0)
        ctx.dirty_pages = dirty_pages
        ctx.checkpoint_span = self.sim.telemetry.span(
            "colo.sync.initial", parent=self._session_span, engine=self.name
        )
        ctx.state_parent = ctx.checkpoint_span
        yield from self.seed_pipeline.run(ctx)
        ctx.checkpoint_span.end(pages=dirty_pages)


def colo_engine(
    sim,
    primary: Hypervisor,
    secondary: Hypervisor,
    link: LinkPair,
    comparison_interval: float = 0.02,
    cost_model: Optional[TransferCostModel] = None,
    name: str = "colo",
) -> ColoEngine:
    """A COLO lock-stepping engine (homogeneous pairs only)."""
    return ColoEngine(
        sim, primary, secondary, link,
        comparison_interval=comparison_interval,
        cost_model=cost_model,
        name=name,
    )
