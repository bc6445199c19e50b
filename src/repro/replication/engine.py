"""The asynchronous state replication engine (Fig. 3, §5).

One :class:`ReplicationEngine` protects one VM: it seeds the replica
with an iterative pre-copy, then runs the continuous checkpoint loop —
run for ``T``, pause, send dirtied memory and translated vCPU/device
state, wait for the replica's acknowledgement, resume, release the
buffered output.  All four of the paper's architectural components
meet here:

* the **state manager** is the engine itself plus the stage pipeline
  of :mod:`repro.replication.pipeline` (which in turn drives the
  transfer machinery of :mod:`repro.migration.transfer`);
* the **device manager** (:mod:`repro.replication.devices`) owns
  output commit and the heterogeneous device switch;
* the **state translator** (:mod:`repro.replication.translator`)
  converts every checkpoint's payload when the secondary hypervisor
  differs from the primary;
* the **dynamic checkpoint period manager**
  (:mod:`repro.replication.period`) picks the next ``T`` from the
  measured pause duration.

Concrete configurations: :func:`repro.replication.remus.remus_engine`
(the baseline) and :func:`repro.replication.here.here_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..hardware.link import LinkPair
from ..hardware.perfmodel import TransferCostModel
from ..hardware.units import MIB
from ..hardware.host import HostFailure
from ..hypervisor.base import Hypervisor
from ..hypervisor.errors import HypervisorDown, HypervisorError
from ..integrity.config import IntegrityConfig
from ..migration.precopy import iterative_precopy
from ..simkernel.errors import Interrupt
from ..telemetry import NULL_SPAN
from ..vm.devices import ReplicationUnsupported
from ..vm.machine import VmLifecycleError
from .checkpoint import ReplicationStats
from .compression import CompressionModel
from .devices import DeviceManager
from .period import PeriodController
from .pipeline import (
    CheckpointContext,
    CheckpointPipeline,
    StageFault,
    build_checkpoint_pipeline,
    build_seeding_sync_pipeline,
)
from .protocol import ProtocolError, ReplicaSession
from .translator import StateTranslator
from .transport import (
    CheckpointTransport,
    EpochTorn,
    StalePrimaryError,
    TransportConfig,
    TransportError,
    remerge_dirty,
)


@dataclass
class ReplicationConfig:
    """Tunables distinguishing Remus-style from HERE-style replication."""

    controller: PeriodController
    #: Threads moving dirty pages during each checkpoint (§7.2(2)).
    checkpoint_threads: int = 4
    #: Round-robin 2 MiB chunk ownership (HERE) vs a single full-bitmap
    #: scan (stock Xen/Remus).
    chunked_transfer: bool = True
    #: Per-vCPU migrator threads during seeding (§7.2(1)).
    per_vcpu_seeding: bool = True
    #: Seeding thread count; None = one per vCPU when per-vCPU seeding.
    seeding_threads: Optional[int] = None
    max_seed_iterations: int = 5
    seed_stop_threshold_pages: int = 50
    #: Resend multi-vCPU ("problematic") pages in the seeding sync.
    resend_problematic: bool = True
    #: Optional checkpoint-stream compressor (Remus XBRLE-style);
    #: None sends raw pages.
    compression: Optional[CompressionModel] = None
    #: Hardened transport (two-phase commit, retry/backoff, checksums,
    #: fencing); None keeps the classic perfect-wire protocol.
    transport: Optional[TransportConfig] = None
    #: End-to-end integrity (epoch attestation, replica scrubbing,
    #: repair escalation); None — the default — computes no digests,
    #: spawns no scrubber, and draws nothing from any RNG stream.
    integrity: Optional[IntegrityConfig] = None

    def seeding_thread_count(self, vcpus: int) -> int:
        if self.seeding_threads is not None:
            return self.seeding_threads
        return vcpus if self.per_vcpu_seeding else 1


class ReplicationEngine:
    """Protects one VM by continuous checkpointing onto a second host."""

    def __init__(
        self,
        sim,
        primary: Hypervisor,
        secondary: Hypervisor,
        link: LinkPair,
        config: ReplicationConfig,
        translator: Optional[StateTranslator] = None,
        cost_model: Optional[TransferCostModel] = None,
        name: str = "asr",
        generation: int = 0,
    ):
        self.sim = sim
        self.primary = primary
        self.secondary = secondary
        self.link = link
        self.config = config
        self.translator = translator or StateTranslator()
        self.cost = cost_model or primary.host.cost_model
        self.name = name
        #: The continuous-checkpoint and seeding-sync pipelines, built
        #: from the config by start() (so late config tweaks are
        #: honoured).  Assigning ``pipeline`` after start() runs a
        #: hand-assembled lineup from the first checkpoint on.
        self.pipeline: Optional[CheckpointPipeline] = None
        self.sync_pipeline: Optional[CheckpointPipeline] = None
        # Populated by start():
        self.vm = None
        self.replica_vm = None
        self.replica_session: Optional[ReplicaSession] = None
        self.device_manager: Optional[DeviceManager] = None
        self.stats: Optional[ReplicationStats] = None
        self.process = None
        #: Triggered once seeding completes and protection is active.
        #: Fails if seeding aborts.  Waiting on it is optional — a
        #: no-op callback keeps an unobserved failure from aborting the
        #: simulation; the abort reason is always in stats.stop_reason.
        self.ready = sim.event(name=f"ready:{name}")
        self.ready.callbacks.append(lambda _evt: None)
        self._active = False
        self._epoch = 0
        #: Primary generation stamped on every wire message; a failover
        #: bumps the replica's fence past it, fencing this engine out.
        self.generation = generation
        #: Reliable transport instance (populated by start() when the
        #: config carries a TransportConfig).
        self.transport: Optional[CheckpointTransport] = None
        #: Integrity stack (populated by start() when the config carries
        #: an IntegrityConfig): monitor, repair ladder, scrubber.
        self.integrity_monitor = None
        self.repairer = None
        self.scrubber = None
        #: Checkpoint-interval multiplier driven by the
        #: DegradationController (1.0 = the controller's own period).
        self.period_scale = 1.0
        #: True once the replica's fence rejected us and we stood down.
        self.demoted = False
        self._suspended = False
        self._suspend_requested: Optional[str] = None
        self._resume_event = None
        self.suspensions = 0
        #: Whole-run telemetry span (opened by start()).
        self._session_span = NULL_SPAN

    # -- public control -------------------------------------------------------
    @property
    def heterogeneous(self) -> bool:
        return self.primary.state_format != self.secondary.state_format

    @property
    def is_active(self) -> bool:
        return self._active

    @property
    def last_acked_epoch(self) -> int:
        if self.replica_session is None:
            return -1
        return self.replica_session.last_applied_epoch

    def start(self, vm_name: str):
        """Begin protecting ``vm_name``; returns the engine process."""
        if self.process is not None:
            raise RuntimeError(f"engine {self.name!r} already started")
        self.vm = self.primary.get_vm(vm_name)
        self.device_manager = DeviceManager(self.sim, self.vm)
        self.stats = ReplicationStats(
            vm_name=vm_name, engine=self.name, started_at=self.sim.now
        )
        self._session_span = self.sim.telemetry.span(
            "replication.session",
            engine=self.name,
            vm=vm_name,
            heterogeneous=self.heterogeneous,
        )
        self.config.controller.bind_telemetry(
            self.sim.telemetry, engine=self.name
        )
        if self.config.transport is not None:
            self.transport = CheckpointTransport(
                self.sim, self.link, self.config.transport, name=self.name
            )
        self.pipeline = build_checkpoint_pipeline(
            self.config, self.heterogeneous, name=f"{self.name}-checkpoint"
        )
        self.sync_pipeline = build_seeding_sync_pipeline(
            self.config, self.heterogeneous, name=f"{self.name}-seeding"
        )
        if self.config.integrity is not None:
            from ..integrity.monitor import IntegrityMonitor
            from ..integrity.repair import IntegrityRepairController
            from ..integrity.scrub import ReplicaScrubber

            self.integrity_monitor = IntegrityMonitor(
                self.sim, self, self.config.integrity
            )
            self.integrity_monitor.attach(self.pipeline, self.sync_pipeline)
            self.repairer = IntegrityRepairController(
                self.sim, self.integrity_monitor
            )
            self.scrubber = ReplicaScrubber(
                self.sim, self.integrity_monitor, self.repairer
            )
            self.scrubber.start()
        self.process = self.sim.process(
            self._replication_loop(), name=f"replication:{self.name}"
        )
        return self.process

    def halt(self, reason: str = "halted") -> None:
        """Stop the engine (failover controller or operator action)."""
        self._active = False
        if self.process is not None and self.process.is_alive:
            self.process.interrupt(reason)

    # -- graceful degradation (driven by DegradationController) ---------------
    @property
    def is_suspended(self) -> bool:
        return self._suspended

    def suspend_protection(self, reason: str = "link degraded") -> None:
        """Ask the loop to suspend protection between checkpoints.

        Suspension is enacted at the next loop iteration, never in the
        middle of a checkpoint — interrupting a half-run pipeline would
        break the seal/release invariants of output commit.
        """
        if self._suspend_requested is None and not self._suspended:
            self._suspend_requested = reason

    def resume_protection(self) -> None:
        """Resume a suspended engine (the link recovered)."""
        self._suspend_requested = None
        if self._resume_event is not None and not self._resume_event.triggered:
            self._resume_event.succeed(self.sim.now)

    # -- the replication process ------------------------------------------------
    def _replication_loop(self):
        vm = self.vm
        try:
            yield from self._setup_and_seed(vm)
            self.ready.succeed(self.sim.now)
            self._active = True
            yield from self._protection_loop(vm)
        except (HypervisorDown, HostFailure) as failure:
            self.stats.stop_reason = str(failure)
            if not self.ready.triggered:
                self.ready.fail(failure)
        except Interrupt as interrupt:
            self.stats.stop_reason = str(interrupt.cause)
            if not self.ready.triggered:
                self.ready.fail(RuntimeError(str(interrupt.cause)))
        except (
            HypervisorError,
            VmLifecycleError,
            StageFault,
            ProtocolError,
            TransportError,
            ReplicationUnsupported,
            MemoryError,
        ) as error:
            # The simulation's own fault taxonomy: setup failures (the
            # secondary cannot fit the replica shell, admission rejects
            # a passthrough device, feature masking failed) must reach
            # whoever waits on `ready`, not die as an unobserved
            # process failure.
            self.stats.stop_reason = str(error)
            if not self.ready.triggered:
                self.ready.fail(error)
            else:
                raise
        except Exception as error:
            # Anything else is a bug, not a simulated fault.  Count it
            # and re-raise — silently absorbing unexpected errors here
            # is exactly how corruption bugs stay hidden.
            self.sim.telemetry.counter(
                "error.unexpected", 1.0,
                engine=self.name,
                where="replication-loop",
                kind=type(error).__name__,
            )
            self.stats.stop_reason = str(error)
            if not self.ready.triggered:
                self.ready.fail(error)
            raise
        finally:
            self._active = False
            if self.scrubber is not None:
                self.scrubber.stop()
            self.stats.stopped_at = self.sim.now
            self._session_span.end(
                stop_reason=self.stats.stop_reason,
                checkpoints=len(self.stats.checkpoints),
            )
            self._release_vm(vm)
        return self.stats

    def _release_vm(self, vm) -> None:
        # If the engine stopped while the primary is still healthy
        # (secondary died, operator halt), the protected VM must
        # keep running — unprotected, with output commit lifted.  A
        # *demoted* engine is the exception: the fence proved another
        # copy of the VM is serving, so this one must stay paused.
        if (
            not self.demoted
            and not vm.is_destroyed
            and self.primary.is_responsive
            and self.primary.host.is_up
        ):
            if vm.is_paused:
                vm.resume()
            if self.device_manager is not None:
                self.device_manager.end_protection()

    def _protection_loop(self, vm):
        """The steady-state checkpoint loop (seeding already done)."""
        config = self.config
        period = config.controller.initial_period()
        while self._active:
            try:
                yield self.sim.timeout(period * self.period_scale)
            except Interrupt as interrupt:
                self.stats.stop_reason = str(interrupt.cause)
                break
            if not self._active:
                break
            if self._suspend_requested is not None:
                resumed = yield from self._suspension(vm)
                if not resumed:
                    break
                continue
            if vm.is_destroyed:
                self.stats.stop_reason = "protected VM destroyed"
                break
            try:
                pause_duration = yield from self._checkpoint(vm, period)
            except StalePrimaryError as stale:
                self._demote(str(stale))
                break
            except (
                HypervisorDown,
                HostFailure,
                VmLifecycleError,
                StageFault,
            ) as failure:
                self.stats.stop_reason = str(failure)
                break
            except Interrupt as interrupt:
                self.stats.stop_reason = str(interrupt.cause)
                break
            period = config.controller.next_period(pause_duration)

    def _suspension(self, vm):
        """Generator: enact a requested suspension; True once resumed.

        Protection is lifted cleanly (buffered output released, the VM
        keeps serving unprotected) and the loop parks on a resume event.
        On resume the dirty log has accumulated everything the VM wrote
        meanwhile, so the next checkpoint re-seeds the replica with the
        full backlog before normal cadence resumes.
        """
        reason = self._suspend_requested
        self._suspend_requested = None
        self._suspended = True
        self.suspensions += 1
        bus = self.sim.telemetry
        span = bus.span(
            "replication.suspended",
            parent=self._session_span,
            engine=self.name,
            reason=reason,
        )
        bus.counter(
            "replication.protection_suspended", 1.0, engine=self.name
        )
        self.device_manager.end_protection()
        self._resume_event = self.sim.event(name=f"resume:{self.name}")
        try:
            yield self._resume_event
        except Interrupt as interrupt:
            self.stats.stop_reason = str(interrupt.cause)
            self._suspended = False
            span.end(resumed=False)
            return False
        self._resume_event = None
        self._suspended = False
        self.device_manager.begin_protection()
        if self.transport is not None:
            self.transport.reset_health()
        bus.counter("replication.protection_resumed", 1.0, engine=self.name)
        span.end(resumed=True)
        return True

    def _demote(self, reason: str) -> None:
        """Stand down: the replica's fence proved we are a stale primary.

        The VM stays paused (it was paused by the checkpoint that got
        fenced) and its unreleased output is discarded — the promoted
        copy on the other host is the live one; double-serving would be
        a split brain.
        """
        self.demoted = True
        self._active = False
        self.stats.stop_reason = f"demoted: {reason}"
        if self.device_manager is not None:
            self.device_manager.discard_unreleased()
        self.sim.telemetry.counter(
            "replication.demoted", 1.0, engine=self.name
        )

    def re_arm(self):
        """Restart the checkpoint loop after a halt (no re-seeding).

        Models a resurrected old primary that still believes it owns
        the VM: it resumes checkpointing at its old generation, and — if
        a failover promoted the replica meanwhile — the fence rejects
        it on the first commit, driving :meth:`_demote`.
        """
        if self.process is not None and self.process.is_alive:
            raise RuntimeError(f"engine {self.name!r} is still running")
        if self.vm is None:
            raise RuntimeError(f"engine {self.name!r} was never started")
        self.demoted = False
        self._active = True
        self.stats.stop_reason = None
        if self.vm.is_paused:
            self.vm.resume()
        if self.scrubber is not None:
            self.scrubber.start()
        self.process = self.sim.process(
            self._re_arm_loop(), name=f"replication:{self.name}:rearm"
        )
        return self.process

    def _re_arm_loop(self):
        vm = self.vm
        try:
            yield from self._protection_loop(vm)
        except (HypervisorDown, HostFailure) as failure:
            self.stats.stop_reason = str(failure)
        except Interrupt as interrupt:
            self.stats.stop_reason = str(interrupt.cause)
        finally:
            self._active = False
            if self.scrubber is not None:
                self.scrubber.stop()
            self.stats.stopped_at = self.sim.now
            self._release_vm(vm)
        return self.stats

    def _setup_and_seed(self, vm):
        """Admission, feature masking, replica shell, seeding (Fig. 3 ❷–❸)."""
        config = self.config
        # Admission: passthrough devices cannot be replicated (§7.3).
        self.device_manager.admit()
        # CPUID masking for safe cross-hypervisor resume (§7.4).
        masked = StateTranslator.prepare_guest(vm, self.primary, self.secondary)
        # Host-side buffers of the engine (read back by §8.7's bench).
        accounting = self.primary.host.memory_accounting
        accounting.allocate(
            f"{self.name}:staging", config.checkpoint_threads * 64 * MIB
        )
        accounting.allocate(f"{self.name}:pml-mirrors", vm.vcpu_count * 8 * MIB)
        accounting.allocate(f"{self.name}:protocol", 26 * MIB)
        # Replica shell on the secondary (not running).
        self.replica_vm = self.secondary.create_vm(
            vm.name,
            vcpus=vm.vcpu_count,
            memory_bytes=vm.memory_bytes,
            features=masked,
        )
        self.replica_session = ReplicaSession(self.secondary, self.replica_vm)

        # -- seeding: iterative pre-copy while the VM runs -------------------
        seed_start = self.sim.now
        seed_threads = config.seeding_thread_count(vm.vcpu_count)
        use_pml = (
            config.per_vcpu_seeding
            and self.primary.supports_per_vcpu_dirty_rings()
        )
        seed_span = self.sim.telemetry.span(
            "replication.seeding",
            parent=self._session_span,
            engine=self.name,
            vm=vm.name,
            threads=seed_threads,
            per_vcpu_rings=use_pml,
        )
        if config.per_vcpu_seeding:
            yield self.sim.timeout(self.cost.seeding_thread_setup)
        precopy = yield from iterative_precopy(
            self.sim,
            self.primary,
            vm,
            self.link.forward,
            self.cost,
            seed_threads,
            use_pml,
            max_iterations=config.max_seed_iterations,
            stop_threshold_pages=config.seed_stop_threshold_pages,
            component="replication",
        )
        # -- seeding sync: short pause establishing checkpoint 0 ---------------
        pause_start = self.sim.now
        sync_span = self.sim.telemetry.span(
            "replication.seeding.sync", parent=seed_span, engine=self.name
        )
        vm.pause()
        remaining = precopy.remaining_dirty
        if use_pml and config.resend_problematic:
            remaining += precopy.problematic_total
        ctx = self._make_context(vm, epoch=self._epoch, initial=True)
        ctx.dirty_pages = remaining
        ctx.checkpoint_span = sync_span
        ctx.state_parent = sync_span
        yield from self.sync_pipeline.run(ctx)
        self._epoch += 1
        # All output from now on is buffered until the covering
        # checkpoint is acknowledged (output commit).
        self.device_manager.begin_protection()
        vm.resume()
        self.stats.seeding_duration = self.sim.now - seed_start
        self.stats.seeding_downtime = self.sim.now - pause_start
        sync_span.end(pages=remaining)
        seed_span.end(iterations=len(precopy.iterations))

    def _make_context(
        self, vm, epoch: int, period: float = 0.0, initial: bool = False
    ) -> CheckpointContext:
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
            replica_session=self.replica_session,
            stats=self.stats,
            epoch=epoch,
            period=period,
            initial=initial,
            generation=self.generation,
            transport=self.transport,
        )

    def _checkpoint(self, vm, period: float):
        """One checkpoint (Fig. 3 steps 1–6); returns the pause duration.

        The actual steps live in :mod:`repro.replication.pipeline`; this
        method only frames the run — the per-epoch context, the covering
        ``replication.checkpoint`` span — and advances the epoch.
        """
        ctx = self._make_context(vm, epoch=self._epoch, period=period)
        ctx.checkpoint_span = self.sim.telemetry.span(
            "replication.checkpoint",
            parent=self._session_span,
            engine=self.name,
            vm=vm.name,
            epoch=ctx.epoch,
            period=period,
        )
        ctx.state_parent = ctx.checkpoint_span
        try:
            yield from self.pipeline.run(ctx)
        except EpochTorn as torn:
            pause_duration = self._abort_torn_epoch(ctx, torn)
            self._epoch += 1
            return pause_duration
        self._epoch += 1
        return ctx.pause_duration

    def _abort_torn_epoch(self, ctx, torn: EpochTorn) -> float:
        """Roll back a torn epoch and keep protecting.

        The replica drops its staged chunks (its committed state is one
        epoch old, never torn), the captured-but-unsent dirty pages are
        re-merged into the live dirty log so the next checkpoint resends
        them, the VM resumes, and the loop carries on — a long pause
        also makes Algorithm 1 widen the next period, which is exactly
        the right reflex under loss.
        """
        if self.transport is not None:
            self.transport.discard_epoch(ctx, str(torn))
        remerge_dirty(ctx.vm, ctx.snapshot)
        if ctx.vm.is_paused:
            ctx.vm.resume()
        pause_duration = self.sim.now - ctx.pause_started_at
        ctx.pause_duration = pause_duration
        ctx.pause_span.end(discarded=True)
        ctx.checkpoint_span.end(discarded=True, reason=str(torn))
        self.sim.telemetry.counter(
            "replication.epoch_torn", 1.0, engine=self.name, epoch=ctx.epoch
        )
        return pause_duration
