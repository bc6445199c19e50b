"""The checkpoint stage pipeline (Fig. 3, §5, §7).

The paper's contribution is a *composition* of checkpoint mechanisms —
pause, multithreaded dirty-page transfer, compression, Xen→KVM state
translation, acknowledgement, output-commit release.  This module
expresses each mechanism as a small :class:`Stage` operating on a
shared :class:`CheckpointContext`, and a :class:`CheckpointPipeline`
that composes them.  Every checkpoint-shaped path in the system is
assembled from these parts:

* the continuous ASR checkpoint of Remus and HERE
  (:func:`build_checkpoint_pipeline`) — heterogeneity is literally the
  presence of :class:`TranslateStage`, and HERE's chunked multithreaded
  transfer is a :class:`TransferStage` policy;
* the seeding synchronisation that establishes checkpoint 0
  (:func:`build_seeding_sync_pipeline`);
* COLO's divergence-forced synchronisation and its initial lock-step
  establishment (:mod:`repro.replication.colo`);
* live migration's final stop-and-copy
  (:mod:`repro.migration.engine`).

The pipeline owns per-stage telemetry (one ``pipeline.stage`` span per
stage execution) and per-stage fault-injection hooks
(:meth:`CheckpointPipeline.add_fault_hook`).  Stages additionally emit
the pre-pipeline span vocabulary (``replication.checkpoint.pause`` /
``.transfer`` / ``.translate`` / ``.ack``) so traces — and everything
reconstructed from them — are unchanged by the refactor; the golden
equivalence test pins a fixed-seed run bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..hardware.units import PAGE_SIZE, whole_pages
from ..migration.chunks import per_thread_dirty_pages
from ..migration.transfer import split_evenly, timed_page_send
from ..telemetry import NULL_SPAN
from .checkpoint import CheckpointRecord
from .compression import CompressionModel
from .protocol import CheckpointMessage


@dataclass
class CheckpointContext:
    """Mutable state shared by the stages of one checkpoint run.

    The engine builds one context per checkpoint (or sync, or
    stop-and-copy), seeds the identity fields, and reads the work
    products — ``pause_duration``, ``payload``, ``record`` — back out
    after :meth:`CheckpointPipeline.run` returns.
    """

    sim: object
    primary: object
    secondary: object
    vm: object
    #: A :class:`~repro.hardware.link.LinkPair`: dirty pages and state
    #: payloads go ``forward``, acknowledgements come ``backward``.
    link: object
    cost: object
    translator: object
    engine_name: str = "asr"
    #: CPU/transfer accounting component ("replication" or "migration").
    component: str = "replication"
    device_manager: object = None
    replica_session: object = None
    #: Stats object checkpoint records are appended to (when set).
    stats: object = None
    epoch: int = 0
    period: float = 0.0
    #: True for the seeding-final checkpoint establishing the replica.
    initial: bool = False
    #: Primary generation stamped on wire messages (split-brain fence).
    generation: int = 0
    #: Optional :class:`~repro.replication.transport.CheckpointTransport`
    #: driving the reliable chunk/commit protocol; None = classic path.
    transport: object = None
    # -- telemetry anchors ------------------------------------------------
    #: Span the per-stage ``pipeline.stage`` spans nest under (the
    #: checkpoint span, seeding-sync span, or stop-and-copy span).
    checkpoint_span: object = NULL_SPAN
    #: Parent of the translate/ack sub-spans (matches the pre-pipeline
    #: trace layout: the checkpoint span, or the seeding-sync span).
    state_parent: object = NULL_SPAN
    pause_span: object = NULL_SPAN
    # -- work products ----------------------------------------------------
    pause_started_at: float = 0.0
    traffic_epoch: Optional[int] = None
    snapshot: object = None
    dirty_pages: float = 0.0
    per_page_cost: Optional[float] = None
    wire_bytes_per_page: Optional[float] = None
    transfer_duration: float = 0.0
    payload: Optional[dict] = None
    #: :class:`~repro.integrity.digest.EpochAttestation` computed on the
    #: pre-translation payload (set by :class:`AttestStage` when the
    #: engine's integrity config enables attestation).
    attestation: object = None
    translated: bool = False
    pause_duration: float = 0.0
    released: List = field(default_factory=list)
    bytes_sent: float = 0.0
    record: Optional[CheckpointRecord] = None

    @property
    def bus(self):
        return self.sim.telemetry

    @property
    def heterogeneous(self) -> bool:
        return self.primary.state_format != self.secondary.state_format


class StageFault(Exception):
    """Raised by a fault-injection hook to abort at a stage boundary."""


class Stage:
    """One step of a checkpoint; a generator over simulation events.

    Subclasses override :meth:`run`.  A stage must not assume which
    stages ran before it beyond the context fields it documents
    reading; that is what lets the same stage serve Remus, HERE, COLO
    and migration.
    """

    name = "stage"

    def run(self, ctx: CheckpointContext):
        """Generator: perform this stage's work on ``ctx``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class PauseStage(Stage):
    """Fig. 3 step 1: stop the VM and seal the output-commit epoch."""

    name = "pause"

    def __init__(
        self,
        span_name: Optional[str] = "replication.checkpoint.pause",
        check_primary: bool = True,
        seal_epoch: bool = True,
    ):
        self.span_name = span_name
        self.check_primary = check_primary
        self.seal_epoch = seal_epoch

    def run(self, ctx):
        if self.check_primary:
            ctx.primary._check_responsive()
        ctx.pause_started_at = ctx.sim.now
        if self.span_name:
            ctx.pause_span = ctx.bus.span(
                self.span_name,
                parent=ctx.checkpoint_span,
                engine=ctx.engine_name,
                epoch=ctx.epoch,
            )
        ctx.vm.pause()
        if self.seal_epoch and ctx.device_manager is not None:
            ctx.traffic_epoch = ctx.device_manager.seal_epoch()
        yield from ()


class CaptureDirtyStage(Stage):
    """Read and clear the dirty bitmap into the context."""

    name = "capture-dirty"

    def run(self, ctx):
        ctx.snapshot = ctx.primary.read_dirty_bitmap(ctx.vm, clear=True)
        ctx.dirty_pages = ctx.snapshot.unique_dirty_pages()
        yield from ()


class CompressStage(Stage):
    """Fold an optional checkpoint-stream compressor into the costs.

    Compression is modelled as extra per-page CPU work plus a reduced
    per-page wire footprint; both are consumed by the following
    :class:`TransferStage` (and the wire footprint again by
    :class:`CommitReleaseStage` for the bytes-sent accounting).
    """

    name = "compress"

    def __init__(self, model: Optional[CompressionModel] = None):
        self.model = model

    def run(self, ctx):
        if self.model is not None:
            ctx.per_page_cost = (
                ctx.cost.page_send_cost + self.model.cpu_cost_per_page
            )
            ctx.wire_bytes_per_page = self.model.wire_bytes_per_page
        else:
            ctx.per_page_cost = ctx.cost.page_send_cost
            ctx.wire_bytes_per_page = None
        yield from ()


class TransferPolicy:
    """How the dirty set splits across sender threads."""

    threads: int = 1

    def shares(self, ctx: CheckpointContext) -> List[float]:
        raise NotImplementedError

    def scan_shares(self, ctx: CheckpointContext) -> Sequence[float]:
        return ()


class FlatTransferPolicy(TransferPolicy):
    """Even split of the dirty count (stock Xen/Remus, stop-and-copy).

    With ``scan_tracked`` each thread also walks an even share of the
    full dirty bitmap (the continuous-checkpoint case); without, the
    page counts are already known (seeding sync, stop-and-copy).
    """

    def __init__(self, threads: int = 1, scan_tracked: bool = False):
        if threads < 1:
            raise ValueError(f"threads must be >= 1: {threads}")
        self.threads = threads
        self.scan_tracked = scan_tracked

    def shares(self, ctx):
        return split_evenly(ctx.dirty_pages, self.threads)

    def scan_shares(self, ctx):
        if not self.scan_tracked:
            return ()
        return split_evenly(ctx.vm.total_pages, self.threads)


class ChunkedTransferPolicy(TransferPolicy):
    """HERE §7.2(2): threads own disjoint interleaved 2 MiB regions.

    Each thread scans only its own share of the bitmap and sends the
    dirty pages of the chunks it owns; requires a
    :class:`CaptureDirtyStage` snapshot in the context.
    """

    def __init__(self, threads: int):
        if threads < 1:
            raise ValueError(f"threads must be >= 1: {threads}")
        self.threads = threads

    def shares(self, ctx):
        return per_thread_dirty_pages(ctx.snapshot, self.threads)

    def scan_shares(self, ctx):
        return split_evenly(ctx.vm.total_pages, self.threads)


class TransferStage(Stage):
    """Fig. 3 step 2: move the dirty pages over the interconnect.

    With a reliable transport in the context the bulk send is followed
    by per-chunk delivery: the transport stages the epoch's chunks on
    the replica, drawing per-chunk loss/corruption verdicts from the
    link and retransmitting until everything is staged (or the epoch
    tears).  The bulk timing model is the same either way.

    ``page_cost`` selects the per-page CPU cost regime:

    * ``"context"`` — whatever :class:`CompressStage` put in the
      context (the continuous-checkpoint path);
    * ``"migration"`` — the cost model's stop-and-copy/seeding rate;
    * ``None`` — the cost model's default checkpoint rate.
    """

    name = "transfer"

    def __init__(
        self,
        policy: TransferPolicy,
        span_name: Optional[str] = None,
        page_cost: Optional[str] = "context",
    ):
        if page_cost not in (None, "context", "migration"):
            raise ValueError(f"unknown page_cost regime: {page_cost!r}")
        self.policy = policy
        self.span_name = span_name
        self.page_cost = page_cost

    def _per_page(self, ctx):
        if self.page_cost == "context":
            return ctx.per_page_cost
        if self.page_cost == "migration":
            return ctx.cost.migration_page_cost
        return None

    def run(self, ctx):
        span = NULL_SPAN
        if self.span_name:
            span = ctx.bus.span(
                self.span_name,
                parent=ctx.checkpoint_span,
                engine=ctx.engine_name,
                epoch=ctx.epoch,
            )
        ctx.transfer_duration = yield from timed_page_send(
            ctx.sim,
            ctx.primary.host,
            ctx.link.forward,
            self.policy.shares(ctx),
            ctx.cost,
            component=ctx.component,
            scan_pages_per_thread=self.policy.scan_shares(ctx),
            per_page_cost=self._per_page(ctx),
            wire_bytes_per_page=ctx.wire_bytes_per_page,
        )
        span.end(pages=ctx.dirty_pages, threads=self.policy.threads)
        if ctx.transport is not None:
            yield from ctx.transport.chunk_rounds(
                ctx, threads=self.policy.threads
            )


class ExtractStateStage(Stage):
    """Pull the vCPU/device state payload out of the primary."""

    name = "extract-state"

    def run(self, ctx):
        ctx.payload = ctx.primary.extract_guest_state(ctx.vm)
        yield from ()


class AttestStage(Stage):
    """Digest the pre-translation canonical state (epoch attestation).

    Runs between extraction and translation, so the digest covers the
    primary's own canonical view of the guest — anything the translate
    stage (or the wire, or the replica's apply path) later distorts
    shows up as a root mismatch when the replica recomputes the digest
    from its post-translation state.  Hashing is charged to the primary
    like translation is: a small per-vCPU/per-device CPU cost.
    """

    name = "attest"

    def run(self, ctx):
        from ..integrity.config import (
            ATTEST_COST_PER_DEVICE,
            ATTEST_COST_PER_VCPU,
        )
        from ..integrity.digest import attest_state

        if ctx.payload is None:
            return
        state = ctx.translator.parse(ctx.payload)
        attest_time = (
            len(state.vcpus) * ATTEST_COST_PER_VCPU
            + len(state.devices) * ATTEST_COST_PER_DEVICE
        )
        span = ctx.bus.span(
            "integrity.attest",
            parent=ctx.state_parent,
            engine=ctx.engine_name,
            epoch=ctx.epoch,
        )
        ctx.primary.host.cpu_accounting.charge("replication", attest_time)
        yield ctx.sim.timeout(attest_time)
        chunk_ids = ()
        if ctx.snapshot is not None:
            chunk_ids = tuple(
                int(chunk) for chunk in ctx.snapshot.dirty_chunk_ids()
            )
        ctx.attestation = attest_state(
            state, ctx.epoch, whole_pages(ctx.dirty_pages), chunk_ids
        )
        span.end(root=ctx.attestation.root, cpu_seconds=attest_time)


class TranslateStage(Stage):
    """§7.4: convert the payload to the secondary's state format.

    Its presence in a pipeline *is* the heterogeneity of the pair —
    homogeneous presets simply do not include it.  ``label`` picks the
    span's identifying attribute (``engine``+``epoch`` for replication,
    ``vm`` for migration); ``timed``/``charge_component`` control
    whether the translation consumes simulated time and is billed to
    host CPU accounting (COLO's baseline model does neither at seeding).
    """

    name = "translate"

    def __init__(
        self,
        span_name: Optional[str] = "replication.checkpoint.translate",
        charge_component: Optional[str] = "replication",
        label: str = "engine",
        timed: bool = True,
        report_cpu_seconds: bool = True,
    ):
        if label not in ("engine", "vm"):
            raise ValueError(f"unknown label style: {label!r}")
        self.span_name = span_name
        self.charge_component = charge_component
        self.label = label
        self.timed = timed
        self.report_cpu_seconds = report_cpu_seconds

    def run(self, ctx):
        vm = ctx.vm
        translation_time = ctx.translator.translation_cost(
            vm.vcpu_count, len(vm.devices)
        )
        span = NULL_SPAN
        if self.span_name:
            if self.label == "engine":
                attrs = {"engine": ctx.engine_name, "epoch": ctx.epoch}
            else:
                attrs = {"vm": vm.name}
            span = ctx.bus.span(
                self.span_name, parent=ctx.state_parent, **attrs
            )
        if self.charge_component:
            ctx.primary.host.cpu_accounting.charge(
                self.charge_component, translation_time
            )
        if self.timed:
            yield ctx.sim.timeout(translation_time)
        ctx.payload = ctx.translator.translate(ctx.payload, ctx.secondary)
        ctx.translated = True
        end_attrs = {"vcpus": vm.vcpu_count, "devices": len(vm.devices)}
        if self.report_cpu_seconds:
            end_attrs["cpu_seconds"] = translation_time
        span.end(**end_attrs)


class ShipStateStage(Stage):
    """Wire the state blob across, plus the fixed checkpoint overhead."""

    name = "ship-state"

    def __init__(
        self,
        charge_component: Optional[str] = "replication",
        check_secondary: bool = True,
        include_constant: bool = True,
    ):
        self.charge_component = charge_component
        self.check_secondary = check_secondary
        self.include_constant = include_constant

    def run(self, ctx):
        vm = ctx.vm
        # Imported here-adjacent to avoid a module cycle at import time.
        from ..migration.engine import state_payload_bytes

        yield ctx.link.transfer(
            state_payload_bytes(vm.vcpu_count, len(vm.devices))
        )
        if self.include_constant:
            # Pause/unpause bookkeeping, device-state collection, etc.
            yield ctx.sim.timeout(ctx.cost.checkpoint_constant)
            if self.charge_component:
                ctx.primary.host.cpu_accounting.charge(
                    self.charge_component, ctx.cost.checkpoint_constant
                )
        if self.check_secondary:
            ctx.secondary._check_responsive()


class AwaitAckStage(Stage):
    """Fig. 3 steps 3–4: apply on the replica, wait for the ack.

    ``dirty_pages`` is rounded to whole pages here: the dirty-tracking
    model hands back analytic *expected* counts, but the wire message
    describes discrete pages.  Without a transport in the context the
    payload reaches the replica through ``applier`` — by default the
    :class:`~repro.replication.protocol.ReplicaSession` epoch protocol;
    COLO loads the replica VM directly — and one ack comes back.  With
    a reliable transport the epoch is committed two-phase instead: the
    replica applies only once every chunk is staged, lost acks are
    retried with backoff, and a fenced-out commit surfaces
    :class:`~repro.replication.transport.StalePrimaryError`.
    """

    name = "await-ack"

    def __init__(
        self,
        span_name: Optional[str] = "replication.checkpoint.ack",
        counter: Optional[str] = "replication.epoch_acked",
        applier: Optional[Callable[[CheckpointContext, CheckpointMessage], None]] = None,
    ):
        self.span_name = span_name
        self.counter = counter
        self.applier = applier

    def run(self, ctx):
        transport = ctx.transport
        page_count = whole_pages(ctx.dirty_pages)
        message = CheckpointMessage(
            vm_name=ctx.vm.name,
            epoch=ctx.epoch,
            sent_at=ctx.sim.now,
            dirty_pages=page_count,
            memory_bytes=page_count * PAGE_SIZE,
            state_payload=ctx.payload,
            initial=ctx.initial,
            guest_os_failed=ctx.vm.guest_os_failed,
            # Only the two-phase commit stamps the primary generation.
            generation=ctx.generation if transport is not None else 0,
            attestation=ctx.attestation,
        )
        span = NULL_SPAN
        if self.span_name:
            span = ctx.bus.span(
                self.span_name,
                parent=ctx.state_parent,
                engine=ctx.engine_name,
                epoch=ctx.epoch,
            )
        if transport is not None:
            yield from transport.commit_epoch(ctx, message)
        else:
            if self.applier is not None:
                self.applier(ctx, message)
            else:
                ctx.replica_session.apply(message)
            yield ctx.link.ack()
        span.end()
        if self.counter:
            ctx.bus.counter(self.counter, 1.0, engine=ctx.engine_name)


class ResumeStage(Stage):
    """Fig. 3 step 5: let the VM run again; the pause is over."""

    name = "resume"

    def run(self, ctx):
        ctx.vm.resume()
        ctx.pause_duration = ctx.sim.now - ctx.pause_started_at
        ctx.pause_span.end()
        yield from ()


class CommitReleaseStage(Stage):
    """Fig. 3 step 6: release the acknowledged epoch; record the result."""

    name = "commit-release"

    def run(self, ctx):
        ctx.released = ctx.device_manager.release_epoch(ctx.traffic_epoch)
        # Wire bytes, not logical bytes: with compression enabled each
        # page costs wire_bytes_per_page on the link, and the stats (and
        # the compression ablations built on them) must report what the
        # interconnect actually carried.
        wire = ctx.wire_bytes_per_page
        ctx.bytes_sent = ctx.dirty_pages * (
            wire if wire is not None else PAGE_SIZE
        )
        ctx.record = CheckpointRecord(
            epoch=ctx.epoch,
            started_at=ctx.pause_started_at,
            period_used=ctx.period,
            pause_duration=ctx.pause_duration,
            transfer_duration=ctx.transfer_duration,
            dirty_pages=ctx.dirty_pages,
            bytes_sent=ctx.bytes_sent,
            acked_at=ctx.sim.now,
            packets_released=len(ctx.released),
        )
        if ctx.stats is not None:
            ctx.stats.checkpoints.append(ctx.record)
        ctx.checkpoint_span.end(
            dirty_pages=ctx.dirty_pages,
            bytes_sent=ctx.bytes_sent,
            packets_released=len(ctx.released),
        )
        bus = ctx.bus
        if bus.enabled:
            bus.counter(
                "replication.bytes_sent", ctx.bytes_sent,
                engine=ctx.engine_name,
            )
        yield from ()


FaultHook = Callable[[CheckpointContext, Stage], None]


class CheckpointPipeline:
    """An ordered composition of stages run against one context.

    The pipeline opens one ``pipeline.stage`` telemetry span per stage
    execution (nested under the context's checkpoint span) and runs any
    registered fault-injection hooks at each stage boundary — a hook
    that raises aborts the checkpoint exactly as a hypervisor failure
    at that point would, which is what the failure-injection suite
    uses it for.
    """

    def __init__(self, stages: Sequence[Stage], name: str = "checkpoint"):
        self.stages: List[Stage] = list(stages)
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        self.name = name
        self._fault_hooks: Dict[str, List[FaultHook]] = {}

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def has_stage(self, name: str) -> bool:
        return any(stage.name == name for stage in self.stages)

    def add_fault_hook(self, stage_name: str, hook: FaultHook) -> FaultHook:
        """Run ``hook(ctx, stage)`` just before ``stage_name`` executes.

        The hook may mutate the context or raise (``StageFault``, a
        hypervisor error, ...) to abort the run at that boundary.
        """
        if not self.has_stage(stage_name):
            raise ValueError(
                f"pipeline {self.name!r} has no stage {stage_name!r}; "
                f"stages: {self.stage_names()}"
            )
        self._fault_hooks.setdefault(stage_name, []).append(hook)
        return hook

    def remove_fault_hook(self, stage_name: str, hook: FaultHook) -> None:
        hooks = self._fault_hooks.get(stage_name, [])
        if hook in hooks:
            hooks.remove(hook)

    def run(self, ctx: CheckpointContext):
        """Generator: run every stage in order against ``ctx``."""
        bus = ctx.bus
        for stage in self.stages:
            for hook in self._fault_hooks.get(stage.name, ()):
                hook(ctx, stage)
            span = bus.span(
                "pipeline.stage",
                parent=ctx.checkpoint_span,
                pipeline=self.name,
                stage=stage.name,
                engine=ctx.engine_name,
                epoch=ctx.epoch,
            )
            try:
                yield from stage.run(ctx)
            finally:
                span.end()
        return ctx

    def __repr__(self) -> str:
        return (
            f"<CheckpointPipeline {self.name!r} "
            f"stages={self.stage_names()}>"
        )


# ---------------------------------------------------------------------------
# Preset assemblies
# ---------------------------------------------------------------------------

def checkpoint_stages(config, heterogeneous: bool) -> List[Stage]:
    """The continuous ASR checkpoint (Fig. 3 steps 1–6) as stages.

    ``config`` is a :class:`~repro.replication.engine.ReplicationConfig`;
    the Remus/HERE distinction reduces to the transfer policy
    (flat-single-thread vs chunked-multithreaded, §7.2(2)), the optional
    compressor, and — decided by the actual host pair — the presence of
    :class:`TranslateStage` (§7.4).
    """
    threads = config.checkpoint_threads
    if config.chunked_transfer:
        policy: TransferPolicy = ChunkedTransferPolicy(threads)
    else:
        policy = FlatTransferPolicy(threads, scan_tracked=True)
    stages: List[Stage] = [
        PauseStage(),
        CaptureDirtyStage(),
        CompressStage(config.compression),
        TransferStage(
            policy,
            span_name="replication.checkpoint.transfer",
            page_cost="context",
        ),
        ExtractStateStage(),
    ]
    integrity = getattr(config, "integrity", None)
    if integrity is not None and integrity.attest:
        stages.append(AttestStage())
    if heterogeneous:
        stages.append(TranslateStage())
    stages += [
        ShipStateStage(),
        AwaitAckStage(),
        ResumeStage(),
        CommitReleaseStage(),
    ]
    return stages


def build_checkpoint_pipeline(
    config, heterogeneous: bool, name: str = "asr-checkpoint"
) -> CheckpointPipeline:
    """The Remus/HERE continuous-checkpoint pipeline for ``config``."""
    return CheckpointPipeline(
        checkpoint_stages(config, heterogeneous), name=name
    )


def seeding_sync_stages(config, heterogeneous: bool) -> List[Stage]:
    """The seeding synchronisation (Fig. 3 ❸) as stages.

    The VM is already paused by the seeding driver (which also flips
    output commit on before resuming), so this pipeline is only the
    transfer/translate/ack tail: ship the residual dirty set at the
    stop-and-copy page rate, then establish checkpoint 0.
    """
    stages: List[Stage] = [
        TransferStage(
            FlatTransferPolicy(config.checkpoint_threads),
            page_cost="migration",
        ),
        ExtractStateStage(),
    ]
    integrity = getattr(config, "integrity", None)
    if integrity is not None and integrity.attest:
        stages.append(AttestStage())
    if heterogeneous:
        stages.append(TranslateStage())
    stages += [ShipStateStage(), AwaitAckStage()]
    return stages


def build_seeding_sync_pipeline(
    config, heterogeneous: bool, name: str = "seeding-sync"
) -> CheckpointPipeline:
    """The seeding-synchronisation pipeline for ``config``."""
    return CheckpointPipeline(
        seeding_sync_stages(config, heterogeneous), name=name
    )
