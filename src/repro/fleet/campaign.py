"""Seeded fleet campaigns: correlated outages against the control plane.

One :class:`FleetCampaign` stands up a whole fleet through the
:class:`~repro.fleet.orchestrator.FleetOrchestrator`, lets it settle,
draws a correlated fault schedule (zone/rack outages) from the fleet
calendar's seeded stream, fans it out through the
:class:`~repro.fleet.faults.FleetFaultInjector`, and runs detection ->
failover -> queued re-protection to quiescence.  Every number is
harvested from simulation state; only the serving and integrity
overlays read the bus, through one :class:`~repro.telemetry.Recorder`
per shard.  With both off, no bus is enabled unless the caller
subscribes to one.

Determinism: everything — placement, shard seeds, outage draws,
admission decisions — derives from ``FleetSpec.seed``, so
:meth:`FleetCampaignResult.fingerprint` is bit-identical across runs
of the same config.  The benchmark suite pins it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from ..analysis.availability import observed_availability_nines
from ..faults.campaign import check_schedule
from ..faults.spec import (
    CORRUPTION_KINDS,
    FaultKind,
    FaultSchedule,
    HYPERVISOR_KINDS,
    ZONE_KINDS,
)
from ..integrity import IntegrityTally
from ..integrity.tally import TALLY_NAMES
from ..telemetry import Recorder
from ..telemetry.metrics import fingerprint_float as _finite
from .faults import FLEET_KINDS, FleetFaultInjector
from .orchestrator import FleetOrchestrator
from .spec import FleetSpec

if TYPE_CHECKING:  # repro.serving loads only when recorders attach
    from ..serving import ServingConfig

#: The record name the serving overlay reads itself (the timeline and
#: the integrity tally read theirs).
_OVERLAY_NAMES = frozenset({"host.failure"})


@dataclass(frozen=True)
class FleetCampaignConfig:
    """One fleet chaos run."""

    spec: FleetSpec = field(default_factory=FleetSpec)
    #: Protection runs this long before the fault window opens (also
    #: the initial-seeding deadline).
    settle_time: float = 5.0
    #: Outages land uniformly inside ``[settle, settle + window]``.
    fault_window: float = 5.0
    #: Extra time for detection, failover and queued re-seeding.
    recovery_time: float = 30.0
    faults: int = 1
    kinds: Tuple[FaultKind, ...] = (FaultKind.ZONE_OUTAGE,)
    #: Outage length range (finite: the domain reboots).
    outage_duration: Tuple[float, float] = (5.0, 15.0)
    #: Serving overlay: open-loop users split across the fleet's VMs,
    #: measured post hoc from per-shard telemetry and merged through
    #: the shard-mergeable histogram at the fleet clock (None = off,
    #: the default — fleet fingerprints are unchanged and serving
    #: attaches no per-shard recorders).
    serving: Optional["ServingConfig"] = None

    def __post_init__(self):
        if self.faults < 1:
            raise ValueError(f"a campaign needs >= 1 fault: {self.faults}")
        check_schedule(self)
        zone_kinds = set(self.kinds) & ZONE_KINDS
        if zone_kinds == ZONE_KINDS:
            raise ValueError(
                "mixing zone-outage and rack-outage in one random draw "
                "is ambiguous (their targets differ) — pick one"
            )
        unknown = set(self.kinds) - FLEET_KINDS
        if unknown:
            raise ValueError(
                "fleet campaigns inject domain/host power faults, "
                "hypervisor crash/hang and silent corruption only, "
                f"not {sorted(k.value for k in unknown)}"
            )
        corruption = set(self.kinds) & CORRUPTION_KINDS
        if corruption and self.spec.integrity is None:
            raise ValueError(
                f"fault kinds {sorted(k.value for k in corruption)} need "
                "the integrity overlay: set FleetSpec.integrity"
            )


@dataclass
class FleetCampaignResult:
    """Aggregates of one campaign, all derived from simulation state."""

    config: FleetCampaignConfig
    # -- scale ---------------------------------------------------------------
    vms: int = 0
    hosts: int = 0
    zones: int = 0
    shards: int = 0
    quanta_executed: int = 0
    events_processed: int = 0
    # -- faults --------------------------------------------------------------
    faults_injected: int = 0
    fault_descriptions: List[str] = field(default_factory=list)
    # -- protection outcomes -------------------------------------------------
    failovers: int = 0
    failed_failovers: int = 0
    secondary_losses: int = 0
    #: In-place microreboot recoveries (zones running a recovery
    #: policy; zero under the fleet-wide failover default).
    recoveries: int = 0
    failed_recoveries: int = 0
    reprotections: int = 0
    failed_reprotections: int = 0
    dropped_vms: int = 0
    unprotected_windows: Dict[str, float] = field(default_factory=dict)
    # -- queue / control -----------------------------------------------------
    enqueued: int = 0
    admitted: int = 0
    deferred: int = 0
    requeued: int = 0
    max_queue_depth: int = 0
    final_admission_limit: int = 0
    #: Corruption outcomes pooled over every shard's engines; None when
    #: the integrity overlay is off.
    integrity: Optional[IntegrityTally] = None
    # -- availability --------------------------------------------------------
    observed_seconds: float = 0.0
    downtime_seconds: float = 0.0
    nines: float = math.inf
    #: Fleet-wide :class:`~repro.serving.ServingReport` (per-shard
    #: overlays merged at the fleet clock); None when serving is off.
    serving: Optional[object] = None

    @property
    def mean_unprotected_window(self) -> float:
        values = list(self.unprotected_windows.values())
        return sum(values) / len(values) if values else math.nan

    def fingerprint(self) -> dict:
        """The determinism contract: same seed => identical dict."""
        payload = {
            "vms": self.vms,
            "shards": self.shards,
            "quanta": self.quanta_executed,
            "events_processed": self.events_processed,
            "faults": self.faults_injected,
            "failovers": self.failovers,
            "failed_failovers": self.failed_failovers,
            "secondary_losses": self.secondary_losses,
            "recoveries": self.recoveries,
            "failed_recoveries": self.failed_recoveries,
            "reprotections": self.reprotections,
            "failed_reprotections": self.failed_reprotections,
            "dropped_vms": self.dropped_vms,
            "enqueued": self.enqueued,
            "admitted": self.admitted,
            "deferred": self.deferred,
            "requeued": self.requeued,
            "max_queue_depth": self.max_queue_depth,
            "mean_unprotected_window": _finite(self.mean_unprotected_window),
            "nines": round(self.nines, 6)
            if math.isfinite(self.nines)
            else "inf",
        }
        # Each overlay's block is present only when it is on, so a
        # default fleet fingerprint stays byte-identical.
        if self.serving is not None:
            payload.update(self.serving.fingerprint())
        if self.integrity is not None:
            payload.update(self.integrity.fingerprint())
        return payload

    def metrics(self) -> Dict[str, float]:
        """Flat numeric metrics for the benchmark RegressionGate."""
        mean_window = self.mean_unprotected_window
        payload = {
            "events_processed": float(self.events_processed),
            "quanta": float(self.quanta_executed),
            "failovers": float(self.failovers),
            "recoveries": float(self.recoveries),
            "reprotections": float(self.reprotections),
            "dropped_vms": float(self.dropped_vms),
            "enqueued": float(self.enqueued),
            "admitted": float(self.admitted),
            "max_queue_depth": float(self.max_queue_depth),
            "mean_unprotected_window": (
                mean_window if math.isfinite(mean_window) else 0.0
            ),
            "nines": self.nines if math.isfinite(self.nines) else 9.0,
        }
        if self.serving is not None:
            for name, value in self.serving.to_metrics().items():
                payload[f"serving_{name}"] = value
        if self.integrity is not None:
            payload["corruptions_detected"] = float(
                self.integrity.corruptions_detected
            )
            payload["scrub_audits"] = float(self.integrity.scrub_audits)
        return payload

    def summary_rows(self) -> List[dict]:
        serving = self.serving
        serving_rows = serving.summary_rows("serving ") if serving else []
        integrity = self.integrity
        integrity_rows = integrity.summary_rows() if integrity else []
        return [
            {"metric": "VMs / hosts / zones",
             "value": f"{self.vms} / {self.hosts} / {self.zones}"},
            {"metric": "shards (host pairs)", "value": self.shards},
            {"metric": "quanta executed", "value": self.quanta_executed},
            {"metric": "events processed", "value": self.events_processed},
            {"metric": "faults injected", "value": self.faults_injected},
            {"metric": "failovers (ok/failed)",
             "value": f"{self.failovers}/{self.failed_failovers}"},
            {"metric": "secondary losses", "value": self.secondary_losses},
            {"metric": "in-place recoveries (ok/failed)",
             "value": f"{self.recoveries}/{self.failed_recoveries}"},
            {"metric": "re-protections (ok/failed)",
             "value": f"{self.reprotections}/{self.failed_reprotections}"},
            {"metric": "queue enqueued/admitted/deferred",
             "value": f"{self.enqueued}/{self.admitted}/{self.deferred}"},
            {"metric": "max queue depth", "value": self.max_queue_depth},
            {"metric": "dropped VMs", "value": self.dropped_vms},
            {"metric": "mean unprotected window (s)",
             "value": self.mean_unprotected_window},
            {"metric": "availability (nines)", "value": self.nines},
        ] + serving_rows + integrity_rows


class FleetCampaign:
    """Runs one seeded fleet chaos campaign to completion."""

    def __init__(
        self,
        config: Optional[FleetCampaignConfig] = None,
        subscribers: Sequence[Callable] = (),
    ):
        self.config = config or FleetCampaignConfig()
        #: Telemetry subscribers attached to every calendar the
        #: campaign creates (mirrors :class:`ChaosCampaign`) — e.g. the
        #: fleet sweep trial's aggregator or a trace writer.
        self.subscribers = list(subscribers)
        #: Populated by :meth:`run` (kept for inspection in tests).
        self.orchestrator: Optional[FleetOrchestrator] = None
        self.injector: Optional[FleetFaultInjector] = None
        #: Per-shard recorders, attached only when the serving or
        #: integrity overlay reads the bus.
        self.shard_recorders: Dict[str, Recorder] = {}

    def run(self) -> FleetCampaignResult:
        config = self.config
        orchestrator = FleetOrchestrator(config.spec)
        self.orchestrator = orchestrator
        for subscriber in self.subscribers:
            orchestrator.sharded.subscribe(subscriber)
        if config.serving is not None or config.spec.integrity is not None:
            from ..serving.timeline import TIMELINE_NAMES

            # Recorders go on before seeding so replica windows see the
            # seeding spans.  They are passive subscribers: attaching
            # them changes no draw and no event, only host memory.
            # Either overlay may read any shard, so each recorder keeps
            # what both read.
            names = _OVERLAY_NAMES | TALLY_NAMES | TIMELINE_NAMES
            self.shard_recorders = {
                name: Recorder.attach(shard.sim.telemetry, names=names)
                for name, shard in orchestrator.shards.items()
            }
        injector = FleetFaultInjector(orchestrator)
        self.injector = injector

        start = orchestrator.now
        orchestrator.start_protection(
            seed_deadline=max(config.settle_time, 1.0)
        )
        settle_until = start + config.settle_time
        if orchestrator.now < settle_until:
            orchestrator.run(until=settle_until)
        serve_start = orchestrator.now
        schedule = self._draw_schedule(orchestrator)
        injector.schedule(schedule)
        orchestrator.run_for(config.fault_window + config.recovery_time)
        result = self._harvest(orchestrator, injector, start)
        if config.serving is not None:
            result.serving = self._serve_overlay(orchestrator, serve_start)
        orchestrator.halt("campaign over")
        return result

    def _serve_overlay(
        self, orchestrator: FleetOrchestrator, serve_start: float
    ):
        """Merge per-shard serving overlays at the fleet clock.

        Every shard's recorder is replayed independently (its own
        clock, its own engines), the fleet population is split evenly
        across all protected VMs, and the per-VM reports fold into one
        fleet-wide report through the mergeable histogram — the same
        merge a distributed percentile pipeline would do.
        """
        from ..serving import ServingReport, overlay_report
        from ..simkernel.random import derive_seed

        config = self.config
        serving = config.serving
        seed = derive_seed(config.spec.seed, "fleet-serving")
        report = ServingReport(config=serving)
        share = serving.arrivals().scaled(1.0 / max(1, config.spec.vms))
        for shard_name in sorted(self.shard_recorders):
            shard = orchestrator.shards[shard_name]
            recorder = self.shard_recorders[shard_name]
            horizon = shard.sim.now
            if horizon <= serve_start:
                continue
            failures = [r.time for r in recorder.counters("host.failure")]
            # A dropped VM has no (successful or failed) failover span
            # to price it: dark from the shard's first host failure.
            dark = [(min(failures) if failures else serve_start, horizon)]
            report.merge(overlay_report(
                recorder,
                vms=list(shard.engines),
                start=serve_start,
                horizon=horizon,
                config=serving,
                seed=seed,
                engine_names={
                    vm: [engine.name for engine in (
                        shard.engines[vm], shard.reseed_engines.get(vm)
                    ) if engine is not None]
                    for vm in shard.engines
                },
                extra_blackouts={
                    vm: dark for vm in shard.engines
                    if vm in orchestrator.dropped
                },
                arrivals_process=share,
            ))
        return report

    def _draw_schedule(self, orchestrator: FleetOrchestrator) -> FaultSchedule:
        config = self.config
        spec = config.spec
        zone_targets: List[str] = []
        if FaultKind.ZONE_OUTAGE in config.kinds:
            zone_targets = orchestrator.topology.zones()
        elif FaultKind.RACK_OUTAGE in config.kinds:
            zone_targets = [
                f"{zone}/{rack}"
                for zone, rack in orchestrator.topology.racks()
                if rack != "spare"
            ]
        grid_hosts = [name for name, _, _, _ in spec.grid_hosts]
        if set(config.kinds) & HYPERVISOR_KINDS:
            # Hypervisor faults aim at the *primary* (Xen) side — that
            # is the hypervisor the detectors watch and the recovery
            # policy can microreboot.
            grid_hosts = [
                name
                for name, flavor, _, _ in spec.grid_hosts
                if flavor == "xen"
            ]
        # VM names feed the draw only when a corruption kind asked for
        # them, so historical kind lists keep their draw sequences.
        vm_targets: List[str] = []
        if set(config.kinds) & CORRUPTION_KINDS:
            vm_targets = sorted(
                vm_name
                for shard in orchestrator.shards.values()
                for vm_name in shard.engines
            )
        return FaultSchedule.random(
            orchestrator.fleet_sim.random.stream("fleet.chaos"),
            hosts=grid_hosts,
            vms=vm_targets,
            zones=zone_targets,
            kinds=config.kinds,
            count=config.faults,
            window=(0.0, config.fault_window),
            transient_duration=config.outage_duration,
        )

    def _harvest(
        self,
        orchestrator: FleetOrchestrator,
        injector: FleetFaultInjector,
        start: float,
    ) -> FleetCampaignResult:
        config = self.config
        spec = config.spec
        result = FleetCampaignResult(config=config)
        result.vms = spec.vms
        result.hosts = spec.total_hosts
        result.zones = spec.zones
        result.shards = len(orchestrator.shards)
        result.quanta_executed = orchestrator.sharded.quanta_executed
        result.events_processed = orchestrator.fleet_sim.events_processed + sum(
            orchestrator.shards[name].sim.events_processed
            for name in orchestrator.sharded.shard_names()
        )
        result.faults_injected = len(injector.injected)
        result.fault_descriptions = [
            record.detail for record in injector.injected
        ]
        result.failovers = orchestrator.failovers
        result.failed_failovers = orchestrator.failed_failovers
        result.secondary_losses = orchestrator.secondary_losses
        result.recoveries = orchestrator.recoveries
        result.failed_recoveries = orchestrator.failed_recoveries
        for record in orchestrator.reprotections:
            if record.failed:
                result.failed_reprotections += 1
            else:
                result.reprotections += 1
                result.unprotected_windows[record.vm_name] = (
                    record.unprotected_window
                )
        result.dropped_vms = len(orchestrator.dropped)
        stats = orchestrator.queue.stats
        result.enqueued = stats.enqueued
        result.admitted = stats.admitted
        result.deferred = stats.deferred
        result.requeued = stats.requeued
        result.max_queue_depth = stats.max_depth
        result.final_admission_limit = orchestrator.admission.limit

        # Availability: a failed-over VM was dark for its resumption
        # time; a VM whose failover failed stays dark to the end.
        end = orchestrator.now
        downtime = 0.0
        for shard in orchestrator.shards.values():
            protections = shard.protections.values()
            for report in (p.failover.report for p in protections):
                if report is None:
                    continue
                if report.failed:
                    downtime += end - report.detected_at
                elif math.isfinite(report.resumption_time):
                    downtime += report.resumption_time
            for gate in (p.gate for p in protections):
                recovery = gate.report if gate is not None else None
                if recovery is None:
                    continue
                if recovery.recovered:
                    # Dark from detection until the microrebooted
                    # hypervisor resumed its guests.
                    downtime += recovery.blackout
                elif not recovery.escalated:
                    # Pure recover-in-place loss: dark to the end (the
                    # escalated case is priced by its failover report).
                    downtime += end - recovery.detected_at
        result.observed_seconds = (end - start) * spec.vms
        result.downtime_seconds = downtime
        result.nines = observed_availability_nines(
            max(downtime, 0.0), result.observed_seconds
        )
        if spec.integrity is not None:
            # Each shard's ledgers are read at that shard's own clock.
            result.integrity = IntegrityTally.total(
                IntegrityTally.collect(
                    [*shard.engines.values(), *shard.reseed_engines.values()],
                    shard.sim.now,
                    self.shard_recorders[name],
                )
                for name, shard in orchestrator.shards.items()
            )
        return result
