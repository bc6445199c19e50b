"""Migration statistics records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class IterationRecord:
    """One pre-copy iteration."""

    index: int
    started_at: float
    duration: float
    pages_sent: float
    bytes_sent: float
    dirty_pages_produced: float
    problematic_pages: float = 0.0


@dataclass
class MigrationStats:
    """Full record of one live migration."""

    vm_name: str
    mode: str
    source: str
    destination: str
    started_at: float = 0.0
    finished_at: float = 0.0
    iterations: List[IterationRecord] = field(default_factory=list)
    stop_and_copy_duration: float = 0.0
    stop_and_copy_pages: float = 0.0
    downtime: float = 0.0
    problematic_pages_resent: float = 0.0
    consistency_risk_pages: float = 0.0
    translated: bool = False
    succeeded: bool = False
    failure: Optional[str] = None

    @classmethod
    def from_recorder(cls, recorder, vm: Optional[str] = None) -> "MigrationStats":
        """Reconstruct the stats object from a telemetry stream.

        The migration engine emits one ``migration`` span per run, a
        ``precopy.iteration`` span per pre-copy pass and a
        ``migration.stop_and_copy`` sub-span; this inverts that
        emission.  Pass ``vm`` to pick one run when several migrations
        shared a bus.
        """
        filters = {} if vm is None else {"vm": vm}
        runs = recorder.spans("migration", **filters)
        if len(runs) != 1:
            raise ValueError(
                f"expected exactly one migration span, found {len(runs)}"
                + ("" if vm is None else f" for vm {vm!r}")
            )
        run = runs[0]
        stats = cls(
            vm_name=run.attrs["vm"],
            mode=run.attrs["mode"],
            source=run.attrs["source"],
            destination=run.attrs["destination"],
            started_at=run.started_at,
            finished_at=run.ended_at,
            stop_and_copy_pages=run.attrs["stop_and_copy_pages"],
            downtime=run.attrs["downtime"],
            problematic_pages_resent=run.attrs["problematic_pages_resent"],
            consistency_risk_pages=run.attrs["consistency_risk_pages"],
            translated=run.attrs["translated"],
            succeeded=run.attrs["succeeded"],
            failure=run.attrs.get("failure"),
        )
        iteration_spans = recorder.spans(
            "precopy.iteration", vm=stats.vm_name, component="migration"
        )
        for span in iteration_spans:
            if not run.started_at <= span.started_at <= run.ended_at:
                continue
            stats.iterations.append(
                IterationRecord(
                    index=span.attrs["index"],
                    started_at=span.started_at,
                    duration=span.duration,
                    pages_sent=span.attrs["pages"],
                    bytes_sent=span.attrs["bytes"],
                    dirty_pages_produced=span.attrs["dirty_produced"],
                    problematic_pages=span.attrs["problematic"],
                )
            )
        stats.iterations.sort(key=lambda record: record.index)
        stops = [
            s
            for s in recorder.children_of(run)
            if s.name == "migration.stop_and_copy"
        ]
        if stops:
            stats.stop_and_copy_duration = stops[0].duration
        return stats

    @property
    def total_duration(self) -> float:
        """End-to-end migration time (the Fig. 6 metric)."""
        return self.finished_at - self.started_at

    @property
    def total_pages_sent(self) -> float:
        return (
            sum(record.pages_sent for record in self.iterations)
            + self.stop_and_copy_pages
        )

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

    def summary(self) -> dict:
        """Row for report tables."""
        return {
            "vm": self.vm_name,
            "mode": self.mode,
            "duration_s": self.total_duration,
            "iterations": self.iteration_count,
            "downtime_s": self.downtime,
            "pages_sent": self.total_pages_sent,
            "problematic_resent": self.problematic_pages_resent,
            "translated": self.translated,
            "succeeded": self.succeeded,
        }
