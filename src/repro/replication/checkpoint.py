"""Checkpoint records and replication statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class CheckpointRecord:
    """One completed checkpoint (Fig. 3's steps 1–6)."""

    epoch: int
    started_at: float
    #: Period the VM ran before this checkpoint.
    period_used: float
    #: Full pause duration t (scan + copy + state + ack).
    pause_duration: float
    #: The scan+copy part only (the Fig. 8 "checkpoint transfer time").
    transfer_duration: float
    dirty_pages: float
    bytes_sent: float
    acked_at: float = 0.0
    packets_released: int = 0

    @property
    def degradation(self) -> float:
        """Eq. 1 evaluated for this checkpoint."""
        denominator = self.pause_duration + self.period_used
        if denominator <= 0:
            return 0.0
        return self.pause_duration / denominator


@dataclass
class ReplicationStats:
    """Aggregate record of one replication run."""

    vm_name: str
    engine: str
    started_at: float = 0.0
    seeding_duration: float = 0.0
    seeding_downtime: float = 0.0
    checkpoints: List[CheckpointRecord] = field(default_factory=list)
    stopped_at: Optional[float] = None
    stop_reason: Optional[str] = None

    @classmethod
    def from_recorder(cls, recorder, engine: Optional[str] = None) -> "ReplicationStats":
        """Reconstruct the full stats object from a telemetry stream.

        ``recorder`` is a :class:`repro.telemetry.Recorder` (live, or
        rebuilt from a JSONL trace via
        :func:`repro.telemetry.recorder_from_trace`).  The replication
        engine emits one ``replication.session`` span per run with
        ``replication.seeding`` and ``replication.checkpoint`` spans
        nested inside; this constructor inverts that emission exactly —
        the round-trip tests assert equality with the engine's own
        stats object, field for field.  Pass ``engine`` to pick one
        session when several engines shared a bus.
        """
        filters = {} if engine is None else {"engine": engine}
        sessions = recorder.spans("replication.session", **filters)
        if len(sessions) != 1:
            raise ValueError(
                f"expected exactly one replication.session span, found "
                f"{len(sessions)}"
                + ("" if engine is None else f" for engine {engine!r}")
            )
        session = sessions[0]
        stats = cls(
            vm_name=session.attrs["vm"],
            engine=session.attrs["engine"],
            started_at=session.started_at,
            stopped_at=session.ended_at,
            stop_reason=session.attrs.get("stop_reason"),
        )
        seeding = [
            s
            for s in recorder.children_of(session)
            if s.name == "replication.seeding"
        ]
        if seeding:
            stats.seeding_duration = seeding[0].duration
            sync = [
                s
                for s in recorder.children_of(seeding[0])
                if s.name == "replication.seeding.sync"
            ]
            if sync:
                stats.seeding_downtime = sync[0].duration
        for span in recorder.children_of(session):
            if span.name != "replication.checkpoint":
                continue
            children = recorder.children_of(span)
            pauses = [
                s for s in children if s.name == "replication.checkpoint.pause"
            ]
            transfers = [
                s
                for s in children
                if s.name == "replication.checkpoint.transfer"
            ]
            stats.checkpoints.append(
                CheckpointRecord(
                    epoch=span.attrs["epoch"],
                    started_at=span.started_at,
                    period_used=span.attrs["period"],
                    pause_duration=(
                        pauses[0].duration if pauses else span.duration
                    ),
                    transfer_duration=(
                        transfers[0].duration if transfers else 0.0
                    ),
                    dirty_pages=span.attrs["dirty_pages"],
                    bytes_sent=span.attrs["bytes_sent"],
                    acked_at=span.ended_at,
                    packets_released=span.attrs["packets_released"],
                )
            )
        stats.checkpoints.sort(key=lambda record: record.epoch)
        return stats

    @property
    def checkpoint_count(self) -> int:
        return len(self.checkpoints)

    def mean_transfer_duration(self) -> float:
        """Average checkpoint transfer time (the Fig. 8a/8b metric)."""
        if not self.checkpoints:
            return math.nan
        return sum(c.transfer_duration for c in self.checkpoints) / len(
            self.checkpoints
        )

    def mean_pause_duration(self) -> float:
        if not self.checkpoints:
            return math.nan
        return sum(c.pause_duration for c in self.checkpoints) / len(
            self.checkpoints
        )

    def mean_degradation(self) -> float:
        """Average per-checkpoint degradation (the Fig. 8c/8d metric)."""
        if not self.checkpoints:
            return math.nan
        return sum(c.degradation for c in self.checkpoints) / len(
            self.checkpoints
        )

    def mean_period(self) -> float:
        if not self.checkpoints:
            return math.nan
        return sum(c.period_used for c in self.checkpoints) / len(
            self.checkpoints
        )

    def summary(self) -> dict:
        return {
            "vm": self.vm_name,
            "engine": self.engine,
            "checkpoints": self.checkpoint_count,
            "mean_transfer_s": self.mean_transfer_duration(),
            "mean_pause_s": self.mean_pause_duration(),
            "mean_degradation": self.mean_degradation(),
            "mean_period_s": self.mean_period(),
            "stop_reason": self.stop_reason,
        }
