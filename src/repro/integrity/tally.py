"""Campaign-side integrity accounting, shared by chaos and fleet runs.

A tally is built from the engines a run protected: the monitors' event
ledgers are the ground truth for injected vs caught corruption, the
repairers count terminal alarms.  Scrub audits and failover refusals
live on the telemetry bus, so they are read off the run's recorder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable, List

from ..telemetry.metrics import fingerprint_float as _finite

#: The record names :meth:`IntegrityTally.collect` reads.
TALLY_NAMES = frozenset({"integrity.failover_refused", "integrity.scrub.audit"})

#: ``CorruptionEvent.repaired_by`` rung -> the tally field it counts in.
_RUNG_FIELDS = {
    "page-refetch": "repair_page_refetches",
    "incremental-resync": "repair_resyncs",
    "full-reseed": "repair_reseeds",
}


@dataclass
class IntegrityTally:
    """Corruption outcomes pooled over engines, trials or shards.

    Field names match :class:`~repro.faults.campaign.TrialResult`'s flat
    integrity fields, so :meth:`total` pools trials as readily as
    tallies.
    """

    corruptions_injected: int = 0
    corruptions_detected: int = 0
    corruptions_repaired: int = 0
    #: Corruptions a later clean epoch displaced before the scrubber
    #: saw them — the overlay's misses.
    corruptions_healed: int = 0
    repair_page_refetches: int = 0
    repair_resyncs: int = 0
    repair_reseeds: int = 0
    integrity_alarms: int = 0
    failover_refusals: int = 0
    scrub_audits: int = 0
    #: Per-corruption latent windows: seconds during which a failover
    #: would have promoted the corrupt replica state.
    latent_windows: List[float] = field(default_factory=list)

    @classmethod
    def collect(
        cls, engines: Iterable, now: float, recorder
    ) -> "IntegrityTally":
        """Walk the event ledgers of ``engines`` at time ``now``; the
        bus-only counts come off ``recorder``."""
        tally = cls(
            failover_refusals=int(
                recorder.counter_total("integrity.failover_refused")
            ),
            scrub_audits=int(recorder.counter_total("integrity.scrub.audit")),
        )
        for engine in engines:
            monitor = engine.integrity_monitor
            if monitor is None:
                continue
            for event in monitor.events:
                tally.corruptions_injected += 1
                tally.corruptions_detected += event.detected
                tally.corruptions_healed += event.healed_at is not None
                tally.corruptions_repaired += event.repaired_at is not None
                rung = _RUNG_FIELDS.get(event.repaired_by)
                if rung is not None:
                    setattr(tally, rung, getattr(tally, rung) + 1)
                tally.latent_windows.append(
                    round(event.latent_window(now), 9)
                )
            if engine.repairer is not None:
                tally.integrity_alarms += engine.repairer.alarms
        return tally

    @classmethod
    def total(cls, parts: Iterable) -> "IntegrityTally":
        """Pool tallies, or anything carrying the same-named fields."""
        tally = cls()
        names = [spec.name for spec in fields(cls)]
        for part in parts:
            for name in names:
                total = getattr(tally, name) + getattr(part, name)
                setattr(tally, name, total)
        return tally

    @property
    def detection_rate(self) -> float:
        """Fraction of injected corruptions the scrubber caught."""
        if not self.corruptions_injected:
            return math.nan
        return self.corruptions_detected / self.corruptions_injected

    @property
    def mean_latent_window(self) -> float:
        windows = self.latent_windows
        return sum(windows) / len(windows) if windows else math.nan

    @property
    def max_latent_window(self) -> float:
        return max(self.latent_windows) if self.latent_windows else math.nan

    def fingerprint(self) -> dict:
        """The integrity block of a campaign fingerprint."""
        return {
            "corruptions": self.corruptions_injected,
            "corruptions_detected": self.corruptions_detected,
            "corruptions_repaired": self.corruptions_repaired,
            "repair_page_refetches": self.repair_page_refetches,
            "repair_resyncs": self.repair_resyncs,
            "repair_reseeds": self.repair_reseeds,
            "integrity_alarms": self.integrity_alarms,
            "failover_refusals": self.failover_refusals,
            "detection_rate": _finite(self.detection_rate),
            "mean_latent_window": _finite(self.mean_latent_window),
            "max_latent_window": _finite(self.max_latent_window),
        }

    def summary_rows(self) -> List[dict]:
        return [
            {"metric": "corruptions (injected/detected/repaired)",
             "value": f"{self.corruptions_injected}/"
                      f"{self.corruptions_detected}/"
                      f"{self.corruptions_repaired}"},
            {"metric": "corruption detection rate",
             "value": self.detection_rate},
            {"metric": "repairs (refetch/resync/reseed)",
             "value": f"{self.repair_page_refetches}/"
                      f"{self.repair_resyncs}/{self.repair_reseeds}"},
            {"metric": "integrity alarms", "value": self.integrity_alarms},
            {"metric": "failovers refused (suspect replica)",
             "value": self.failover_refusals},
            {"metric": "mean latent corruption window (s)",
             "value": self.mean_latent_window},
            {"metric": "max latent corruption window (s)",
             "value": self.max_latent_window},
        ]
