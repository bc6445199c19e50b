"""In-memory telemetry subscriber with query helpers.

A :class:`Recorder` keeps every record it receives, in emission order,
and offers the filtered views the analysis layer consumes:
``spans("replication.checkpoint", engine="asr")`` is the shape every
reconstruction (:meth:`repro.replication.checkpoint.ReplicationStats.from_recorder`,
:meth:`repro.migration.stats.MigrationStats.from_recorder`) is built on.
"""

from __future__ import annotations

from typing import List, Optional

from .records import CounterRecord, GaugeRecord, SpanRecord


def _matches(record, name: Optional[str], filters: dict) -> bool:
    if name is not None and record.name != name:
        return False
    for key, wanted in filters.items():
        if record.attrs.get(key) != wanted:
            return False
    return True


class Recorder:
    """Collects every record published on a bus it is subscribed to."""

    def __init__(self):
        self.records: List = []

    def __call__(self, record) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()

    # -- construction ------------------------------------------------------
    @classmethod
    def attach(cls, bus) -> "Recorder":
        """Create a recorder and subscribe it to ``bus``."""
        recorder = cls()
        bus.subscribe(recorder)
        return recorder

    # -- queries -----------------------------------------------------------
    def spans(self, name: Optional[str] = None, **attr_filters) -> List[SpanRecord]:
        """Completed spans, filtered by name and exact attr matches."""
        return [
            r
            for r in self.records
            if isinstance(r, SpanRecord) and _matches(r, name, attr_filters)
        ]

    def counters(self, name: Optional[str] = None, **attr_filters) -> List[CounterRecord]:
        return [
            r
            for r in self.records
            if isinstance(r, CounterRecord) and _matches(r, name, attr_filters)
        ]

    def gauges(self, name: Optional[str] = None, **attr_filters) -> List[GaugeRecord]:
        return [
            r
            for r in self.records
            if isinstance(r, GaugeRecord) and _matches(r, name, attr_filters)
        ]

    def counter_total(self, name: str, **attr_filters) -> float:
        """Sum of all increments recorded on counter ``name``."""
        return sum(r.value for r in self.counters(name, **attr_filters))

    def children_of(self, span: SpanRecord) -> List[SpanRecord]:
        """Direct sub-spans of ``span``."""
        return [
            r
            for r in self.records
            if isinstance(r, SpanRecord) and r.parent_id == span.span_id
        ]

    def names(self) -> List[str]:
        """Sorted distinct record names seen so far."""
        return sorted({r.name for r in self.records})

    def __repr__(self) -> str:
        return f"<Recorder records={len(self.records)}>"
