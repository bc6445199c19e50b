"""In-memory telemetry subscriber with query helpers.

A :class:`Recorder` keeps every record it receives, in emission order,
and offers the filtered views the analysis layer consumes:
``spans("replication.checkpoint", engine="asr")`` is the shape every
reconstruction (:meth:`repro.replication.checkpoint.ReplicationStats.from_recorder`,
:meth:`repro.migration.stats.MigrationStats.from_recorder`) is built on.

A recorder attached with ``names=`` is *scoped*: it declares those
names to the bus (which then builds no record outside the union its
subscribers declared), keeps only records of those names, and raises
:class:`KeyError` on a query for any other name, so a reader that
forgot to declare a name fails loudly instead of reading nothing.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional

from .records import CounterRecord, GaugeRecord, SpanRecord


def _matches(record, name: Optional[str], filters: dict) -> bool:
    if name is not None and record.name != name:
        return False
    for key, wanted in filters.items():
        if record.attrs.get(key) != wanted:
            return False
    return True


class Recorder:
    """Collects the records published on a bus it is subscribed to."""

    def __init__(self, names: Optional[Iterable[str]] = None):
        self.records: List = []
        #: The names this recorder keeps and answers queries for, or
        #: None for every name.
        self.declared: Optional[FrozenSet[str]] = (
            None if names is None else frozenset(names)
        )

    def __call__(self, record) -> None:
        if self.declared is None or record.name in self.declared:
            self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()

    # -- construction ------------------------------------------------------
    @classmethod
    def attach(cls, bus, names: Optional[Iterable[str]] = None) -> "Recorder":
        """Create a recorder and subscribe it to ``bus``.

        ``names`` scopes it to those record names (see the module
        docstring); None records everything.
        """
        recorder = cls(names)
        bus.subscribe(recorder, names=recorder.declared)
        return recorder

    # -- queries -----------------------------------------------------------
    def _check(self, name: Optional[str]) -> None:
        if name is not None and self.declared is not None and name not in self.declared:
            raise KeyError(
                f"recorder was not declared for {name!r}; "
                f"it records {sorted(self.declared)}"
            )

    def spans(self, name: Optional[str] = None, **attr_filters) -> List[SpanRecord]:
        """Completed spans, filtered by name and exact attr matches."""
        self._check(name)
        return [
            r
            for r in self.records
            if isinstance(r, SpanRecord) and _matches(r, name, attr_filters)
        ]

    def counters(self, name: Optional[str] = None, **attr_filters) -> List[CounterRecord]:
        self._check(name)
        return [
            r
            for r in self.records
            if isinstance(r, CounterRecord) and _matches(r, name, attr_filters)
        ]

    def gauges(self, name: Optional[str] = None, **attr_filters) -> List[GaugeRecord]:
        self._check(name)
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
