"""The simulation-wide telemetry bus.

One :class:`TelemetryBus` hangs off every
:class:`~repro.simkernel.core.Simulation`.  Instrumented components
(the kernel, hosts, links, the replication and migration engines) emit
typed records through it; subscribers — an in-memory
:class:`~repro.telemetry.recorder.Recorder`, a streaming JSONL
:class:`~repro.telemetry.trace.TraceWriter`, a
:class:`~repro.telemetry.metrics.MetricsAggregator` — receive every
record as it is produced.

The bus is **zero-overhead when disabled**: with no subscriber
attached, ``counter``/``gauge`` return after a single flag check and
``span`` hands back a shared no-op :data:`NULL_SPAN`, so instrumented
hot paths cost one attribute test.  Hot loops that would even pay the
call (the kernel's ``step``) guard on :attr:`TelemetryBus.enabled` /
:attr:`TelemetryBus.kernel_enabled` directly.

A subscriber may declare the record names it consumes
(``subscribe(subscriber, names=...)``).  The bus then builds only the
records some subscriber wants: the union of the declared names, or
every record as soon as one subscriber declared nothing.  A name
outside that union costs one set lookup: ``counter``/``gauge`` return
and ``span`` hands back :data:`NULL_SPAN` without allocating a span
id.  A scoped subscriber still receives every record of the union, so
it must ignore names it did not ask for (:class:`Recorder` does).

Kernel-level records (one per processed event / finished process) are
far denser than the component-level stream, so they sit behind a
second opt-in flag, :attr:`TelemetryBus.trace_kernel_events`.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, List, Optional

from .records import CounterRecord, GaugeRecord, SpanRecord

Subscriber = Callable[[Any], None]

#: The records the kernel emits under ``trace_kernel_events``.
_KERNEL_NAMES = frozenset({"sim.event", "sim.process"})


class Span:
    """An open interval; emits a :class:`SpanRecord` on :meth:`end`."""

    __slots__ = ("_bus", "name", "started_at", "attrs", "span_id", "parent_id", "_open")

    def __init__(self, bus: "TelemetryBus", name: str, parent_id: Optional[int], attrs: dict):
        self._bus = bus
        self.name = name
        self.started_at = bus.sim.now
        self.attrs = attrs
        self.span_id = bus._next_span_id()
        self.parent_id = parent_id
        self._open = True

    def annotate(self, **attrs) -> "Span":
        """Attach attributes to the span before it ends."""
        self.attrs.update(attrs)
        return self

    def end(self, **attrs) -> Optional[SpanRecord]:
        """Close the span at the current simulated time and publish it."""
        if not self._open:
            return None
        self._open = False
        if attrs:
            self.attrs.update(attrs)
        record = SpanRecord(
            name=self.name,
            started_at=self.started_at,
            ended_at=self._bus.sim.now,
            span_id=self.span_id,
            parent_id=self.parent_id,
            attrs=self.attrs,
        )
        self._bus.publish(record)
        return record

    def __repr__(self) -> str:
        state = "open" if self._open else "ended"
        return f"<Span {self.name!r} #{self.span_id} {state}>"


class _NullSpan:
    """Shared no-op span returned for a record nobody subscribed to."""

    __slots__ = ()
    name = ""
    span_id = None
    parent_id = None
    started_at = 0.0

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def end(self, **attrs) -> None:
        return None

    def __repr__(self) -> str:
        return "<NullSpan>"


#: The singleton no-op span handed out for a record nobody wants.
NULL_SPAN = _NullSpan()


class TelemetryBus:
    """Publish/subscribe fan-out for simulation telemetry records."""

    def __init__(self, sim):
        self.sim = sim
        self._subscribers: List[Subscriber] = []
        #: Each subscriber's declared names (None: every name), in
        #: subscription order.
        self._scopes: List[Optional[FrozenSet[str]]] = []
        #: True whenever at least one subscriber is attached.  Hot
        #: paths may read this directly to skip building attrs dicts.
        self.enabled = False
        #: The names some subscriber declared, or None while any
        #: subscriber takes every record (empty with no subscriber).
        self._names: Optional[FrozenSet[str]] = frozenset()
        #: Opt-in for per-event / per-process kernel records.
        self._trace_kernel_events = False
        #: enabled AND trace_kernel_events AND a kernel record wanted,
        #: pre-combined for the kernel hot loop (one attribute read per
        #: processed event).
        self.kernel_enabled = False
        self._span_counter = 0

    # -- subscription -----------------------------------------------------
    def subscribe(
        self, subscriber: Subscriber, names: Optional[Iterable[str]] = None
    ) -> Subscriber:
        """Attach ``subscriber`` (a callable taking one record).

        ``names`` declares the record names it consumes; None (the
        default) takes every record.
        """
        if not callable(subscriber):
            raise TypeError(f"subscriber must be callable: {subscriber!r}")
        if isinstance(names, str):
            raise TypeError(f"names must be a collection of names: {names!r}")
        self._subscribers.append(subscriber)
        self._scopes.append(None if names is None else frozenset(names))
        self._refresh_flags()
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Detach ``subscriber`` (missing subscribers are ignored)."""
        try:
            index = self._subscribers.index(subscriber)
        except ValueError:
            return
        del self._subscribers[index]
        del self._scopes[index]
        self._refresh_flags()

    @property
    def trace_kernel_events(self) -> bool:
        return self._trace_kernel_events

    @trace_kernel_events.setter
    def trace_kernel_events(self, value: bool) -> None:
        self._trace_kernel_events = bool(value)
        self._refresh_flags()

    def _refresh_flags(self) -> None:
        self.enabled = bool(self._subscribers)
        if None in self._scopes:
            self._names = None
        else:
            self._names = frozenset().union(*self._scopes)
        self.kernel_enabled = (
            self.enabled
            and self._trace_kernel_events
            and (self._names is None or not self._names.isdisjoint(_KERNEL_NAMES))
        )

    def _next_span_id(self) -> int:
        self._span_counter += 1
        return self._span_counter

    # -- emission ---------------------------------------------------------
    def publish(self, record) -> None:
        """Deliver one record to every subscriber."""
        for subscriber in self._subscribers:
            subscriber(record)

    def wants(self, name: str) -> bool:
        """Whether a record called ``name`` would reach a subscriber.

        For a hot path whose attrs cost more to build than this call
        (the heartbeat probe record).  Callers test :attr:`enabled`
        first, so a disabled bus costs no call.
        """
        return self._names is None or name in self._names

    def counter(self, name: str, value: float = 1.0, **attrs) -> None:
        """Record a monotonic increment of ``value`` on ``name``."""
        if not self.enabled or (self._names is not None and name not in self._names):
            return
        self.publish(CounterRecord(name=name, time=self.sim.now, value=value, attrs=attrs))

    def gauge(self, name: str, value: float, **attrs) -> None:
        """Record an instantaneous sample of ``name``."""
        if not self.enabled or (self._names is not None and name not in self._names):
            return
        self.publish(GaugeRecord(name=name, time=self.sim.now, value=value, attrs=attrs))

    def span(self, name: str, parent=None, **attrs):
        """Open a span at the current simulated time.

        Returns :data:`NULL_SPAN` when no subscriber wants ``name``, so
        callers hold the same API either way and never test the flag
        themselves.  ``parent`` is another span (real or null); its id
        links the records into a tree.
        """
        if not self.enabled or (self._names is not None and name not in self._names):
            return NULL_SPAN
        parent_id = parent.span_id if parent is not None else None
        return Span(self, name, parent_id, attrs)

    def __repr__(self) -> str:
        return (
            f"<TelemetryBus subscribers={len(self._subscribers)} "
            f"enabled={self.enabled} kernel={self.kernel_enabled}>"
        )
