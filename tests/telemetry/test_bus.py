"""The telemetry bus: subscription, emission, spans, disabled path."""

import pytest

from repro.simkernel import Simulation
from repro.telemetry import (
    NULL_SPAN,
    CounterRecord,
    GaugeRecord,
    Recorder,
    SpanRecord,
)


class TestDisabled:
    def test_bus_starts_disabled(self):
        sim = Simulation()
        assert not sim.telemetry.enabled
        assert not sim.telemetry.kernel_enabled

    def test_counter_and_gauge_are_noops(self):
        sim = Simulation()
        sim.telemetry.counter("x", 3.0)
        sim.telemetry.gauge("y", 1.0)
        # Nothing to observe and nothing raised: the disabled path is
        # a single flag check.

    def test_span_returns_the_null_singleton(self):
        sim = Simulation()
        span = sim.telemetry.span("work", job=1)
        assert span is NULL_SPAN
        assert span.annotate(more=2) is span
        assert span.end(done=True) is None

    def test_unsubscribe_disables_again(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry)
        assert sim.telemetry.enabled
        sim.telemetry.unsubscribe(recorder)
        assert not sim.telemetry.enabled
        sim.telemetry.counter("x")
        assert len(recorder) == 0

    def test_unsubscribe_unknown_is_ignored(self):
        sim = Simulation()
        sim.telemetry.unsubscribe(lambda record: None)

    def test_kernel_flag_needs_both(self):
        sim = Simulation()
        sim.telemetry.trace_kernel_events = True
        assert not sim.telemetry.kernel_enabled
        recorder = Recorder.attach(sim.telemetry)
        assert sim.telemetry.kernel_enabled
        sim.telemetry.trace_kernel_events = False
        assert not sim.telemetry.kernel_enabled
        assert recorder is not None

    def test_subscriber_must_be_callable(self):
        sim = Simulation()
        with pytest.raises(TypeError):
            sim.telemetry.subscribe("not callable")


class TestEmission:
    def test_counter_record(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry)
        sim.telemetry.counter("pkts", 4.0, port=80)
        [record] = recorder.counters("pkts")
        assert isinstance(record, CounterRecord)
        assert record.time == sim.now
        assert record.value == 4.0
        assert record.attrs == {"port": 80}

    def test_gauge_record(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry)
        sim.telemetry.gauge("depth", 17.0, queue="rx")
        [record] = recorder.gauges("depth")
        assert isinstance(record, GaugeRecord)
        assert record.value == 17.0

    def test_counter_default_increment_is_one(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry)
        sim.telemetry.counter("ticks")
        sim.telemetry.counter("ticks")
        assert recorder.counter_total("ticks") == 2.0

    def test_fanout_to_every_subscriber(self):
        sim = Simulation()
        first = Recorder.attach(sim.telemetry)
        second = Recorder.attach(sim.telemetry)
        sim.telemetry.counter("x")
        assert len(first) == len(second) == 1


class TestSpans:
    def test_span_measures_simulated_time(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry)
        span = sim.telemetry.span("work", job=1)

        def proc():
            yield sim.timeout(2.5)
            span.end(done=True)

        sim.process(proc())
        sim.run()
        [record] = recorder.spans("work")
        assert isinstance(record, SpanRecord)
        assert record.started_at == 0.0
        assert record.ended_at == 2.5
        assert record.duration == 2.5
        assert record.attrs == {"job": 1, "done": True}

    def test_end_is_idempotent(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry)
        span = sim.telemetry.span("once")
        assert span.end() is not None
        assert span.end() is None
        assert len(recorder.spans("once")) == 1

    def test_annotate_merges_attrs(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry)
        span = sim.telemetry.span("job", a=1)
        span.annotate(b=2).annotate(a=3)
        span.end()
        [record] = recorder.spans("job")
        assert record.attrs == {"a": 3, "b": 2}

    def test_parent_links_span_tree(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry)
        parent = sim.telemetry.span("outer")
        child = sim.telemetry.span("inner", parent=parent)
        child.end()
        parent.end()
        [outer] = recorder.spans("outer")
        [inner] = recorder.spans("inner")
        assert inner.parent_id == outer.span_id
        assert recorder.children_of(outer) == [inner]

    def test_span_ids_are_unique(self):
        sim = Simulation()
        Recorder.attach(sim.telemetry)
        spans = [sim.telemetry.span("s") for _ in range(10)]
        ids = {span.span_id for span in spans}
        assert len(ids) == 10


class TestKernelRecords:
    def test_event_counters_behind_opt_in(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry)
        sim.process(_tick(sim))
        sim.run()
        assert recorder.counters("sim.event") == []

        sim2 = Simulation()
        recorder2 = Recorder.attach(sim2.telemetry)
        sim2.telemetry.trace_kernel_events = True
        sim2.process(_tick(sim2))
        sim2.run()
        assert len(recorder2.counters("sim.event")) > 0

    def test_process_spans_behind_opt_in(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry)
        sim.telemetry.trace_kernel_events = True
        sim.process(_tick(sim), name="ticker")
        sim.run()
        [record] = recorder.spans("sim.process", process="ticker")
        assert record.attrs["outcome"] == "ok"
        assert record.duration == 1.0


def _tick(sim):
    yield sim.timeout(1.0)


def _emit_each(bus, names):
    """One counter, gauge and ended span per name."""
    for name in names:
        bus.counter(name)
        bus.gauge(name, 1.0)
        bus.span(name).end()


class TestScopedSubscribers:
    def test_emitted_names_are_the_union_of_the_declared(self):
        sim = Simulation()
        published = []
        sim.telemetry.subscribe(published.append, names={"a"})
        sim.telemetry.subscribe(lambda record: None, names=("b",))
        _emit_each(sim.telemetry, ("a", "b", "c"))
        assert sorted({r.name for r in published}) == ["a", "b"]
        assert len(published) == 6

    def test_one_undeclared_subscriber_takes_everything(self):
        sim = Simulation()
        scoped = Recorder.attach(sim.telemetry, names={"a"})
        published = []
        full = sim.telemetry.subscribe(published.append)
        _emit_each(sim.telemetry, ("a", "c"))
        assert {r.name for r in published} == {"a", "c"}
        # The scoped recorder keeps only its own names either way.
        assert scoped.names() == ["a"]

        sim.telemetry.unsubscribe(full)
        published.clear()
        sim.telemetry.subscribe(published.append, names={"c"})
        _emit_each(sim.telemetry, ("a", "c", "d"))
        assert {r.name for r in published} == {"a", "c"}
        assert len(scoped) == 6

    def test_wants_answers_what_counter_would_publish(self):
        bus = Simulation().telemetry
        assert not bus.wants("a")
        scoped = bus.subscribe(lambda record: None, names={"a"})
        assert bus.wants("a") and not bus.wants("b")
        full = bus.subscribe(lambda record: None)
        assert bus.wants("b")
        bus.unsubscribe(full)
        bus.unsubscribe(scoped)
        assert not bus.wants("a")

    def test_an_undeclared_span_allocates_no_id(self):
        sim = Simulation()
        Recorder.attach(sim.telemetry, names={"kept"})
        assert sim.telemetry.span("dropped") is NULL_SPAN
        parent = sim.telemetry.span("kept")
        assert parent.span_id == 1
        child = sim.telemetry.span("kept", parent=NULL_SPAN)
        assert child.span_id == 2 and child.parent_id is None

    def test_names_must_be_a_collection(self):
        sim = Simulation()
        with pytest.raises(TypeError):
            sim.telemetry.subscribe(lambda record: None, names="sim.event")

    def test_kernel_records_still_need_the_opt_in(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry, names={"sim.event"})
        sim.process(_tick(sim))
        sim.run()
        assert not sim.telemetry.kernel_enabled
        assert recorder.counters("sim.event") == []

        sim2 = Simulation()
        recorder2 = Recorder.attach(sim2.telemetry, names={"sim.event"})
        sim2.telemetry.trace_kernel_events = True
        assert sim2.telemetry.kernel_enabled
        sim2.process(_tick(sim2))
        sim2.run()
        assert len(recorder2.counters("sim.event")) > 0

    def test_kernel_opt_in_without_kernel_names_stays_off(self):
        sim = Simulation()
        Recorder.attach(sim.telemetry, names={"heartbeat.probe"})
        sim.telemetry.trace_kernel_events = True
        assert sim.telemetry.enabled
        assert not sim.telemetry.kernel_enabled
