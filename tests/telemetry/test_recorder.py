"""Recorder queries."""

from repro.simkernel import Simulation
from repro.telemetry import Recorder


def populated():
    sim = Simulation()
    recorder = Recorder.attach(sim.telemetry)
    sim.telemetry.counter("bytes", 10.0, link="a")
    sim.telemetry.counter("bytes", 30.0, link="b")
    sim.telemetry.gauge("depth", 5.0, queue="rx")
    outer = sim.telemetry.span("outer", kind="root")
    inner = sim.telemetry.span("inner", parent=outer)
    inner.end()
    outer.end()
    return recorder


class TestQueries:
    def test_name_filter(self):
        recorder = populated()
        assert len(recorder.counters("bytes")) == 2
        assert recorder.counters("missing") == []

    def test_attr_filter(self):
        recorder = populated()
        [record] = recorder.counters("bytes", link="a")
        assert record.value == 10.0
        assert recorder.counters("bytes", link="zz") == []

    def test_counter_total(self):
        recorder = populated()
        assert recorder.counter_total("bytes") == 40.0
        assert recorder.counter_total("bytes", link="b") == 30.0

    def test_children_of(self):
        recorder = populated()
        [outer] = recorder.spans("outer")
        [inner] = recorder.spans("inner")
        assert recorder.children_of(outer) == [inner]
        assert recorder.children_of(inner) == []

    def test_names_are_distinct_and_sorted(self):
        recorder = populated()
        assert recorder.names() == ["bytes", "depth", "inner", "outer"]

    def test_len_and_clear(self):
        recorder = populated()
        assert len(recorder) == 5
        recorder.clear()
        assert len(recorder) == 0
