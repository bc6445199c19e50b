"""Recorder queries."""

import pytest

from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.hardware.units import GIB
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


class TestScopedRecorder:
    def test_query_for_an_undeclared_name_raises(self):
        sim = Simulation()
        recorder = Recorder.attach(sim.telemetry, names={"bytes"})
        sim.telemetry.counter("bytes", 2.0)
        sim.telemetry.counter("depth", 1.0)
        assert recorder.counter_total("bytes") == 2.0
        assert recorder.names() == ["bytes"]
        for query in (
            recorder.spans, recorder.counters, recorder.gauges,
            recorder.counter_total,
        ):
            with pytest.raises(KeyError, match="depth"):
                query("depth")

    def test_records_equal_a_full_recorders_of_the_same_names(self):
        # Span and parent ids differ (undeclared spans take no id), so
        # records compare on everything else.
        names = {
            "replication.checkpoint", "replication.checkpoint.pause",
            "heartbeat.probe", "link.message", "link.bytes_delivered",
        }

        def run(scope):
            deployment = ProtectedDeployment(DeploymentSpec(
                engine="here", period=1.0, memory_bytes=GIB, seed=4,
            ))
            recorder = Recorder.attach(deployment.sim.telemetry, names=scope)
            deployment.start_protection()
            deployment.run_for(3.0)
            deployment.engine.halt("test over")
            return [
                (type(r).__name__, r.name, _times(r), getattr(r, "value", None),
                 r.attrs)
                for r in recorder.records
                if r.name in names
            ]

        scoped = run(names)
        assert {record[1] for record in scoped} == names
        assert scoped == run(None)


def _times(record):
    if hasattr(record, "started_at"):
        return (record.started_at, record.ended_at)
    return record.time
