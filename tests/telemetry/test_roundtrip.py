"""Acceptance: telemetry reconstructs the engines' own statistics.

The tentpole guarantee of the telemetry bus is *losslessness*: a
checkpoint span opens and closes at the very instants the engine reads
``sim.now`` for its stats fields, so a trace is not an approximation of
a run — it IS the run, and ``ReplicationStats.from_recorder`` /
``MigrationStats.from_recorder`` must reproduce the engines' stats
objects field for field, via a live recorder or a JSONL file.
"""

import pytest

from repro.hardware import GIB, build_testbed
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.migration import MigrationConfig, MigrationEngine, MigrationMode
from repro.migration.stats import MigrationStats
from repro.replication import EngineRecipe, here_engine, remus_engine
from repro.replication.checkpoint import ReplicationStats
from repro.simkernel import Simulation
from repro.telemetry import Recorder, TraceWriter, recorder_from_trace
from repro.workloads import MemoryMicrobenchmark


def build_replication(engine_kind="here", seed=7, **engine_kwargs):
    sim = Simulation(seed=seed)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    if engine_kind == "here":
        secondary = KvmHypervisor(sim, testbed.secondary)
        engine = here_engine(
            sim, xen, secondary, testbed.interconnect,
            EngineRecipe(**engine_kwargs),
        )
    else:
        secondary = XenHypervisor(sim, testbed.secondary)
        engine = remus_engine(
            sim, xen, secondary, testbed.interconnect, **engine_kwargs
        )
    vm = xen.create_vm("protected", vcpus=4, memory_bytes=2 * GIB)
    vm.start()
    MemoryMicrobenchmark(sim, vm, load=0.3).start()
    return sim, engine


def run_protected(sim, engine, duration=30.0):
    """Seed, checkpoint for ``duration``, halt cleanly."""
    engine.start("protected")
    sim.run_until_triggered(engine.ready, limit=1e6)
    sim.run(until=sim.now + duration)
    engine.halt("run complete")
    sim.run(until=sim.now + 1.0)
    assert engine.stats.stopped_at is not None
    return engine.stats


class TestReplicationRoundTrip:
    def test_recorder_reconstructs_stats_exactly(self):
        sim, engine = build_replication(target_degradation=0.3, t_max=5.0)
        recorder = Recorder.attach(sim.telemetry)
        stats = run_protected(sim, engine)
        assert stats.checkpoint_count > 3
        rebuilt = ReplicationStats.from_recorder(recorder)
        assert rebuilt == stats

    def test_jsonl_trace_reconstructs_stats_exactly(self, tmp_path):
        sim, engine = build_replication(target_degradation=0.3, t_max=5.0)
        path = tmp_path / "replication.jsonl"
        writer = TraceWriter(path)
        sim.telemetry.subscribe(writer)
        stats = run_protected(sim, engine)
        writer.close()
        rebuilt = ReplicationStats.from_recorder(recorder_from_trace(path))
        assert rebuilt == stats

    def test_remus_engine_round_trips_too(self):
        sim, engine = build_replication("remus", period=0.5)
        recorder = Recorder.attach(sim.telemetry)
        stats = run_protected(sim, engine)
        assert ReplicationStats.from_recorder(recorder) == stats

    def test_engine_filter_disambiguates(self):
        sim, engine = build_replication(target_degradation=0.0, t_max=5.0)
        recorder = Recorder.attach(sim.telemetry)
        run_protected(sim, engine, duration=15.0)
        rebuilt = ReplicationStats.from_recorder(recorder, engine=engine.name)
        assert rebuilt.engine == engine.name
        with pytest.raises(ValueError):
            ReplicationStats.from_recorder(recorder, engine="no-such-engine")

    def test_no_session_is_an_error(self):
        with pytest.raises(ValueError):
            ReplicationStats.from_recorder(Recorder())


class TestDisabledIsInvisible:
    def test_seeded_run_identical_with_and_without_subscribers(self):
        sim_a, engine_a = build_replication(target_degradation=0.3, t_max=5.0)
        stats_a = run_protected(sim_a, engine_a, duration=20.0)

        sim_b, engine_b = build_replication(target_degradation=0.3, t_max=5.0)
        Recorder.attach(sim_b.telemetry)
        stats_b = run_protected(sim_b, engine_b, duration=20.0)

        # Telemetry never schedules events or perturbs time: the traced
        # run is bit-for-bit the run that would have happened anyway.
        assert stats_a == stats_b
        assert sim_a.now == sim_b.now
        assert sim_a.events_processed == sim_b.events_processed


class TestHeterogeneousTranslation:
    """Satellite: the Xen->KVM path pays for state translation; the
    homogeneous Xen->Xen path must not."""

    def test_heterogeneous_emits_translate_spans_and_charges_cpu(self):
        sim, engine = build_replication("here", target_degradation=0.0, t_max=2.0)
        recorder = Recorder.attach(sim.telemetry)
        stats = run_protected(sim, engine, duration=10.0)
        assert engine.heterogeneous
        translates = recorder.spans("replication.checkpoint.translate")
        # One per checkpoint plus one for the seeding synchronisation.
        assert len(translates) == stats.checkpoint_count + 1
        expected = engine.translator.translation_cost(
            engine.vm.vcpu_count, len(engine.vm.devices)
        )
        for span in translates:
            assert span.duration == pytest.approx(expected)
            assert span.attrs["cpu_seconds"] == pytest.approx(expected)
        # The host CPU accounting carries the same charges.
        charged = sum(
            r.value
            for r in recorder.counters(
                "host.cpu.charge", component="replication"
            )
        )
        assert charged >= len(translates) * expected
        assert engine.primary.host.cpu_accounting.total("replication") == (
            pytest.approx(charged)
        )

    def test_homogeneous_engine_never_translates(self):
        sim, engine = build_replication("remus", period=0.5)
        recorder = Recorder.attach(sim.telemetry)
        stats = run_protected(sim, engine, duration=10.0)
        assert not engine.heterogeneous
        assert stats.checkpoint_count > 3
        assert recorder.spans("replication.checkpoint.translate") == []


class TestMigrationRoundTrip:
    def build(self, mode=MigrationMode.HERE):
        sim = Simulation(seed=3)
        testbed = build_testbed(sim)
        xen = XenHypervisor(sim, testbed.primary)
        if mode is MigrationMode.HERE:
            destination = KvmHypervisor(sim, testbed.secondary)
        else:
            destination = XenHypervisor(sim, testbed.secondary)
        vm = xen.create_vm("guest", vcpus=4, memory_bytes=2 * GIB)
        vm.start()
        MemoryMicrobenchmark(sim, vm, load=0.3).start()
        engine = MigrationEngine(
            sim, xen, destination, testbed.interconnect,
            config=MigrationConfig(mode=mode),
        )
        return sim, engine

    def test_recorder_reconstructs_migration_stats(self):
        sim, engine = self.build()
        recorder = Recorder.attach(sim.telemetry)
        process = sim.process(engine.migrate("guest"))
        stats = sim.run_until_triggered(process, limit=1e6)
        assert stats.succeeded
        assert stats.iteration_count >= 1
        assert MigrationStats.from_recorder(recorder) == stats

    def test_jsonl_trace_reconstructs_migration_stats(self, tmp_path):
        sim, engine = self.build(MigrationMode.XEN_DEFAULT)
        path = tmp_path / "migration.jsonl"
        writer = TraceWriter(path)
        sim.telemetry.subscribe(writer)
        process = sim.process(engine.migrate("guest"))
        stats = sim.run_until_triggered(process, limit=1e6)
        writer.close()
        rebuilt = MigrationStats.from_recorder(recorder_from_trace(path))
        assert rebuilt == stats
