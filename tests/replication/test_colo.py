"""The COLO lock-stepping baseline (§3.1)."""

import pytest

from repro.hardware import GIB, build_testbed
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.replication import ColoEngine, HeterogeneousLockstepError, colo_engine
from repro.simkernel import Simulation
from repro.workloads import MemoryMicrobenchmark


def build(secondary_flavor="xen", seed=9, **engine_kwargs):
    sim = Simulation(seed=seed)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    if secondary_flavor == "xen":
        secondary = XenHypervisor(sim, testbed.secondary)
    else:
        secondary = KvmHypervisor(sim, testbed.secondary)
    vm = xen.create_vm("protected", vcpus=4, memory_bytes=2 * GIB)
    vm.start()
    MemoryMicrobenchmark(sim, vm, load=0.2).start()
    engine = ColoEngine(
        sim, xen, secondary, testbed.interconnect, **engine_kwargs
    )
    return sim, xen, secondary, vm, engine


class TestConstruction:
    def test_heterogeneous_pair_rejected_by_default(self):
        with pytest.raises(HeterogeneousLockstepError):
            build(secondary_flavor="kvm")

    def test_heterogeneous_pair_allowed_explicitly(self):
        sim, _x, _k, _vm, engine = build(
            secondary_flavor="kvm", allow_heterogeneous=True
        )
        assert engine.heterogeneous
        assert engine.divergence_probability > 0.5

    def test_homogeneous_divergence_is_rare(self):
        _sim, _x, _s, _vm, engine = build()
        assert engine.divergence_probability < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            build(comparison_interval=0.0)
        with pytest.raises(ValueError):
            build(divergence_probability=1.5)

    def test_nan_comparison_interval_rejected(self):
        with pytest.raises(ValueError, match="comparison interval"):
            build(comparison_interval=float("nan"))

    def test_factory_is_homogeneous_only(self):
        sim = Simulation(seed=1)
        testbed = build_testbed(sim)
        xen = XenHypervisor(sim, testbed.primary)
        kvm = KvmHypervisor(sim, testbed.secondary)
        with pytest.raises(HeterogeneousLockstepError):
            colo_engine(sim, xen, kvm, testbed.interconnect)


class TestLockstepExecution:
    def test_both_sides_execute(self):
        sim, _x, secondary, vm, engine = build()
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        assert vm.is_running
        assert engine.replica_vm.is_running  # the LSR difference vs ASR

    def test_comparisons_accumulate(self):
        sim, _x, _s, _vm, engine = build()
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 10.0)
        stats = engine.stats
        assert stats.comparison_count > 100
        # Divergence rate near the configured homogeneous probability.
        assert 0.0 <= stats.divergence_rate < 0.1

    def test_divergence_forces_synchronisation(self):
        sim, _x, _s, _vm, engine = build(divergence_probability=1.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 5.0)
        stats = engine.stats
        assert stats.divergence_count == stats.comparison_count
        assert stats.total_sync_time() > 0
        assert all(
            record.sync_duration > 0 for record in stats.comparisons
        )

    def test_no_divergence_means_no_syncs(self):
        sim, _x, _s, vm, engine = build(divergence_probability=0.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        pauses_before = vm.pause_count
        sim.run(until=sim.now + 10.0)
        assert engine.stats.divergence_count == 0
        assert vm.pause_count == pauses_before  # never paused again

    def test_output_released_at_comparison_granularity(self):
        """The LSR selling point: latency ~ comparison interval."""
        sim, _x, _s, vm, engine = build(
            divergence_probability=0.0, comparison_interval=0.02
        )
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        from repro.net import ServiceConnection
        from repro.hardware import Link, ethernet_x710

        link = Link(sim, ethernet_x710())
        connection = ServiceConnection(
            sim, vm, link, engine.device_manager.egress
        )
        request = sim.process(connection.request())
        latency = sim.run_until_triggered(request, limit=sim.now + 5.0)
        assert latency < 0.05  # ~one comparison interval, not a period

    def test_primary_crash_stops_engine(self):
        sim, xen, _s, _vm, engine = build()
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.schedule_callback(2.0, lambda: xen.crash("DoS"))
        sim.run(until=sim.now + 10.0)
        assert not engine.is_active
        assert "crashed" in engine.stats.stop_reason

    def test_halt_resumes_vm(self):
        sim, _x, _s, vm, engine = build()
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 3.0)
        engine.halt("operator")
        sim.run(until=sim.now + 2.0)
        assert vm.is_running
        assert not engine.device_manager.egress.buffering


class TestTelemetry:
    def test_traced_run_records_comparisons_and_divergences(self):
        sim, _x, _s, _vm, engine = build(divergence_probability=1.0)
        from repro.telemetry import Recorder

        recorder = Recorder()
        sim.telemetry.subscribe(recorder)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 3.0)
        engine.halt("done")
        sim.run(until=sim.now + 1.0)
        stats = engine.stats
        assert recorder.records  # the PR-1 gap: COLO traces were empty
        session = recorder.spans("colo.session")[0]
        assert session.attrs["comparisons"] == stats.comparison_count
        assert session.attrs["divergences"] == stats.divergence_count
        comparisons = [
            r for r in recorder.records if r.name == "colo.comparison"
        ]
        assert len(comparisons) == stats.comparison_count
        divergences = [
            r for r in recorder.records if r.name == "colo.divergence"
        ]
        assert len(divergences) == stats.divergence_count
        sync_bytes = sum(
            r.value for r in recorder.records if r.name == "colo.bytes_sent"
        )
        assert sync_bytes > 0
        assert len(recorder.spans("colo.sync")) == stats.divergence_count

    def test_syncs_run_through_pipeline_stages(self):
        sim, _x, _s, _vm, engine = build(divergence_probability=1.0)
        from repro.telemetry import Recorder

        recorder = Recorder()
        sim.telemetry.subscribe(recorder)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 2.0)
        stage_spans = recorder.spans("pipeline.stage")
        assert stage_spans
        pipelines = {span.attrs["pipeline"] for span in stage_spans}
        assert pipelines == {"colo-seed", "colo-sync"}
        sync_stages = [
            span.attrs["stage"]
            for span in stage_spans
            if span.attrs["pipeline"] == "colo-sync"
        ]
        # Homogeneous pair: the sync lineup carries no translate stage.
        assert "translate" not in sync_stages
        assert "transfer" in sync_stages

    def test_untraced_run_is_bit_identical(self):
        def run(traced):
            sim, _x, _s, _vm, engine = build(seed=13)
            if traced:
                from repro.telemetry import Recorder

                sim.telemetry.subscribe(Recorder())
            engine.start("protected")
            sim.run_until_triggered(engine.ready)
            sim.run(until=sim.now + 8.0)
            return (
                sim.now,
                engine.stats.comparison_count,
                engine.stats.divergence_count,
                engine.stats.total_sync_time(),
            )

        assert run(traced=False) == run(traced=True)


class TestHeterogeneousCollapse:
    def test_heterogeneous_lockstep_degenerates(self):
        """The paper's §5.4 argument, measured: a heterogeneous pair
        diverges nearly every comparison, so lock-stepping degenerates
        into continuous checkpointing."""
        sim, _x, _s, vm, engine = build(
            secondary_flavor="kvm", allow_heterogeneous=True
        )
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 10.0)
        stats = engine.stats
        assert stats.divergence_rate > 0.8
        # The VM spends a large share of its life paused in syncs.
        assert vm.degradation() > 0.1
