"""Trace-driven workload replay."""

import pytest

from repro.hardware.units import GIB
from repro.simkernel import Simulation
from repro.vm import VirtualMachine
from repro.workloads import TraceSample, TraceWorkload, load_trace, parse_trace

TRACE_TEXT = """
# duration  ops  touches  wss_pages
10          1000 500      10000
5           4000 2000     50000   # burst
20          100  50       1000
"""


class TestParsing:
    def test_parse_with_comments_and_blanks(self):
        samples = parse_trace(TRACE_TEXT)
        assert len(samples) == 3
        assert samples[0] == TraceSample(10, 1000, 500, 10000)
        assert samples[1].ops_per_s == 4000

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_trace("10 20 30")

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            parse_trace("0 1 1 1")  # zero duration
        with pytest.raises(ValueError):
            parse_trace("1 -5 1 1")  # negative rate
        with pytest.raises(ValueError):
            parse_trace("1 1 1 0")  # empty working set

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            parse_trace("# nothing here\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(TRACE_TEXT)
        assert len(load_trace(path)) == 3


class TestReplay:
    @pytest.fixture
    def env(self):
        sim = Simulation(seed=0)
        vm = VirtualMachine(sim, "g", vcpus=2, memory_bytes=GIB)
        vm.start()
        return sim, vm

    def test_sample_schedule(self, env):
        sim, vm = env
        workload = TraceWorkload(sim, vm, parse_trace(TRACE_TEXT))
        workload.start()
        assert workload.current_sample().ops_per_s == 1000
        sim.run(until=12.0)
        assert workload.current_sample().ops_per_s == 4000
        sim.run(until=20.0)
        assert workload.current_sample().ops_per_s == 100
        sim.run(until=500.0)  # last sample repeats
        assert workload.current_sample().ops_per_s == 100

    def test_progress_follows_trace_rates(self, env):
        sim, vm = env
        workload = TraceWorkload(sim, vm, parse_trace(TRACE_TEXT))
        workload.start()
        sim.run(until=10.0)
        phase1_ops = workload.ops_completed
        assert phase1_ops == pytest.approx(10_000, rel=0.05)
        sim.run(until=15.0)
        assert workload.ops_completed - phase1_ops == pytest.approx(
            20_000, rel=0.05
        )

    def test_dirtying_follows_trace(self, env):
        sim, vm = env
        workload = TraceWorkload(
            sim, vm, [TraceSample(10, 0, 1000, 50_000)]
        )
        workload.start()
        sim.run(until=5.0)
        dirty = vm.dirty_snapshot().unique_dirty_pages()
        assert dirty == pytest.approx(5000, rel=0.1)

    def test_total_duration(self, env):
        sim, vm = env
        workload = TraceWorkload(sim, vm, parse_trace(TRACE_TEXT))
        assert workload.total_trace_duration == 35.0

    def test_empty_trace_rejected(self, env):
        sim, vm = env
        with pytest.raises(ValueError):
            TraceWorkload(sim, vm, [])

    def test_under_replication(self, env):
        """Traces drive protected VMs like any other workload."""
        from repro.hardware import build_testbed
        from repro.hypervisor import KvmHypervisor, XenHypervisor
        from repro.replication import EngineRecipe, here_engine

        sim = Simulation(seed=4)
        testbed = build_testbed(sim)
        xen = XenHypervisor(sim, testbed.primary)
        kvm = KvmHypervisor(sim, testbed.secondary)
        vm = xen.create_vm("t", vcpus=2, memory_bytes=GIB)
        vm.start()
        TraceWorkload(
            sim, vm,
            [TraceSample(30, 1000, 3000, 100_000),
             TraceSample(30, 1000, 15_000, 200_000)],
        ).start()
        engine = here_engine(
            sim, xen, kvm, testbed.interconnect,
            EngineRecipe(
                target_degradation=0.3, t_max=10.0, sigma=0.5,
                initial_period=1.0,
            ),
        )
        engine.start("t")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 50.0)
        stats = engine.stats
        assert stats.checkpoint_count > 5
        # The burst phase dirties more per checkpoint.
        pauses = [c.pause_duration for c in stats.checkpoints]
        assert max(pauses) > 2 * min(pauses)
