"""YCSB, SPEC and Sockperf workloads."""

import pytest

from repro.hardware import GIB, Link, build_testbed, ethernet_x710
from repro.net import EgressBuffer
from repro.simkernel import Simulation
from repro.vm import VirtualMachine
from repro.workloads import (
    CORE_WORKLOADS,
    SOCKPERF_LOADS,
    SPEC_PROFILES,
    SockperfClient,
    SockperfConfig,
    SockperfServerWorkload,
    SpecWorkload,
    YcsbMix,
    YcsbWorkload,
)


@pytest.fixture
def env():
    sim = Simulation(seed=0)
    vm = VirtualMachine(sim, "g", vcpus=4, memory_bytes=8 * GIB)
    vm.start()
    return sim, vm


class TestYcsbMixes:
    def test_all_six_core_workloads_defined(self):
        assert sorted(CORE_WORKLOADS) == ["a", "b", "c", "d", "e", "f"]

    def test_proportions_sum_to_one(self):
        for mix in CORE_WORKLOADS.values():
            total = mix.read + mix.update + mix.insert + mix.scan + mix.rmw
            assert total == pytest.approx(1.0)

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            YcsbMix("bad", read=0.5, update=0.6)

    def test_update_heavy_mix_dirties_more(self):
        assert (
            CORE_WORKLOADS["a"].touches_per_op()
            > CORE_WORKLOADS["c"].touches_per_op()
        )


class TestYcsbWorkload:
    def test_executes_real_sampled_operations(self, env):
        sim, vm = env
        workload = YcsbWorkload(
            sim, vm, mix="a", sample_fraction=1e-3, preload_records=500
        )
        workload.start()
        sim.run(until=10.0)
        assert workload.real_ops_executed > 50
        assert workload.store.reads > 0
        assert workload.store.writes > 500  # preload + sampled updates

    def test_modelled_throughput_near_baseline_unreplicated(self, env):
        sim, vm = env
        workload = YcsbWorkload(sim, vm, mix="a", preload_records=200)
        workload.start()
        sim.run(until=10.0)
        assert workload.throughput() == pytest.approx(
            CORE_WORKLOADS["a"].baseline_ops_per_s, rel=0.05
        )

    def test_scan_workload_runs_scans(self, env):
        sim, vm = env
        workload = YcsbWorkload(
            sim, vm, mix="e", sample_fraction=2e-3, preload_records=300
        )
        workload.start()
        sim.run(until=10.0)
        assert workload.store.scans > 0

    def test_insert_workload_grows_store(self, env):
        sim, vm = env
        workload = YcsbWorkload(
            sim, vm, mix="d", sample_fraction=5e-3, preload_records=100
        )
        workload.start()
        sim.run(until=10.0)
        assert workload._insert_cursor > 100

    def test_unknown_mix_rejected(self, env):
        sim, vm = env
        with pytest.raises(KeyError):
            YcsbWorkload(sim, vm, mix="z")

    def test_sample_fraction_validation(self, env):
        sim, vm = env
        with pytest.raises(ValueError):
            YcsbWorkload(sim, vm, mix="a", sample_fraction=0.0)

    def test_working_set_reflects_record_count(self, env):
        sim, vm = env
        small = YcsbWorkload(sim, vm, mix="a", record_count=10_000, name="s")
        large = YcsbWorkload(sim, vm, mix="b", record_count=1_000_000, name="l")
        assert large.working_set_pages() > small.working_set_pages()

    def test_deterministic_across_runs(self):
        def run(seed):
            sim = Simulation(seed=seed)
            vm = VirtualMachine(sim, "g", vcpus=4, memory_bytes=2 * GIB)
            vm.start()
            workload = YcsbWorkload(
                sim, vm, mix="a", sample_fraction=1e-3, preload_records=100
            )
            workload.start()
            sim.run(until=5.0)
            return (
                workload.real_ops_executed,
                workload.store.bytes_written_wal,
            )

        assert run(3) == run(3)


class TestSpecProfiles:
    def test_four_paper_benchmarks_present(self):
        assert sorted(SPEC_PROFILES) == ["cactuBSSN", "gcc", "lbm", "namd"]

    def test_cactu_is_dirtiest(self):
        rates = {name: p.touch_rate for name, p in SPEC_PROFILES.items()}
        assert max(rates, key=rates.get) == "cactuBSSN"

    def test_spec_workload_progresses(self, env):
        sim, vm = env
        workload = SpecWorkload(sim, vm, benchmark="gcc")
        workload.start()
        sim.run(until=10.0)
        assert workload.throughput() == pytest.approx(
            SPEC_PROFILES["gcc"].baseline_ops_per_s, rel=0.05
        )

    def test_unknown_benchmark_rejected(self, env):
        sim, vm = env
        with pytest.raises(KeyError):
            SpecWorkload(sim, vm, benchmark="perlbench")


class TestSockperf:
    def test_three_paper_loads(self):
        assert SOCKPERF_LOADS == {"load a": 64, "load b": 1400, "load c": 8900}

    def test_unknown_load_rejected(self):
        with pytest.raises(KeyError):
            SockperfConfig(load="load z").packet_bytes()

    def test_unreplicated_latency_is_microseconds(self, env):
        sim, vm = env
        SockperfServerWorkload(sim, vm).start()
        link = Link(sim, ethernet_x710())
        egress = EgressBuffer(sim)  # passthrough
        client = SockperfClient(
            sim, vm, link, egress,
            SockperfConfig(load="load a", rate_per_s=100, duration=5.0),
        )
        client.start()
        sim.run(until=7.0)
        assert len(client.latency) > 300
        assert client.latency.mean() < 1e-3

    def test_buffered_latency_is_checkpoint_bound(self, env):
        sim, vm = env
        SockperfServerWorkload(sim, vm).start()
        link = Link(sim, ethernet_x710())
        egress = EgressBuffer(sim, buffering=True)
        client = SockperfClient(
            sim, vm, link, egress,
            SockperfConfig(load="load b", rate_per_s=100, duration=5.0),
        )
        client.start()

        def checkpointer():
            # Commit an epoch every second, Remus-style.
            while True:
                yield sim.timeout(1.0)
                egress.release_through(egress.seal_epoch())

        sim.process(checkpointer())
        sim.run(until=8.0)
        assert client.latency.mean() > 0.2  # ~T/2 for T=1
