"""The checkpoint-stream compression model."""

import pytest

from repro.hardware.units import PAGE_SIZE
from repro.replication import LZ_STYLE, XBRLE, CompressionModel


class TestModel:
    def test_wire_bytes_shrink_by_ratio(self):
        assert XBRLE.wire_bytes_per_page == pytest.approx(PAGE_SIZE / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompressionModel(ratio=0.5)
        with pytest.raises(ValueError):
            CompressionModel(cpu_cost_per_page=-1.0)

    def test_breakeven_formula(self):
        # C_link < PAGE / (alpha + kappa)
        breakeven = XBRLE.breakeven_link_capacity(50e-6)
        assert breakeven == pytest.approx(PAGE_SIZE / 56e-6)
        with pytest.raises(ValueError):
            XBRLE.breakeven_link_capacity(-1.0)

    def test_lz_trades_more_cpu_for_more_ratio(self):
        assert LZ_STYLE.ratio > XBRLE.ratio
        assert LZ_STYLE.cpu_cost_per_page > XBRLE.cpu_cost_per_page


class TestEngineIntegration:
    def build(self, compression, link_gbits=0.5):
        from repro.hardware import GIB, Host, LinkPair, MemorySpec, custom_nic
        from repro.hypervisor import KvmHypervisor, XenHypervisor
        from repro.replication import EngineRecipe
        from repro.replication.engine import ReplicationEngine
        from repro.simkernel import Simulation
        from repro.workloads import MemoryMicrobenchmark

        sim = Simulation(seed=7)
        xen = XenHypervisor(
            sim, Host(sim, "p", memory=MemorySpec(total_bytes=64 * GIB))
        )
        kvm = KvmHypervisor(
            sim, Host(sim, "s", memory=MemorySpec(total_bytes=64 * GIB))
        )
        link = LinkPair(sim, custom_nic("l", gbits=link_gbits))
        vm = xen.create_vm("vm", vcpus=4, memory_bytes=2 * GIB)
        vm.start()
        MemoryMicrobenchmark(sim, vm, load=0.4).start()
        config = EngineRecipe(target_degradation=0.0, t_max=3.0).config()
        config.compression = compression
        engine = ReplicationEngine(sim, xen, kvm, link, config)
        engine.start("vm")
        sim.run_until_triggered(engine.ready, limit=1e6)
        sim.run(until=sim.now + 30.0)
        return engine.stats

    def test_compression_helps_on_thin_links(self):
        raw = self.build(None)
        compressed = self.build(XBRLE)
        assert (
            compressed.mean_transfer_duration()
            < 0.7 * raw.mean_transfer_duration()
        )

    def test_stats_report_wire_bytes_not_logical_bytes(self):
        stats = self.build(XBRLE)
        assert stats.checkpoint_count > 0
        for checkpoint in stats.checkpoints:
            assert checkpoint.bytes_sent == pytest.approx(
                checkpoint.dirty_pages * XBRLE.wire_bytes_per_page
            )
            assert checkpoint.bytes_sent < checkpoint.dirty_pages * PAGE_SIZE

    def test_uncompressed_stats_report_full_pages(self):
        stats = self.build(None)
        assert stats.checkpoint_count > 0
        for checkpoint in stats.checkpoints:
            assert checkpoint.bytes_sent == pytest.approx(
                checkpoint.dirty_pages * PAGE_SIZE
            )

    def test_compression_costs_cpu_on_fat_links(self):
        raw = self.build(None, link_gbits=100.0)
        compressed = self.build(XBRLE, link_gbits=100.0)
        assert (
            compressed.mean_transfer_duration()
            > raw.mean_transfer_duration()
        )
