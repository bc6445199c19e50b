"""PML-ring-driven seeding: per-vCPU logs and the overflow fallback."""

import pytest

from repro.hardware import GIB, build_testbed
from repro.hardware.host import HostFailure
from repro.hypervisor import XenHypervisor
from repro.migration import iterative_precopy
from repro.simkernel import Simulation
from repro.workloads import MemoryMicrobenchmark


def build(pml_capacity=1_000_000, load=0.4, seed=5):
    sim = Simulation(seed=seed)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    vm = xen.create_vm(
        "vm", vcpus=4, memory_bytes=2 * GIB, pml_ring_capacity=pml_capacity
    )
    vm.start()
    MemoryMicrobenchmark(sim, vm, load=load).start()
    return sim, testbed, xen, vm


def run_precopy(sim, testbed, xen, vm, **kwargs):
    process = sim.process(
        iterative_precopy(
            sim, xen, vm, testbed.interconnect.forward,
            xen.host.cost_model, threads=4, use_per_vcpu_rings=True,
            **kwargs,
        )
    )
    return sim.run_until_triggered(process, limit=1e6)


class TestRingDrivenSeeding:
    def test_no_overflow_with_roomy_rings(self):
        sim, testbed, xen, vm = build(pml_capacity=1_000_000)
        result = run_precopy(sim, testbed, xen, vm)
        assert result.ring_overflows == 0
        assert len(result.iterations) >= 2

    def test_ring_estimates_agree_with_bitmap(self):
        """Per-vCPU ring sums must track the shared bitmap's union
        (up to the double-counting of problematic pages)."""
        sim, testbed, xen, vm = build()
        result = run_precopy(sim, testbed, xen, vm)
        for record in result.iterations[1:]:
            # Pages sent (ring-driven, with duplicates) is at least the
            # union that was dirty, and not wildly more.
            produced_before = result.iterations[
                result.iterations.index(record) - 1
            ].dirty_pages_produced
            assert record.pages_sent >= produced_before * 0.95
            assert record.pages_sent <= produced_before * 4.0

    def test_tiny_rings_overflow_and_fall_back(self):
        sim, testbed, xen, vm = build(pml_capacity=64)
        result = run_precopy(sim, testbed, xen, vm)
        assert result.ring_overflows > 0
        # The migration still converges correctly via the bitmap path.
        assert result.iterations[-1].dirty_pages_produced < 1e6

    def test_overflow_fallback_changes_transfer_shape(self):
        """With healthy rings each thread sends its vCPU's own set —
        overlaps go out several times (pages_sent >= union).  After an
        overflow the threads walk the shared bitmap instead: duplicates
        disappear but every thread pays the scan."""
        sim_a, tb_a, xen_a, vm_a = build(pml_capacity=1_000_000)
        healthy = run_precopy(sim_a, tb_a, xen_a, vm_a)
        sim_b, tb_b, xen_b, vm_b = build(pml_capacity=64)
        overflowing = run_precopy(sim_b, tb_b, xen_b, vm_b)
        assert healthy.ring_overflows == 0
        assert overflowing.ring_overflows > 0
        # Ring path: duplicates inflate pages_sent above the union that
        # was dirty at the start of the iteration.
        union = healthy.iterations[0].dirty_pages_produced
        assert healthy.iterations[1].pages_sent > union * 1.01
        # Bitmap fallback: at most the union is sent.
        union_b = overflowing.iterations[0].dirty_pages_produced
        assert overflowing.iterations[1].pages_sent <= union_b * 1.01

    def test_rings_rearmed_between_iterations(self):
        sim, testbed, xen, vm = build(pml_capacity=1_000_000)
        run_precopy(sim, testbed, xen, vm)
        # After pre-copy, rings are drained and usable.
        for ring in vm.pml_rings.values():
            assert not ring.overflowed
            assert len(ring) == 0 or ring.fill < 1.0


class TestLogDirtyWindow:
    """The rings log only while a pre-copy has dirty logging armed."""

    def test_armed_only_during_precopy(self):
        sim, testbed, xen, vm = build()
        seen = []
        sim.schedule_callback(1.0, lambda: seen.append(vm.dirty_logging_armed))
        assert not vm.dirty_logging_armed
        run_precopy(sim, testbed, xen, vm)
        assert seen == [True]
        assert not vm.dirty_logging_armed
        # Back out of log-dirty mode: the workload's writes reach the
        # shared log only.
        sim.run(until=sim.now + 1.0)
        assert all(len(ring) == 0 for ring in vm.pml_rings.values())
        assert not vm.dirty_log.is_clean()

    def test_source_failure_mid_pass_disarms(self):
        sim, testbed, xen, vm = build()
        seen = []

        def fail_source():
            seen.append(vm.dirty_logging_armed)
            testbed.primary.fail("power cut mid-pass")

        # The first (bulk) pass of 2 GiB takes over two seconds.
        sim.schedule_callback(1.0, fail_source)
        with pytest.raises(HostFailure):
            run_precopy(sim, testbed, xen, vm)
        assert seen == [True]
        assert not vm.dirty_logging_armed
