"""The migration engine end to end."""

import pytest

from repro.hardware import GIB, build_testbed
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.integrity import vcpu_leaf
from repro.migration import MigrationConfig, MigrationEngine, MigrationMode
from repro.simkernel import Simulation
from repro.workloads import IdleWorkload, MemoryMicrobenchmark


def build(mode, load=0.0, size_gib=2, destination="kvm", seed=3):
    sim = Simulation(seed=seed)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    if destination == "kvm":
        dest = KvmHypervisor(sim, testbed.secondary)
    else:
        dest = XenHypervisor(sim, testbed.secondary)
    vm = xen.create_vm("vm", vcpus=4, memory_bytes=int(size_gib * GIB))
    vm.start()
    if load > 0:
        MemoryMicrobenchmark(sim, vm, load=load).start()
    else:
        IdleWorkload(sim, vm).start()
    engine = MigrationEngine(
        sim, xen, dest, testbed.interconnect, config=MigrationConfig(mode=mode)
    )
    return sim, xen, dest, vm, engine


def migrate(sim, engine, name="vm"):
    process = sim.process(engine.migrate(name))
    return sim.run_until_triggered(process, limit=10_000)


class TestBasicMigration:
    def test_idle_migration_succeeds(self):
        sim, xen, dest, vm, engine = build(MigrationMode.XEN_DEFAULT)
        stats = migrate(sim, engine)
        assert stats.succeeded
        assert stats.failure is None
        assert vm.is_running
        assert "vm" in dest.vms
        assert "vm" not in xen.vms

    def test_first_iteration_copies_all_memory(self):
        sim, _xen, _dest, vm, engine = build(MigrationMode.XEN_DEFAULT)
        stats = migrate(sim, engine)
        assert stats.iterations[0].pages_sent == vm.total_pages
        assert stats.iterations[0].bytes_sent == vm.memory_bytes

    def test_iteration_cap_respected_under_load(self):
        sim, _xen, _dest, _vm, engine = build(
            MigrationMode.XEN_DEFAULT, load=0.8, size_gib=4
        )
        stats = migrate(sim, engine)
        assert stats.iteration_count <= 5

    def test_downtime_is_stop_and_copy(self):
        sim, _xen, _dest, _vm, engine = build(MigrationMode.XEN_DEFAULT)
        stats = migrate(sim, engine)
        assert stats.downtime == stats.stop_and_copy_duration
        assert stats.downtime > 0


class TestHeterogeneousMigration:
    def test_state_translated_and_devices_switched(self):
        sim, _xen, dest, vm, engine = build(MigrationMode.HERE, destination="kvm")
        stats = migrate(sim, engine)
        assert stats.translated
        assert vm.device_flavor == "kvm"
        assert {d.model for d in vm.devices} == {
            "virtio-net", "virtio-blk", "virtio-console",
        }

    def test_features_masked_for_target(self):
        sim, xen, dest, vm, engine = build(MigrationMode.HERE, destination="kvm")
        migrate(sim, engine)
        assert vm.enabled_features <= dest.cpuid_features()

    def test_homogeneous_migration_skips_translation(self):
        sim, _xen, _dest, vm, engine = build(
            MigrationMode.XEN_DEFAULT, destination="xen"
        )
        stats = migrate(sim, engine)
        assert not stats.translated
        assert vm.device_flavor == "xen"

    def test_vcpu_state_survives_heterogeneous_transfer(self):
        sim, _xen, _dest, vm, engine = build(MigrationMode.HERE, destination="kvm")
        leaves = [vcpu_leaf(s) for s in vm.vcpu_states]
        migrate(sim, engine)
        assert [vcpu_leaf(s) for s in vm.vcpu_states] == leaves


class TestHereSeeding:
    def test_here_faster_than_xen_under_load(self):
        _s1, _x1, _d1, _v1, xen_engine = build(
            MigrationMode.XEN_DEFAULT, load=0.4, size_gib=8, destination="xen"
        )
        xen_stats = migrate(_s1, xen_engine)
        _s2, _x2, _d2, _v2, here_engine = build(
            MigrationMode.HERE, load=0.4, size_gib=8
        )
        here_stats = migrate(_s2, here_engine)
        assert here_stats.total_duration < xen_stats.total_duration

    def test_problematic_pages_resent(self):
        sim, _xen, _dest, _vm, engine = build(
            MigrationMode.HERE, load=0.5, size_gib=4
        )
        stats = migrate(sim, engine)
        # The microbenchmark writes from all four vCPUs into one
        # working set, so per-vCPU seeding must observe overlap.
        assert stats.problematic_pages_resent > 0
        assert stats.consistency_risk_pages == 0

    def test_disabling_resend_reports_risk(self):
        sim = Simulation(seed=3)
        testbed = build_testbed(sim)
        xen = XenHypervisor(sim, testbed.primary)
        kvm = KvmHypervisor(sim, testbed.secondary)
        vm = xen.create_vm("vm", vcpus=4, memory_bytes=4 * GIB)
        vm.start()
        MemoryMicrobenchmark(sim, vm, load=0.5).start()
        engine = MigrationEngine(
            sim, xen, kvm, testbed.interconnect,
            config=MigrationConfig(
                mode=MigrationMode.HERE, resend_problematic=False
            ),
        )
        stats = migrate(sim, engine)
        assert stats.consistency_risk_pages > 0
        assert stats.problematic_pages_resent == 0


class TestFailureDuringMigration:
    def test_source_crash_aborts_migration(self):
        sim, xen, _dest, _vm, engine = build(MigrationMode.XEN_DEFAULT, size_gib=8)
        sim.schedule_callback(2.0, lambda: xen.crash("mid-migration DoS"))
        stats = migrate(sim, engine)
        assert not stats.succeeded
        assert "crashed" in stats.failure
