"""Protecting several VMs over one interconnect (data-center reality).

A replication host pair rarely protects a single VM.  Multiple engines
share the Omni-Path link; the fair-share link model makes their
checkpoint transfers contend, and a failure takes *all* protected VMs
to the secondary.
"""

import pytest

from repro.hardware import GIB, build_testbed
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.replication import EngineRecipe, here_engine
from repro.simkernel import Simulation
from repro.workloads import MemoryMicrobenchmark


def build_fleet(n_vms, seed=17, load=0.3, memory_gib=2):
    sim = Simulation(seed=seed)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    kvm = KvmHypervisor(sim, testbed.secondary)
    engines = []
    for index in range(n_vms):
        name = f"vm-{index}"
        vm = xen.create_vm(name, vcpus=4, memory_bytes=int(memory_gib * GIB))
        vm.start()
        MemoryMicrobenchmark(sim, vm, load=load, name=f"wl-{index}").start()
        engine = here_engine(
            sim, xen, kvm, testbed.interconnect,
            EngineRecipe(target_degradation=0.0, t_max=4.0),
            name=f"here-{index}",
        )
        engine.start(name)
        engines.append(engine)
    return sim, testbed, xen, kvm, engines


class TestFleetProtection:
    def test_three_vms_replicate_concurrently(self):
        sim, _tb, _xen, kvm, engines = build_fleet(3)
        for engine in engines:
            sim.run_until_triggered(engine.ready, limit=1e5)
        sim.run(until=sim.now + 30.0)
        for engine in engines:
            assert engine.stats.checkpoint_count >= 3
            assert engine.replica_session.has_consistent_state
        assert sorted(kvm.vms) == ["vm-0", "vm-1", "vm-2"]

    def test_memory_accounting_is_per_engine(self):
        sim, testbed, _xen, _kvm, engines = build_fleet(2)
        for engine in engines:
            sim.run_until_triggered(engine.ready, limit=1e5)
        breakdown = testbed.primary.memory_accounting.breakdown()
        assert any(label.startswith("here-0:") for label in breakdown)
        assert any(label.startswith("here-1:") for label in breakdown)

    def test_interconnect_contention_slows_checkpoints(self):
        """Fair sharing: three concurrent seedings split the bulk rate."""
        sim_solo, _t, _x, _k, solo_engines = build_fleet(1)
        sim_solo.run_until_triggered(solo_engines[0].ready, limit=1e5)
        solo_seed_time = solo_engines[0].stats.seeding_duration

        sim_fleet, _t2, _x2, _k2, fleet_engines = build_fleet(3)
        for engine in fleet_engines:
            sim_fleet.run_until_triggered(engine.ready, limit=1e5)
        fleet_seed_times = [
            engine.stats.seeding_duration for engine in fleet_engines
        ]
        # Seeding is CPU-rate bound per engine here, so contention shows
        # at the wire only when the link saturates; at minimum the fleet
        # must not be *faster* than the solo engine.
        assert min(fleet_seed_times) >= solo_seed_time * 0.95

    def test_host_failure_fails_over_every_vm(self):
        from repro.replication import FailoverController, HeartbeatMonitor

        sim, testbed, xen, kvm, engines = build_fleet(2)
        for engine in engines:
            sim.run_until_triggered(engine.ready, limit=1e5)
        controllers = []
        for engine in engines:
            monitor = HeartbeatMonitor(
                sim, testbed.primary, xen, testbed.interconnect
            )
            monitor.start()
            controller = FailoverController(sim, engine, monitor)
            controller.arm()
            controllers.append(controller)
        sim.schedule_callback(5.0, lambda: xen.crash("DoS"))
        for controller in controllers:
            sim.run_until_triggered(
                controller.completed, limit=sim.now + 60.0
            )
        for engine in engines:
            assert engine.replica_vm.is_running
            assert engine.replica_vm.device_flavor == "kvm"

    def test_secondary_capacity_enforced(self):
        """Replica shells consume real secondary memory: over-packing
        the secondary is rejected by its memory pool."""
        sim = Simulation(seed=3)
        testbed = build_testbed(sim)
        xen = XenHypervisor(sim, testbed.primary)
        kvm = KvmHypervisor(sim, testbed.secondary)
        usable = testbed.secondary.memory_pool.free_bytes
        big = int(usable * 0.45)
        # The secondary also hosts another tenant: replica capacity is
        # tighter than the primary's.
        testbed.secondary.memory_pool.allocate(
            "other-tenant", int(usable * 0.3)
        )
        vm_a = xen.create_vm("a", memory_bytes=big)
        vm_a.start()
        engine_a = here_engine(
            sim, xen, kvm, testbed.interconnect,
            EngineRecipe(target_degradation=0.0, t_max=5.0),
            name="a-engine",
        )
        engine_a.start("a")
        sim.run_until_triggered(engine_a.ready, limit=1e6)
        vm_b = xen.create_vm("b", memory_bytes=big)
        vm_b.start()
        engine_b = here_engine(
            sim, xen, kvm, testbed.interconnect,
            EngineRecipe(target_degradation=0.0, t_max=5.0),
            name="b-engine",
        )
        engine_b.start("b")
        with pytest.raises(MemoryError):
            sim.run_until_triggered(engine_b.ready, limit=1e6)
