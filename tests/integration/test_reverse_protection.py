"""Reverse and symmetric protection: KVM-primary deployments.

HERE's paper implements Xen -> KVM; the architecture is symmetric, and
this repository's translator/engines support the reverse direction
(KVM primary, Xen secondary) as well — which a data center doing
bidirectional protection between heterogeneous racks needs.
"""

import pytest

from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.hardware.units import GIB
from repro.workloads import MemoryMicrobenchmark


def deploy_reverse(seed=13, **kwargs):
    defaults = dict(
        engine="here",
        primary_flavor="kvm",
        secondary_flavor="xen",
        period=3.0,
        target_degradation=0.0,
        memory_bytes=2 * GIB,
        seed=seed,
    )
    defaults.update(kwargs)
    return ProtectedDeployment(DeploymentSpec(**defaults))


class TestKvmToXenReplication:
    def test_reverse_pair_replicates(self):
        deployment = deploy_reverse()
        MemoryMicrobenchmark(deployment.sim, deployment.vm, load=0.3).start()
        deployment.start_protection()
        deployment.run_for(20.0)
        stats = deployment.stats
        assert stats.checkpoint_count >= 3
        assert deployment.engine.heterogeneous
        assert deployment.engine.translator.translations_performed >= 3

    def test_guest_carries_kvm_devices_initially(self):
        deployment = deploy_reverse()
        assert deployment.vm.device_flavor == "kvm"
        assert {d.model for d in deployment.vm.devices} == {
            "virtio-net", "virtio-blk", "virtio-console",
        }

    def test_features_masked_to_xen_compatible_set(self):
        deployment = deploy_reverse()
        deployment.start_protection()
        assert (
            deployment.vm.enabled_features
            <= deployment.secondary.cpuid_features()
        )
        assert "x2apic" not in deployment.vm.enabled_features  # KVM-only

    def test_failover_lands_on_xen_with_xen_devices(self):
        deployment = deploy_reverse()
        MemoryMicrobenchmark(deployment.sim, deployment.vm, load=0.2).start()
        deployment.start_protection()
        deployment.attach_service()
        sim = deployment.sim
        sim.schedule_callback(8.0, lambda: deployment.primary.crash("KVM 0-day"))
        report = sim.run_until_triggered(
            deployment.failover.completed, limit=sim.now + 60.0
        )
        assert report.replica_hypervisor == "Xen"
        assert deployment.replica.is_running
        assert deployment.replica.device_flavor == "xen"
        assert {d.model for d in deployment.replica.devices} == {
            "xen-vif", "xen-vbd", "xen-console",
        }
        # Xen's xl restore path is slower than kvmtool but still fast.
        assert 0.02 < report.resumption_time < 0.2

    def test_replica_state_matches_after_reverse_translation(self):
        deployment = deploy_reverse()
        deployment.start_protection()
        deployment.run_for(10.0)
        primary_states = deployment.vm.vcpu_states
        replica_states = deployment.engine.replica_vm.vcpu_states
        for original, translated in zip(primary_states, replica_states):
            assert original.equivalent_to(translated)


class TestRoundTripProtection:
    def test_failover_then_reprotect_in_reverse(self):
        """After a failover onto KVM, the surviving side can become the
        new primary and protect back toward a rebuilt Xen host —
        replication direction is a deployment choice, not a constraint."""
        from repro.hardware import build_testbed
        from repro.hypervisor import KvmHypervisor, XenHypervisor
        from repro.replication import EngineRecipe, here_engine
        from repro.simkernel import Simulation

        sim = Simulation(seed=21)
        testbed = build_testbed(sim)
        kvm = KvmHypervisor(sim, testbed.primary)
        xen = XenHypervisor(sim, testbed.secondary)
        vm = kvm.create_vm("svc", vcpus=2, memory_bytes=GIB)
        vm.start()
        MemoryMicrobenchmark(sim, vm, load=0.2).start()
        engine = here_engine(
            sim, kvm, xen, testbed.interconnect,
            EngineRecipe(target_degradation=0.0, t_max=2.0),
        )
        engine.start("svc")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 10.0)
        assert engine.stats.checkpoint_count >= 3
        assert engine.replica_session.has_consistent_state
