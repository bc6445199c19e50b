"""Xen- and KVM-specific behaviour: extraction, activation."""

import pytest

from repro.hardware import GIB, build_testbed
from repro.hypervisor import (
    IncompatibleGuest,
    KVM_FEATURES,
    KvmHypervisor,
    XEN_FEATURES,
    XenHypervisor,
    available_flavors,
    install,
)
from repro.integrity import vcpu_leaf
from repro.simkernel import Simulation


@pytest.fixture
def setup():
    sim = Simulation(seed=0)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    kvm = KvmHypervisor(sim, testbed.secondary)
    return sim, testbed, xen, kvm


class TestXen:
    def test_dom0_memory_reserved(self, setup):
        _sim, testbed, xen, _kvm = setup
        assert "dom0" in testbed.primary.memory_pool.owners()
        assert xen.dom0.memory_bytes == 10 * GIB

    def test_here_patches_enable_pml_rings(self, setup):
        sim, _tb, xen, _kvm = setup
        assert xen.supports_per_vcpu_dirty_rings()
        testbed2 = build_testbed(sim, "p2", "s2")
        plain = XenHypervisor(sim, testbed2.primary, here_patches=False)
        assert not plain.supports_per_vcpu_dirty_rings()

    def test_extract_produces_xen_format(self, setup):
        _sim, _tb, xen, _kvm = setup
        vm = xen.create_vm("a", vcpus=2, memory_bytes=GIB)
        vm.start()
        vm.pause()
        payload = xen.extract_guest_state(vm)
        assert payload["format"] == xen.state_format
        assert len(payload["hvm_context"]) == 2

    def test_extract_load_round_trip(self, setup):
        _sim, _tb, xen, _kvm = setup
        vm = xen.create_vm("a", vcpus=2, memory_bytes=GIB)
        original = [vcpu_leaf(s) for s in vm.vcpu_states]
        payload = xen.extract_guest_state(vm)
        vm.vcpu_states = []  # wipe
        xen.load_guest_state(vm, payload)
        assert [vcpu_leaf(s) for s in vm.vcpu_states] == original

    def test_load_rejects_foreign_format(self, setup):
        _sim, _tb, xen, kvm = setup
        xen_vm = xen.create_vm("a", vcpus=1, memory_bytes=GIB)
        kvm_vm = kvm.create_vm("a", vcpus=1, memory_bytes=GIB)
        kvm_payload = kvm.extract_guest_state(kvm_vm)
        with pytest.raises(IncompatibleGuest):
            xen.load_guest_state(xen_vm, kvm_payload)

    def test_qemu_device_model_lineage(self, setup):
        _sim, _tb, xen, kvm = setup
        assert xen.device_model_lineage == "qemu"
        assert kvm.device_model_lineage == "kvmtool"


class TestKvm:
    def test_activate_replica_is_fast_and_switches_devices(self, setup):
        sim, _tb, xen, kvm = setup
        # A replica seeded from Xen still carries Xen device models.
        replica = kvm.create_vm("r", vcpus=2, memory_bytes=GIB)
        replica.device_flavor = "xen"
        from repro.vm import standard_pv_devices

        replica.devices = standard_pv_devices("xen")
        start = sim.now
        activate = sim.process(kvm.activate_replica(replica))
        sim.run_until_triggered(activate)
        duration = sim.now - start
        assert replica.is_running
        assert replica.device_flavor == "kvm"
        # kvmtool activation is of the order of 10 ms (Fig. 7).
        assert 0.005 < duration < 0.03

    def test_feature_surfaces_differ(self):
        assert XEN_FEATURES != KVM_FEATURES
        assert XEN_FEATURES & KVM_FEATURES  # but overlap substantially


class TestRegistry:
    def test_known_flavors(self):
        assert available_flavors() == ["kvm", "xen"]

    def test_install(self):
        sim = Simulation()
        testbed = build_testbed(sim)
        hypervisor = install("xen", sim, testbed.primary, here_patches=False)
        assert isinstance(hypervisor, XenHypervisor)
        assert not hypervisor.here_patches

    def test_unknown_flavor(self):
        sim = Simulation()
        testbed = build_testbed(sim)
        with pytest.raises(KeyError):
            install("hyperv", sim, testbed.primary)
