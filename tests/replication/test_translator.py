"""The state translator: Xen <-> KVM payload conversion."""

from types import SimpleNamespace

import pytest

from repro.hardware import GIB, build_testbed
from repro.hypervisor import (
    IncompatibleGuest,
    KvmHypervisor,
    XenHypervisor,
    compatible_featureset,
)
from repro.integrity import vcpu_leaf
from repro.replication import StateTranslator
from repro.simkernel import Simulation
from repro.vm import sample_running_state


@pytest.fixture
def env():
    sim = Simulation(seed=0)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    kvm = KvmHypervisor(sim, testbed.secondary)
    return sim, xen, kvm


@pytest.fixture
def translator():
    return StateTranslator()


class TestFeaturePreparation:
    def test_compatible_features_is_intersection(self, env):
        _sim, xen, kvm = env
        allowed = StateTranslator.compatible_features(xen, kvm)
        assert allowed == xen.cpuid_features() & kvm.cpuid_features()
        assert "mpx" not in allowed  # Xen-only
        assert "x2apic" not in allowed  # KVM-only

    def test_prepare_guest_masks_vm(self, env):
        _sim, xen, kvm = env
        vm = xen.create_vm("g", memory_bytes=GIB)
        assert "mpx" in vm.enabled_features
        masked = StateTranslator.prepare_guest(vm, xen, kvm)
        assert "mpx" not in masked
        assert vm.enabled_features == masked
        assert masked <= kvm.cpuid_features()


class TestTranslation:
    def test_xen_to_kvm_preserves_architecture(self, env, translator):
        _sim, xen, kvm = env
        vm = xen.create_vm("g", vcpus=4, memory_bytes=GIB)
        StateTranslator.prepare_guest(vm, xen, kvm)
        original = [vcpu_leaf(s) for s in vm.vcpu_states]
        payload = xen.extract_guest_state(vm)
        translated = translator.translate(payload, kvm)
        assert translated["format"] == kvm.state_format
        replica = kvm.create_vm("g", vcpus=4, memory_bytes=GIB)
        kvm.load_guest_state(replica, translated)
        assert [vcpu_leaf(s) for s in replica.vcpu_states] == original

    def test_full_round_trip_xen_kvm_xen(self, env, translator):
        _sim, xen, kvm = env
        vm = xen.create_vm("g", vcpus=2, memory_bytes=GIB)
        StateTranslator.prepare_guest(vm, xen, kvm)
        payload = xen.extract_guest_state(vm)
        there = translator.translate(payload, kvm)
        back = translator.translate(there, xen)
        assert back["format"] == xen.state_format
        for original, restored in zip(
            payload["hvm_context"], back["hvm_context"]
        ):
            assert original == restored

    def test_same_format_is_identity(self, env, translator):
        _sim, xen, _kvm = env
        vm = xen.create_vm("g", memory_bytes=GIB)
        payload = xen.extract_guest_state(vm)
        assert translator.translate(payload, xen) is payload

    def test_unmasked_features_rejected(self, env, translator):
        _sim, xen, kvm = env
        vm = xen.create_vm("g", memory_bytes=GIB)  # still has mpx etc.
        payload = xen.extract_guest_state(vm)
        with pytest.raises(IncompatibleGuest):
            translator.translate(payload, kvm)

    def test_unknown_source_format_rejected(self, env, translator):
        _sim, _xen, kvm = env
        with pytest.raises(KeyError):
            translator.translate({"format": "vmware-vmss"}, kvm)

    def test_device_state_crosses_families(self, env, translator):
        _sim, xen, kvm = env
        vm = xen.create_vm("g", memory_bytes=GIB)
        StateTranslator.prepare_guest(vm, xen, kvm)
        payload = xen.extract_guest_state(vm)
        translated = translator.translate(payload, kvm)
        virtio_net = next(
            d for d in translated["virtio_devices"]
            if d["class"] == "network"
        )
        assert virtio_net["config_space"]["mac"] == "00:16:3e:00:00:01"
        assert "_ring_ref" not in virtio_net["config_space"]

    def test_translation_counter(self, env, translator):
        _sim, xen, kvm = env
        vm = xen.create_vm("g", memory_bytes=GIB)
        StateTranslator.prepare_guest(vm, xen, kvm)
        payload = xen.extract_guest_state(vm)
        translator.translate(payload, kvm)
        translator.translate(payload, kvm)
        assert translator.translations_performed == 2


class TestCosts:
    def test_translation_cost_scales(self, translator):
        assert translator.translation_cost(4, 3) > translator.translation_cost(1, 1)
        assert translator.translation_cost(0, 0) == 0.0
        with pytest.raises(ValueError):
            translator.translation_cost(-1, 0)


def _xen_guest(env):
    _sim, xen, kvm = env
    vm = xen.create_vm("g", vcpus=2, memory_bytes=GIB)
    StateTranslator.prepare_guest(vm, xen, kvm)
    return xen.extract_guest_state(vm)


def _unknown_target(env, translator):
    target = SimpleNamespace(state_format="vmware-vmss")
    translator.translate(_xen_guest(env), target)


def _load_foreign_format(flavor):
    def case(env, _translator):
        _sim, xen, kvm = env
        loader, other = (xen, kvm) if flavor == "xen" else (kvm, xen)
        foreign = other.extract_guest_state(
            other.create_vm("src", vcpus=1, memory_bytes=GIB)
        )
        loader.load_guest_state(
            loader.create_vm("dst", vcpus=1, memory_bytes=GIB), foreign
        )
    return case


def _load_unexposable_feature(flavor):
    def case(env, _translator):
        _sim, xen, kvm = env
        loader, other = (xen, kvm) if flavor == "xen" else (kvm, xen)
        vm = loader.create_vm("g", vcpus=1, memory_bytes=GIB)
        codec = loader.formats
        vcpus, devices, features, pages = codec.unpack(
            loader.extract_guest_state(vm)
        )
        alien = other.cpuid_features() - loader.cpuid_features()
        assert alien
        loader.load_guest_state(
            vm, codec.pack(vcpus, devices, features | alien, pages)
        )
    return case


ERROR_CASES = {
    "parse-unknown-format": (
        KeyError,
        lambda env, t: t.parse({"format": "vmware-vmss"}),
    ),
    "parse-unknown-format-uncached": (
        KeyError,
        lambda env, t: t.parse({"format": "vmware-vmss"}, use_cache=False),
    ),
    "build-unknown-format": (
        KeyError,
        lambda env, t: t.build(t.parse(_xen_guest(env)), "vmware-vmss"),
    ),
    "translate-unknown-source": (
        KeyError,
        lambda env, t: t.translate({"format": "vmware-vmss"}, env[2]),
    ),
    "translate-unknown-target": (KeyError, _unknown_target),
    "xen-load-foreign-format": (IncompatibleGuest, _load_foreign_format("xen")),
    "kvm-load-foreign-format": (IncompatibleGuest, _load_foreign_format("kvm")),
    "xen-load-unexposable-feature": (
        IncompatibleGuest, _load_unexposable_feature("xen"),
    ),
    "kvm-load-unexposable-feature": (
        IncompatibleGuest, _load_unexposable_feature("kvm"),
    ),
}


class TestErrorPaths:
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_error_paths(self, case, env, translator):
        """Unknown format ids raise ``KeyError`` naming both supported
        formats; a hypervisor refuses a foreign payload or one whose
        features it cannot expose."""
        error, call = ERROR_CASES[case]
        with pytest.raises(error) as raised:
            call(env, translator)
        if error is KeyError:
            message = str(raised.value)
            assert "vmware-vmss" in message
            assert "kvm-kvmtool-v5" in message
            assert "xen-hvm-context-4.12" in message


class TestFeaturesetHelpers:
    def test_compatible_featureset_requires_input(self):
        with pytest.raises(ValueError):
            compatible_featureset()
