"""Hypervisor state formats: round trips and structural difference."""

import pytest

from repro.hypervisor.kvm import formats as kvm_formats
from repro.hypervisor.xen import formats as xen_formats
from repro.vm import sample_running_state, standard_pv_devices


@pytest.fixture
def states():
    return [sample_running_state(i, seed=21) for i in range(4)]


def pack(codec, states, devices, features, memory_pages):
    """A native payload: every vCPU and device through ``codec``."""
    return codec.pack(
        [codec.vcpu_to_record(state) for state in states],
        [codec.device_to_record(device) for device in devices],
        features,
        memory_pages,
    )


@pytest.mark.parametrize("codec", [xen_formats, kvm_formats],
                         ids=["xen", "kvm"])
class TestPackUnpack:
    def test_unpack_inverts_pack(self, codec, states):
        flavor = "xen" if codec is xen_formats else "kvm"
        vcpus = [codec.vcpu_to_record(state) for state in states]
        devices = [
            codec.device_to_record(device)
            for device in standard_pv_devices(flavor)
        ]
        features = frozenset({"sse2", "avx", "aes"})
        payload = codec.pack(vcpus, devices, features, 4096)
        assert payload["format"] == codec.FORMAT
        assert codec.unpack(payload) == (vcpus, devices, features, 4096)

    def test_translated_device_record_round_trips(self, codec):
        device = {"kind": "network", "instance": 0, "fields": {"mac": "m"}}
        record = codec.translated_device_record(device)
        assert codec.record_to_device_state(record) == device


class TestXenRoundTrip:
    def test_vcpu_round_trip_is_lossless(self, states):
        for state in states:
            record = xen_formats.vcpu_to_record(state)
            restored = xen_formats.record_to_vcpu(record)
            assert restored.equivalent_to(state)

    def test_uses_legacy_eflags_naming(self, states):
        record = xen_formats.vcpu_to_record(states[0])
        assert "eflags" in record["user_regs"]
        assert "rflags" not in record["user_regs"]

    def test_control_registers_are_indexed_array(self, states):
        record = xen_formats.vcpu_to_record(states[0])
        assert isinstance(record["ctrlreg"], list)
        assert record["ctrlreg"][0] == states[0].control["cr0"]
        assert record["ctrlreg"][3] == states[0].control["cr3"]

    def test_msrs_are_hex_indexed_records(self, states):
        record = xen_formats.vcpu_to_record(states[0])
        for entry in record["msrs"]:
            assert entry["index"].startswith("0x")

    def test_device_record_layout(self):
        device = standard_pv_devices("xen")[0]
        record = xen_formats.device_to_record(device)
        assert record["backend"] == "xen-vif"
        arch = xen_formats.record_to_device_state(record)
        assert "_ring_ref" not in arch["fields"]
        assert arch["fields"]["mac"] == device.state.fields["mac"]

    def test_payload_structure(self, states):
        payload = pack(xen_formats, states, standard_pv_devices("xen"),
                       frozenset({"sse2"}), 1000)
        assert payload["format"] == xen_formats.FORMAT
        assert len(payload["hvm_context"]) == 4
        assert payload["platform"]["nr_pages"] == 1000
        assert payload["platform"]["featureset"] == ["sse2"]


class TestKvmRoundTrip:
    def test_vcpu_round_trip_is_lossless(self, states):
        for state in states:
            record = kvm_formats.vcpu_to_record(state)
            restored = kvm_formats.record_to_vcpu(record)
            assert restored.equivalent_to(state)

    def test_sregs_embed_control_registers(self, states):
        record = kvm_formats.vcpu_to_record(states[0])
        sregs = record["kvm_sregs"]
        assert sregs["cr3"] == states[0].control["cr3"]
        assert sregs["apic_base"] == states[0].lapic.apic_base_msr
        assert "selector" in sregs["cs"]

    def test_msr_count_field(self, states):
        record = kvm_formats.vcpu_to_record(states[0])
        msrs = record["kvm_msrs"]
        assert msrs["nmsrs"] == len(msrs["entries"])

    def test_device_record_layout(self):
        device = standard_pv_devices("kvm")[0]
        record = kvm_formats.device_to_record(device)
        assert record["virtio_device"] == "virtio-net"
        arch = kvm_formats.record_to_device_state(record)
        assert "_vq_size" not in arch["fields"]


class TestStructuralDifference:
    """The two formats must stay genuinely different — that difference
    is what the state translator exists to bridge."""

    def test_top_level_keys_differ(self, states):
        xen_payload = pack(xen_formats, states, standard_pv_devices("xen"),
                           frozenset(), 10)
        kvm_payload = pack(kvm_formats, states, standard_pv_devices("kvm"),
                           frozenset(), 10)
        xen_keys = set(xen_payload) - {"format"}
        kvm_keys = set(kvm_payload) - {"format"}
        assert xen_keys.isdisjoint(kvm_keys)

    def test_cross_loading_records_fails(self, states):
        xen_record = xen_formats.vcpu_to_record(states[0])
        with pytest.raises((KeyError, TypeError)):
            kvm_formats.record_to_vcpu(xen_record)
        kvm_record = kvm_formats.vcpu_to_record(states[0])
        with pytest.raises((KeyError, TypeError)):
            xen_formats.record_to_vcpu(kvm_record)
