"""KVM/kvmtool's guest-state serialisation format.

Mirrors the KVM ioctl structures that kvmtool drives: ``kvm_regs``
(GPRs + rip + rflags), ``kvm_sregs`` (full segment descriptors inline
with the control registers and ``apic_base``), ``kvm_msrs`` (an entry
array with an explicit count), ``kvm_lapic_state``, a clock record and
the raw XSAVE blob.  Structurally unlike the Xen layout on purpose —
see :mod:`repro.hypervisor.xen.formats`.

This module is the only one that knows the KVM payload layout:
:func:`pack`/:func:`unpack` frame a payload, the record converters
map vCPUs and devices to and from it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ...vm.devices import VirtualDevice
from ...vm.vcpu import (
    CONTROL_REGISTERS,
    GP_REGISTERS,
    LapicState,
    SegmentDescriptor,
    TimerState,
    VcpuArchState,
)

#: Format identifier carried in every KVM payload.
FORMAT = "kvm-kvmtool-v5"

_SEGMENTS = ("cs", "ds", "es", "fs", "gs", "ss", "tr", "ldt")


def vcpu_to_record(state: VcpuArchState) -> Dict:
    """Serialise one vCPU into KVM ioctl-shaped records.

    The record is memoised on the state object: architectural vCPU
    state never mutates in place after boot (hypervisor loads replace
    ``vm.vcpu_states`` wholesale with freshly parsed objects), so
    re-checkpointing the same paused guest reuses the serialisation.
    Consumers treat records as read-only — nothing in the transport,
    translator or load path writes into a received record.
    """
    cached = state.__dict__.get("_kvm_record")
    if cached is not None:
        return cached
    regs = {name: state.gp[name] for name in GP_REGISTERS}
    sregs: Dict = {
        name: {
            "selector": state.segments[name].selector,
            "base": state.segments[name].base,
            "limit": state.segments[name].limit,
            "attrib": state.segments[name].attributes,
        }
        for name in _SEGMENTS
    }
    sregs.update(
        {
            "cr0": state.control["cr0"],
            "cr2": state.control["cr2"],
            "cr3": state.control["cr3"],
            "cr4": state.control["cr4"],
            "cr8": state.control["cr8"],
            "efer": state.control["efer"],
            "apic_base": state.lapic.apic_base_msr,
        }
    )
    entries = [
        {"index": index, "data": value} for index, value in sorted(state.msrs.items())
    ]
    record = {
        "cpu_index": state.index,
        "kvm_regs": regs,
        "kvm_sregs": sregs,
        "kvm_msrs": {"nmsrs": len(entries), "entries": entries},
        "kvm_lapic": {
            "id": state.lapic.apic_id,
            "tpr": state.lapic.tpr,
            "tdcr": state.lapic.timer_divide,
            "ticr": state.lapic.timer_initial_count,
            "tccr": state.lapic.timer_current_count,
            "lvtt": state.lapic.lvt_timer,
            "sw_enabled": state.lapic.enabled,
        },
        "kvm_clock": {
            "tsc_offset": state.timer.tsc_offset,
            "tsc_khz": state.timer.tsc_frequency_khz,
            "system_time": state.timer.system_time_base,
        },
        "kvm_xsave": list(state.xsave_area),
        "runnable": state.online,
    }
    state.__dict__["_kvm_record"] = record
    return record


def record_to_vcpu(record: Dict) -> VcpuArchState:
    """Parse KVM ioctl-shaped records into architectural state."""
    gp = {name: record["kvm_regs"][name] for name in GP_REGISTERS}
    sregs = record["kvm_sregs"]
    control = {name: 0 for name in CONTROL_REGISTERS}
    for name in ("cr0", "cr2", "cr3", "cr4", "cr8", "efer"):
        control[name] = sregs[name]
    segments = {}
    for name in _SEGMENTS:
        seg = sregs[name]
        segments[name] = SegmentDescriptor(
            selector=seg["selector"],
            base=seg["base"],
            limit=seg["limit"],
            attributes=seg["attrib"],
        )
    msrs = {
        entry["index"]: entry["data"] for entry in record["kvm_msrs"]["entries"]
    }
    lapic_rec = record["kvm_lapic"]
    lapic = LapicState(
        apic_id=lapic_rec["id"],
        apic_base_msr=sregs["apic_base"],
        tpr=lapic_rec["tpr"],
        timer_divide=lapic_rec["tdcr"],
        timer_initial_count=lapic_rec["ticr"],
        timer_current_count=lapic_rec["tccr"],
        lvt_timer=lapic_rec["lvtt"],
        enabled=lapic_rec["sw_enabled"],
    )
    clock = record["kvm_clock"]
    timer = TimerState(
        tsc_offset=clock["tsc_offset"],
        tsc_frequency_khz=clock["tsc_khz"],
        system_time_base=clock["system_time"],
    )
    return VcpuArchState(
        index=record["cpu_index"],
        gp=gp,
        control=control,
        segments=segments,
        msrs=msrs,
        lapic=lapic,
        timer=timer,
        xsave_area=bytes(record["kvm_xsave"]),
        online=record["runnable"],
    )


def device_to_record(device: VirtualDevice) -> Dict:
    """Serialise a device in kvmtool's virtio device layout."""
    return {
        "virtio_device": device.model,
        "slot": device.instance,
        "class": device.kind.value,
        "transport": device.mode.value,
        "config_space": dict(device.state.fields),
    }


def record_to_device_state(record: Dict) -> Dict:
    """Extract the architectural device state from a KVM record."""
    return {
        "kind": record["class"],
        "instance": record["slot"],
        "fields": {
            key: value
            for key, value in record["config_space"].items()
            if not key.startswith("_")
        },
    }


def translated_device_record(device: Dict) -> Dict:
    """The canonical ``virtio-<kind>`` PV record a translation writes.

    Unlike :func:`device_to_record`, it has no real model, mode or
    private ``_`` fields: the intermediate state does not carry them.
    """
    return {
        "virtio_device": f"virtio-{device['kind']}",
        "slot": device["instance"],
        "class": device["kind"],
        "transport": "pv",
        "config_space": dict(device["fields"]),
    }


def pack(
    vcpu_records: List[Dict],
    device_records: List[Dict],
    features: FrozenSet[str],
    memory_pages: int,
) -> Dict:
    """Frame vCPU and device records into a full KVM payload."""
    return {
        "format": FORMAT,
        "vcpu_records": vcpu_records,
        "virtio_devices": device_records,
        "machine": {
            "cpuid_features": sorted(features),
            "memory_pages": memory_pages,
        },
    }


def unpack(payload: Dict) -> Tuple[List[Dict], List[Dict], FrozenSet[str], int]:
    """``(vcpu_records, device_records, features, memory_pages)`` of a payload."""
    machine = payload["machine"]
    return (
        payload["vcpu_records"],
        payload["virtio_devices"],
        frozenset(machine["cpuid_features"]),
        machine["memory_pages"],
    )
