"""Xen's guest-state serialisation format.

Mirrors the layout of Xen's HVM context / ``cpu_user_regs`` records:
legacy ``eflags`` naming, control registers as an indexed array,
segment *selectors* separated from their cached *descriptors*, MSRs as
an explicit record list, and the FPU/XSAVE area as an opaque hex
context.  The point of keeping this faithfully different from the KVM
layout (:mod:`repro.hypervisor.kvm.formats`) is that the state
translator has real structural work to do, exactly as in the paper
(§5.3, §7.4).

This module is the only one that knows the Xen payload layout:
:func:`pack`/:func:`unpack` frame a payload, the record converters
map vCPUs and devices to and from it.  The hypervisor base class and
the state translator compose these; neither names a payload key.
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

#: Format identifier carried in every Xen payload.
FORMAT = "xen-hvm-context-4.12"

#: Xen's ctrlreg[] array positions for each architectural register.
_CTRLREG_SLOTS = {"cr0": 0, "cr2": 2, "cr3": 3, "cr4": 4, "cr8": 8}

#: Segment register order in Xen's records.
_SEGMENTS = ("cs", "ds", "es", "fs", "gs", "ss", "tr", "ldt")


def vcpu_to_record(state: VcpuArchState) -> Dict:
    """Serialise one vCPU into a Xen-format record.

    The record is memoised on the state object: architectural vCPU
    state never mutates in place after boot (hypervisor loads replace
    ``vm.vcpu_states`` wholesale with freshly parsed objects), so
    re-checkpointing the same paused guest reuses the serialisation.
    Consumers treat records as read-only — nothing in the transport,
    translator or load path writes into a received record.
    """
    cached = state.__dict__.get("_xen_record")
    if cached is not None:
        return cached
    user_regs = {}
    for name in GP_REGISTERS:
        key = "eflags" if name == "rflags" else name
        user_regs[key] = state.gp[name]
    ctrlreg = [0] * 9
    for name, slot in _CTRLREG_SLOTS.items():
        ctrlreg[slot] = state.control[name]
    record = {
        "vcpu_id": state.index,
        "user_regs": user_regs,
        "ctrlreg": ctrlreg,
        "msr_efer": state.control["efer"],
        "selectors": {
            name: state.segments[name].selector for name in _SEGMENTS
        },
        "descriptors": {
            name: {
                "base": state.segments[name].base,
                "limit": state.segments[name].limit,
                "ar": state.segments[name].attributes,
            }
            for name in _SEGMENTS
        },
        "msrs": [
            {"index": f"{index:#010x}", "value": value}
            for index, value in sorted(state.msrs.items())
        ],
        "lapic": {
            "apic_id": state.lapic.apic_id,
            "apic_base": state.lapic.apic_base_msr,
            "tpr": state.lapic.tpr,
            "timer_divide": state.lapic.timer_divide,
            "timer_init": state.lapic.timer_initial_count,
            "timer_count": state.lapic.timer_current_count,
            "lvt_timer": state.lapic.lvt_timer,
            "enabled": state.lapic.enabled,
        },
        "tsc_info": {
            "offset": state.timer.tsc_offset,
            "khz": state.timer.tsc_frequency_khz,
            "stime_base": state.timer.system_time_base,
        },
        "fpu_ctxt": state.xsave_area.hex(),
        "online": state.online,
    }
    state.__dict__["_xen_record"] = record
    return record


def record_to_vcpu(record: Dict) -> VcpuArchState:
    """Parse a Xen-format record back into architectural state."""
    gp = {}
    for name in GP_REGISTERS:
        key = "eflags" if name == "rflags" else name
        gp[name] = record["user_regs"][key]
    control = {name: 0 for name in CONTROL_REGISTERS}
    for name, slot in _CTRLREG_SLOTS.items():
        control[name] = record["ctrlreg"][slot]
    control["efer"] = record["msr_efer"]
    segments = {}
    for name in _SEGMENTS:
        descriptor = record["descriptors"][name]
        segments[name] = SegmentDescriptor(
            selector=record["selectors"][name],
            base=descriptor["base"],
            limit=descriptor["limit"],
            attributes=descriptor["ar"],
        )
    msrs = {int(entry["index"], 16): entry["value"] for entry in record["msrs"]}
    lapic_rec = record["lapic"]
    lapic = LapicState(
        apic_id=lapic_rec["apic_id"],
        apic_base_msr=lapic_rec["apic_base"],
        tpr=lapic_rec["tpr"],
        timer_divide=lapic_rec["timer_divide"],
        timer_initial_count=lapic_rec["timer_init"],
        timer_current_count=lapic_rec["timer_count"],
        lvt_timer=lapic_rec["lvt_timer"],
        enabled=lapic_rec["enabled"],
    )
    tsc = record["tsc_info"]
    timer = TimerState(
        tsc_offset=tsc["offset"],
        tsc_frequency_khz=tsc["khz"],
        system_time_base=tsc["stime_base"],
    )
    return VcpuArchState(
        index=record["vcpu_id"],
        gp=gp,
        control=control,
        segments=segments,
        msrs=msrs,
        lapic=lapic,
        timer=timer,
        xsave_area=bytes.fromhex(record["fpu_ctxt"]),
        online=record["online"],
    )


def device_to_record(device: VirtualDevice) -> Dict:
    """Serialise a device in Xen's xenstore-ish backend layout."""
    return {
        "backend": device.model,
        "devid": device.instance,
        "kind": device.kind.value,
        "mode": device.mode.value,
        "backend_state": dict(device.state.fields),
    }


def record_to_device_state(record: Dict) -> Dict:
    """Extract the architectural device state from a Xen record."""
    return {
        "kind": record["kind"],
        "instance": record["devid"],
        "fields": {
            key: value
            for key, value in record["backend_state"].items()
            if not key.startswith("_")
        },
    }


def translated_device_record(device: Dict) -> Dict:
    """The canonical ``xen-<kind>`` PV record a translation writes.

    Unlike :func:`device_to_record`, it has no real model, mode or
    private ``_`` fields: the intermediate state does not carry them.
    """
    return {
        "backend": f"xen-{device['kind']}",
        "devid": device["instance"],
        "kind": device["kind"],
        "mode": "pv",
        "backend_state": dict(device["fields"]),
    }


def pack(
    vcpu_records: List[Dict],
    device_records: List[Dict],
    features: FrozenSet[str],
    memory_pages: int,
) -> Dict:
    """Frame vCPU and device records into a full Xen payload."""
    return {
        "format": FORMAT,
        "hvm_context": vcpu_records,
        "device_records": device_records,
        "platform": {
            "featureset": sorted(features),
            "nr_pages": memory_pages,
        },
    }


def unpack(payload: Dict) -> Tuple[List[Dict], List[Dict], FrozenSet[str], int]:
    """``(vcpu_records, device_records, features, memory_pages)`` of a payload."""
    platform = payload["platform"]
    return (
        payload["hvm_context"],
        payload["device_records"],
        frozenset(platform["featureset"]),
        platform["nr_pages"],
    )
