"""Virtual CPU architectural state.

:class:`VcpuArchState` is the *architectural* (hypervisor-neutral)
description of one vCPU: general-purpose registers, control registers,
a model-specific-register file, local-APIC and timer state, and the
FPU/XSAVE area.  Hypervisors store vCPU state in their own *formats*
(:mod:`repro.hypervisor.xen.formats`, :mod:`repro.hypervisor.kvm.formats`);
the state translator converts between those formats through this
common representation, exactly as §5.3/§7.4 of the paper describe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: x86-64 general-purpose register names, in canonical order.
GP_REGISTERS: Tuple[str, ...] = (
    "rax",
    "rbx",
    "rcx",
    "rdx",
    "rsi",
    "rdi",
    "rbp",
    "rsp",
    "r8",
    "r9",
    "r10",
    "r11",
    "r12",
    "r13",
    "r14",
    "r15",
    "rip",
    "rflags",
)

#: Control registers tracked by both hypervisors.
CONTROL_REGISTERS: Tuple[str, ...] = ("cr0", "cr2", "cr3", "cr4", "cr8", "efer")

#: MSRs that must survive a cross-hypervisor transfer for a PV guest.
ESSENTIAL_MSRS: Tuple[int, ...] = (
    0xC0000080,  # IA32_EFER
    0xC0000081,  # STAR
    0xC0000082,  # LSTAR
    0xC0000084,  # FMASK
    0xC0000100,  # FS_BASE
    0xC0000101,  # GS_BASE
    0xC0000102,  # KERNEL_GS_BASE
    0x00000010,  # TSC
    0x000001D9,  # DEBUGCTL
)


@dataclass
class SegmentDescriptor:
    """One segment register (selector + cached descriptor)."""

    selector: int = 0
    base: int = 0
    limit: int = 0xFFFFFFFF
    attributes: int = 0x93

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.selector, self.base, self.limit, self.attributes)


@dataclass
class LapicState:
    """Local APIC state relevant to save/restore."""

    apic_id: int = 0
    apic_base_msr: int = 0xFEE00900
    tpr: int = 0
    timer_divide: int = 0
    timer_initial_count: int = 0
    timer_current_count: int = 0
    lvt_timer: int = 0x10000
    enabled: bool = True


@dataclass
class TimerState:
    """Per-vCPU virtual time bookkeeping."""

    tsc_offset: int = 0
    tsc_frequency_khz: int = 2_100_000
    system_time_base: float = 0.0


@dataclass
class VcpuArchState:
    """Hypervisor-neutral architectural state of one vCPU."""

    index: int = 0
    gp: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in GP_REGISTERS}
    )
    control: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in CONTROL_REGISTERS}
    )
    segments: Dict[str, SegmentDescriptor] = field(
        default_factory=lambda: {
            name: SegmentDescriptor()
            for name in ("cs", "ds", "es", "fs", "gs", "ss", "tr", "ldt")
        }
    )
    msrs: Dict[int, int] = field(
        default_factory=lambda: {msr: 0 for msr in ESSENTIAL_MSRS}
    )
    lapic: LapicState = field(default_factory=LapicState)
    timer: TimerState = field(default_factory=TimerState)
    #: Raw XSAVE area payload (simulated as opaque bytes).
    xsave_area: bytes = b"\x00" * 512
    online: bool = True

    def canonical_items(self):
        """Deterministic flat view of the state, for hashing/equality.

        ``repro.integrity.digest`` formats this exact layout straight
        from the fields for speed; its tests pin the two byte-equal.
        """
        yield ("index", self.index)
        for name in GP_REGISTERS:
            yield (f"gp.{name}", self.gp[name])
        for name in CONTROL_REGISTERS:
            yield (f"cr.{name}", self.control[name])
        for name in sorted(self.segments):
            yield (f"seg.{name}", self.segments[name].as_tuple())
        for msr in sorted(self.msrs):
            yield (f"msr.{msr:#x}", self.msrs[msr])
        yield ("lapic", (
            self.lapic.apic_id,
            self.lapic.apic_base_msr,
            self.lapic.tpr,
            self.lapic.timer_divide,
            self.lapic.timer_initial_count,
            self.lapic.timer_current_count,
            self.lapic.lvt_timer,
            self.lapic.enabled,
        ))
        yield ("timer", (
            self.timer.tsc_offset,
            self.timer.tsc_frequency_khz,
            self.timer.system_time_base,
        ))
        yield ("xsave", self.xsave_area)
        yield ("online", self.online)

    def equivalent_to(self, other: "VcpuArchState") -> bool:
        """Architectural equality (what must survive translation)."""
        return tuple(self.canonical_items()) == tuple(other.canonical_items())


def sample_running_state(index: int, seed: int = 0) -> VcpuArchState:
    """A plausible mid-execution vCPU state, deterministic in ``seed``.

    Used by tests and by the simulated guests to give the translator
    real content to chew on.
    """
    import random as _random

    rng = _random.Random((seed << 8) | index)
    state = VcpuArchState(index=index)
    for name in GP_REGISTERS:
        state.gp[name] = rng.getrandbits(64)
    state.gp["rflags"] = 0x202  # interrupts enabled, reserved bit
    state.control["cr0"] = 0x8005003B  # PG|PE|MP|NE|WP|AM|ET
    state.control["cr3"] = rng.getrandbits(40) & ~0xFFF
    state.control["cr4"] = 0x3406E0
    state.control["efer"] = 0xD01  # LME|LMA|SCE|NXE
    for msr in ESSENTIAL_MSRS:
        state.msrs[msr] = rng.getrandbits(64)
    state.lapic.apic_id = index
    state.lapic.timer_initial_count = rng.getrandbits(32)
    state.lapic.timer_current_count = state.lapic.timer_initial_count // 2
    state.timer.tsc_offset = rng.getrandbits(48)
    state.xsave_area = bytes(rng.getrandbits(8) for _ in range(64)) * 8
    return state
