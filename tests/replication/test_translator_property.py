"""Property-based verification of the state translator.

The translator's contract is architectural losslessness: *any* vCPU
state must survive Xen-format -> common IR -> KVM-format -> common IR
-> Xen-format unchanged.  hypothesis generates adversarial register
files (extremes, duplicated values, unusual MSR sets) that hand-picked
fixtures would miss.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor.kvm import formats as kvm_formats
from repro.hypervisor.xen import formats as xen_formats
from repro.integrity import vcpu_leaf
from repro.vm import (
    CONTROL_REGISTERS,
    GP_REGISTERS,
    LapicState,
    SegmentDescriptor,
    TimerState,
    VcpuArchState,
)

u64 = st.integers(min_value=0, max_value=2**64 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
u16 = st.integers(min_value=0, max_value=2**16 - 1)


@st.composite
def arch_states(draw):
    gp = {name: draw(u64) for name in GP_REGISTERS}
    control = {name: draw(u64) for name in CONTROL_REGISTERS}
    segments = {
        name: SegmentDescriptor(
            selector=draw(u16),
            base=draw(u64),
            limit=draw(u32),
            attributes=draw(u16),
        )
        for name in ("cs", "ds", "es", "fs", "gs", "ss", "tr", "ldt")
    }
    msr_indices = draw(
        st.lists(u32, min_size=1, max_size=12, unique=True)
    )
    msrs = {index: draw(u64) for index in msr_indices}
    lapic = LapicState(
        apic_id=draw(st.integers(min_value=0, max_value=255)),
        apic_base_msr=draw(u64),
        tpr=draw(st.integers(min_value=0, max_value=255)),
        timer_divide=draw(st.integers(min_value=0, max_value=7)),
        timer_initial_count=draw(u32),
        timer_current_count=draw(u32),
        lvt_timer=draw(u32),
        enabled=draw(st.booleans()),
    )
    timer = TimerState(
        tsc_offset=draw(u64),
        tsc_frequency_khz=draw(st.integers(min_value=1, max_value=10_000_000)),
        system_time_base=draw(
            st.floats(min_value=0, max_value=1e9, allow_nan=False)
        ),
    )
    xsave = bytes(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=255),
                min_size=0,
                max_size=128,
            )
        )
    )
    return VcpuArchState(
        index=draw(st.integers(min_value=0, max_value=255)),
        gp=gp,
        control=control,
        segments=segments,
        msrs=msrs,
        lapic=lapic,
        timer=timer,
        xsave_area=xsave,
        online=draw(st.booleans()),
    )


@given(state=arch_states())
@settings(max_examples=150, deadline=None)
def test_xen_format_round_trip_is_lossless(state):
    restored = xen_formats.record_to_vcpu(xen_formats.vcpu_to_record(state))
    assert restored.equivalent_to(state)


@given(state=arch_states())
@settings(max_examples=150, deadline=None)
def test_kvm_format_round_trip_is_lossless(state):
    restored = kvm_formats.record_to_vcpu(kvm_formats.vcpu_to_record(state))
    assert restored.equivalent_to(state)


@given(state=arch_states())
@settings(max_examples=150, deadline=None)
def test_cross_family_translation_is_lossless(state):
    """Xen record -> arch -> KVM record -> arch: the full HERE path."""
    xen_record = xen_formats.vcpu_to_record(state)
    intermediate = xen_formats.record_to_vcpu(xen_record)
    kvm_record = kvm_formats.vcpu_to_record(intermediate)
    final = kvm_formats.record_to_vcpu(kvm_record)
    assert final.equivalent_to(state)


@given(state=arch_states())
@settings(max_examples=100, deadline=None)
def test_fingerprint_is_translation_invariant(state):
    kvm_view = kvm_formats.record_to_vcpu(kvm_formats.vcpu_to_record(state))
    assert vcpu_leaf(kvm_view) == vcpu_leaf(state)
