"""vCPU architectural state."""

import pytest

from repro.vm import (
    CONTROL_REGISTERS,
    ESSENTIAL_MSRS,
    GP_REGISTERS,
    VcpuArchState,
    sample_running_state,
)


class TestDefaults:
    def test_fresh_state_has_all_registers(self):
        state = VcpuArchState(index=0)
        assert set(state.gp) == set(GP_REGISTERS)
        assert set(state.control) == set(CONTROL_REGISTERS)
        assert set(state.msrs) == set(ESSENTIAL_MSRS)
        assert len(state.segments) == 8

    def test_xsave_area_default_size(self):
        assert len(VcpuArchState().xsave_area) == 512


class TestSampleState:
    def test_deterministic_in_seed(self):
        a = sample_running_state(0, seed=7)
        b = sample_running_state(0, seed=7)
        assert a.equivalent_to(b)

    def test_varies_with_seed_and_index(self):
        base = sample_running_state(0, seed=7)
        assert not base.equivalent_to(sample_running_state(0, seed=8))
        assert not base.equivalent_to(sample_running_state(1, seed=7))

    def test_looks_like_long_mode(self):
        state = sample_running_state(2, seed=1)
        assert state.control["cr0"] & 0x80000001 == 0x80000001  # PG|PE
        assert state.control["efer"] & 0x500  # LME|LMA
        assert state.lapic.apic_id == 2


class TestEquivalence:
    def test_single_register_change_detected(self):
        a = sample_running_state(0, seed=5)
        b = sample_running_state(0, seed=5)
        b.gp["rip"] ^= 1
        assert not a.equivalent_to(b)

    def test_msr_change_detected(self):
        a = sample_running_state(0, seed=5)
        b = sample_running_state(0, seed=5)
        b.msrs[0xC0000100] += 1
        assert not a.equivalent_to(b)

    def test_segment_change_detected(self):
        a = sample_running_state(0, seed=5)
        b = sample_running_state(0, seed=5)
        b.segments["cs"].base = 0x1000
        assert not a.equivalent_to(b)

    def test_canonical_items_is_stable_order(self):
        state = sample_running_state(0, seed=2)
        keys_a = [key for key, _ in state.canonical_items()]
        keys_b = [key for key, _ in state.canonical_items()]
        assert keys_a == keys_b
