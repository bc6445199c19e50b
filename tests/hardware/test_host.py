"""Host model: failure propagation, NIC lookup, memory pool."""

import pytest

from repro.hardware import (
    GIB,
    Host,
    HostFailure,
    MemoryPool,
    MemorySpec,
    build_testbed,
)
from repro.hardware import testbed_host as make_host
from repro.hardware.cpu import CpuAccounting, MemoryAccounting
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation(seed=0)


class TestHostBasics:
    def test_testbed_host_matches_table3(self, sim):
        host = make_host(sim, "h")
        assert host.cpu.sockets == 2
        assert host.cpu.cores == 32
        assert host.memory.total_bytes == 192 * GIB
        assert host.memory.reserved_bytes == 10 * GIB

    def test_nic_lookup(self, sim):
        host = make_host(sim, "h")
        assert "Omni-Path" in host.nic("omni").name
        assert "X710" in host.nic("x710").name
        with pytest.raises(KeyError):
            host.nic("mellanox")

    def test_interconnect_is_fastest_nic(self, sim):
        host = make_host(sim, "h")
        assert host.interconnect.bandwidth_bps == 100e9
        assert host.service_nic.bandwidth_bps == 10e9


class TestHostFailure:
    def test_failure_is_idempotent(self, sim):
        host = make_host(sim, "h")
        host.fail("power")
        host.fail("again")  # must not raise or re-notify
        assert host.failure_reason == "power"

    def test_check_up_raises_after_failure(self, sim):
        host = make_host(sim, "h")
        host.check_up()
        host.fail("power")
        with pytest.raises(HostFailure):
            host.check_up()

    def test_failure_listeners_notified_once(self, sim):
        host = make_host(sim, "h")
        calls = []
        host.on_failure(lambda h, reason: calls.append((h.name, reason)))
        host.fail("disk fire")
        host.fail("aftershock")
        assert calls == [("h", "disk fire")]

    def test_failure_event_triggers(self, sim):
        host = make_host(sim, "h")
        host.fail("x")
        assert host.failure_event.triggered


class TestMemoryPool:
    def test_allocate_and_release(self):
        pool = MemoryPool(MemorySpec(total_bytes=10 * GIB))
        pool.allocate("vm:a", 4 * GIB)
        assert pool.free_bytes == 6 * GIB
        assert pool.release("vm:a") == 4 * GIB
        assert pool.free_bytes == 10 * GIB

    def test_over_allocation_rejected(self):
        pool = MemoryPool(MemorySpec(total_bytes=4 * GIB))
        with pytest.raises(MemoryError):
            pool.allocate("vm:big", 5 * GIB)

    def test_duplicate_owner_rejected(self):
        pool = MemoryPool(MemorySpec(total_bytes=10 * GIB))
        pool.allocate("vm:a", GIB)
        with pytest.raises(ValueError):
            pool.allocate("vm:a", GIB)

    def test_release_unknown_owner(self):
        pool = MemoryPool(MemorySpec(total_bytes=GIB))
        with pytest.raises(KeyError):
            pool.release("ghost")

    def test_reservation_shrinks_usable(self):
        spec = MemorySpec(total_bytes=10 * GIB, reserved_bytes=2 * GIB)
        assert spec.usable_bytes == 8 * GIB


class TestCpuAccounting:
    def test_charge_accumulates(self, sim):
        accounting = CpuAccounting(sim)
        accounting.charge("replication", 0.5)
        accounting.charge("replication", 0.25)
        assert accounting.total("replication") == pytest.approx(0.75)

    def test_windowed_utilisation(self, sim):
        accounting = CpuAccounting(sim)
        accounting.charge("replication", 1.0)  # at t=0
        sim.run(until=10.0)
        accounting.charge("replication", 1.0)  # at t=10
        sim.run(until=20.0)
        # Window [10, 20]: only the second charge counts.
        assert accounting.utilisation("replication", since=10.0) == pytest.approx(0.1)
        # Whole lifetime: both charges over 20 s.
        assert accounting.utilisation("replication", since=0.0) == pytest.approx(0.1)

    def test_negative_charge_rejected(self, sim):
        with pytest.raises(ValueError):
            CpuAccounting(sim).charge("x", -0.1)


class TestMemoryAccounting:
    def test_resident_tracks_allocations(self):
        accounting = MemoryAccounting()
        accounting.allocate("staging", 256 * 1024**2)
        accounting.allocate("rings", 32 * 1024**2)
        assert accounting.resident_bytes == 288 * 1024**2
        accounting.free("rings")
        assert accounting.resident_bytes == 256 * 1024**2

    def test_resize_replaces(self):
        accounting = MemoryAccounting()
        accounting.allocate("x", 100)
        accounting.allocate("x", 50)
        assert accounting.resident_bytes == 50


class TestTestbed:
    def test_build_testbed_wiring(self, sim):
        testbed = build_testbed(sim)
        assert testbed.primary.name == "host-A"
        assert testbed.secondary.name == "host-B"
        assert testbed.interconnect.forward.capacity == pytest.approx(12.5e9)
