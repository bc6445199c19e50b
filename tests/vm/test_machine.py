"""VM lifecycle, execution accounting and memory-touch plumbing."""

import pytest

from repro.hardware.units import GIB
from repro.simkernel import Simulation
from repro.vm import VirtualMachine, VmLifecycleError
from repro.vm.vcpu import sample_running_state


@pytest.fixture
def sim():
    return Simulation(seed=0)


@pytest.fixture
def vm(sim):
    machine = VirtualMachine(sim, "guest", vcpus=4, memory_bytes=GIB)
    machine.start()
    return machine


class TestLifecycle:
    def test_geometry(self, sim):
        machine = VirtualMachine(sim, "g", vcpus=2, memory_bytes=GIB)
        assert machine.total_pages == 262_144
        assert machine.n_chunks == 512
        assert len(machine.vcpu_states) == 2
        assert len(machine.pml_rings) == 2

    def test_too_small_memory_rejected(self, sim):
        with pytest.raises(ValueError):
            VirtualMachine(sim, "g", memory_bytes=1024)

    def test_zero_vcpus_rejected(self, sim):
        with pytest.raises(ValueError):
            VirtualMachine(sim, "g", vcpus=0)

    def test_double_start_rejected(self, vm):
        with pytest.raises(VmLifecycleError):
            vm.start()

    def test_lazy_vcpu_states_equal_eager_samples(self, sim):
        machine = VirtualMachine(sim, "g", vcpus=3, memory_bytes=GIB, seed=11)
        assert machine._vcpu_states is None
        states = machine.vcpu_states
        eager = [sample_running_state(i, seed=11) for i in range(3)]
        assert states == eager  # dataclass equality: every field
        # Sampled once: later reads see the same objects.
        assert machine.vcpu_states is states

    def test_loaded_vcpu_states_replace_unsampled(self, sim):
        machine = VirtualMachine(sim, "g", vcpus=2, memory_bytes=GIB, seed=3)
        loaded = [sample_running_state(i, seed=99) for i in range(2)]
        machine.vcpu_states = loaded
        assert machine.vcpu_states is loaded

    def test_pause_resume_cycle(self, vm):
        assert vm.is_running
        vm.pause()
        assert vm.is_paused
        vm.resume()
        assert vm.is_running

    def test_double_pause_rejected(self, vm):
        vm.pause()
        with pytest.raises(VmLifecycleError):
            vm.pause()

    def test_resume_without_pause_rejected(self, vm):
        with pytest.raises(VmLifecycleError):
            vm.resume()

    def test_destroy_is_terminal_and_idempotent(self, vm):
        vm.destroy()
        vm.destroy()
        assert vm.is_destroyed
        with pytest.raises(VmLifecycleError):
            vm.pause()

    def test_operations_on_unstarted_vm_rejected(self, sim):
        machine = VirtualMachine(sim, "g", memory_bytes=GIB)
        with pytest.raises(VmLifecycleError):
            machine.pause()


class TestTimeAccounting:
    def test_pause_time_accumulates(self, sim, vm):
        sim.run(until=10.0)
        vm.pause()
        sim.run(until=13.0)
        vm.resume()
        sim.run(until=20.0)
        assert vm.paused_time() == pytest.approx(3.0)
        assert vm.running_time() == pytest.approx(17.0)
        assert vm.degradation() == pytest.approx(3.0 / 20.0)

    def test_ongoing_pause_counts(self, sim, vm):
        sim.run(until=5.0)
        vm.pause()
        sim.run(until=9.0)
        assert vm.paused_time() == pytest.approx(4.0)

    def test_destroy_during_pause_closes_interval(self, sim, vm):
        vm.pause()
        sim.run(until=2.0)
        vm.destroy()
        sim.run(until=10.0)
        assert vm.total_paused_time == pytest.approx(2.0)

    def test_pause_count(self, vm):
        for _ in range(3):
            vm.pause()
            vm.resume()
        assert vm.pause_count == 3


class TestTouch:
    def test_touch_records_dirty_state(self, vm):
        vm.touch_spread(1, 1000.0, wss_pages=51_200)
        snapshot = vm.dirty_snapshot()
        assert snapshot.unique_dirty_pages() == pytest.approx(1000.0, rel=0.02)

    def test_touch_feeds_pml_ring(self, vm):
        # With logging armed, each of vCPUs 0..n-1 logs its own share;
        # the others log none.
        vm.arm_dirty_logging()
        vm.touch_spread(3, 500.0, wss_pages=1024)
        for vcpu in range(3):
            entries, overflowed = vm.pml_rings[vcpu].drain()
            assert not overflowed
            assert sum(t for _f, _n, t in entries) == pytest.approx(500.0)
        assert vm.pml_rings[3].drain()[0] == []

    def test_unarmed_rings_stay_empty(self, vm):
        # Outside log-dirty mode only the shared dirty log records.
        assert not vm.dirty_logging_armed
        vm.touch_spread(4, 500.0, wss_pages=1024)
        for ring in vm.pml_rings.values():
            assert len(ring) == 0
            assert ring.drain() == ([], False)
        assert not vm.dirty_log.is_clean()

    def test_logging_arms_nest(self, vm):
        vm.arm_dirty_logging()
        vm.arm_dirty_logging()
        vm.disarm_dirty_logging()
        assert vm.dirty_logging_armed
        vm.touch_spread(1, 10.0, wss_pages=1024)
        assert len(vm.pml_rings[0]) == 1
        vm.disarm_dirty_logging()
        assert not vm.dirty_logging_armed
        vm.touch_spread(1, 10.0, wss_pages=1024)
        assert len(vm.pml_rings[0]) == 1
        with pytest.raises(VmLifecycleError):
            vm.disarm_dirty_logging()

    def test_touch_while_paused_rejected(self, vm):
        vm.pause()
        with pytest.raises(VmLifecycleError):
            vm.touch_spread(1, 10.0)

    def test_touch_validation(self, vm):
        for n_vcpus in (0, vm.vcpu_count + 1):
            with pytest.raises(IndexError):
                vm.touch_spread(n_vcpus, 10.0)
        with pytest.raises(ValueError):
            vm.touch_spread(1, 10.0, wss_pages=0)
        with pytest.raises(ValueError):
            vm.touch_spread(1, 10.0, wss_pages=vm.total_pages + 1)
        with pytest.raises(ValueError):
            vm.touch_spread(1, 10.0, wss_pages=1, offset_pages=-1)

    def test_snapshot_clear_drains_rings(self, vm):
        vm.arm_dirty_logging()
        vm.touch_spread(1, 100.0, wss_pages=1024)
        assert len(vm.pml_rings[0]) == 1
        vm.dirty_snapshot(clear=True)
        entries, _ = vm.pml_rings[0].drain()
        assert entries == []

    def test_snapshot_without_clear_preserves(self, vm):
        vm.touch_spread(1, 100.0, wss_pages=1024)
        vm.dirty_snapshot(clear=False)
        assert not vm.dirty_log.is_clean()

    def test_touch_with_offset(self, vm):
        vm.touch_spread(1, 100.0, wss_pages=512, offset_pages=512)
        snapshot = vm.dirty_snapshot()
        dirty_chunks = snapshot.dirty_chunk_ids()
        assert list(dirty_chunks) == [1]


class TestGuestOsFailure:
    def test_guest_crash_keeps_vm_scheduled(self, vm):
        vm.guest_os_crash()
        assert vm.guest_os_failed
        assert vm.is_running  # hypervisor still runs the (broken) guest

    def test_fresh_vm_is_healthy(self, vm):
        assert not vm.guest_os_failed


class TestDeviceAccess:
    def test_default_devices_are_pv(self, vm):
        devices = vm.replicable_devices()
        assert len(devices) == 3
        assert all(device.mode.value == "pv" for device in devices)

    def test_repr_shows_state(self, sim):
        machine = VirtualMachine(sim, "g", memory_bytes=GIB)
        assert "created" in repr(machine)
        machine.start()
        assert "running" in repr(machine)
        machine.pause()
        assert "paused" in repr(machine)
        machine.destroy()
        assert "destroyed" in repr(machine)
