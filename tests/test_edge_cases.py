"""Edge-case sweep: small contracts not covered by the focused suites."""

import math

import pytest

from repro.hardware import GIB, build_testbed, ethernet_x710
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation(seed=0)


class TestNicContracts:
    def test_wire_time_validation(self):
        nic = ethernet_x710()
        with pytest.raises(ValueError):
            nic.wire_time(-1)
        assert nic.wire_time(1.25e9) == pytest.approx(1.0)

    def test_nic_validation(self):
        from repro.hardware import Nic

        with pytest.raises(ValueError):
            Nic(name="x", bandwidth_bps=0)
        with pytest.raises(ValueError):
            Nic(name="x", bandwidth_bps=1e9, base_latency_s=-1)


class TestPlainXenLacksPmlRings:
    def test_drain_without_here_patches_raises(self, sim):
        from repro.hypervisor import XenHypervisor

        testbed = build_testbed(sim)
        plain = XenHypervisor(sim, testbed.primary, here_patches=False)
        vm = plain.create_vm("g", memory_bytes=GIB)
        with pytest.raises(NotImplementedError):
            plain.drain_pml_ring(vm, 0)


class TestGuestAgentGuards:
    def test_switch_rejects_non_pv_devices(self, sim):
        from repro.vm import (
            DeviceKind,
            DeviceMode,
            GuestAgent,
            VirtualDevice,
            VirtualMachine,
        )

        vm = VirtualMachine(sim, "g", memory_bytes=GIB)
        GuestAgent(vm)
        vm.start()
        vm.devices.append(
            VirtualDevice(DeviceKind.NETWORK, DeviceMode.PASSTHROUGH, "vfio", 1)
        )
        process = sim.process(vm.guest_agent.switch_device_models("kvm"))
        with pytest.raises(RuntimeError):
            sim.run_until_triggered(process)


class TestWorkloadAbstract:
    def test_base_workload_requires_overrides(self, sim):
        from repro.vm import VirtualMachine
        from repro.workloads import Workload

        vm = VirtualMachine(sim, "g", memory_bytes=GIB)
        vm.start()
        workload = Workload(sim, vm)
        with pytest.raises(NotImplementedError):
            workload.work_rate()
        with pytest.raises(NotImplementedError):
            workload.touch_rate()
        with pytest.raises(NotImplementedError):
            workload.working_set_pages()

    def test_vcpu_spread_validation(self, sim):
        from repro.vm import VirtualMachine
        from repro.workloads import Workload

        vm = VirtualMachine(sim, "g", vcpus=2, memory_bytes=GIB)
        with pytest.raises(ValueError):
            Workload(sim, vm, vcpu_spread=5)
        with pytest.raises(ValueError):
            Workload(sim, vm, tick=0.0)


class TestOpenLoopClientValidation:
    def test_rate_must_be_positive(self, sim):
        from repro.hardware import Link
        from repro.net import EgressBuffer, ServiceConnection, open_loop_client
        from repro.vm import VirtualMachine

        vm = VirtualMachine(sim, "g", memory_bytes=GIB)
        vm.start()
        connection = ServiceConnection(
            sim, vm, Link(sim, ethernet_x710()), EgressBuffer(sim)
        )
        with pytest.raises(ValueError):
            sim.run_until_triggered(
                sim.process(
                    open_loop_client(sim, connection, rate_per_s=0.0, duration=1.0)
                )
            )


class TestMigrationStatsSummary:
    def test_summary_fields(self, sim):
        from repro.migration import MigrationStats

        stats = MigrationStats(
            vm_name="vm", mode="here", source="a", destination="b",
            started_at=1.0,
        )
        stats.finished_at = 11.0
        stats.succeeded = True
        summary = stats.summary()
        assert summary["duration_s"] == pytest.approx(10.0)
        assert summary["succeeded"] is True


class TestColoStatsSummary:
    def test_summary_shape(self, sim):
        from repro.replication.colo import ColoStats, ComparisonRecord

        stats = ColoStats(vm_name="vm")
        stats.comparisons = [
            ComparisonRecord(at=1.0, diverged=False),
            ComparisonRecord(at=2.0, diverged=True, sync_duration=0.5),
        ]
        summary = stats.summary()
        assert summary["divergence_rate"] == pytest.approx(0.5)
        assert summary["total_sync_s"] == pytest.approx(0.5)


class TestRenderEdgeCases:
    def test_series_with_nan_values(self):
        from repro.analysis import render_series

        chart = render_series([0.0, 1.0], [float("nan"), 2.0], label="x")
        assert "x" in chart

    def test_series_all_nan(self):
        from repro.analysis import render_series

        assert "no finite data" in render_series(
            [0.0], [float("nan")], label="y"
        )

    def test_series_length_mismatch(self):
        from repro.analysis import render_series

        with pytest.raises(ValueError):
            render_series([0.0], [1.0, 2.0])

    def test_bars_empty(self):
        from repro.analysis import render_bars

        assert "(no rows)" in render_bars([], "a", "b")


class TestOverheadValidation:
    def test_empty_window_rejected(self, sim):
        from repro.analysis import measure_overhead
        from repro.cluster import DeploymentSpec, ProtectedDeployment

        deployment = ProtectedDeployment(
            DeploymentSpec(memory_bytes=GIB, seed=1)
        )
        deployment.start_protection()
        with pytest.raises(ValueError):
            measure_overhead(deployment.engine, since=deployment.sim.now)


class TestEventTriggerChaining:
    def test_yield_event_from_other_simulation_fails_process(self, sim):
        other = Simulation()

        def body():
            yield other.timeout(1.0)

        process = sim.process(body())
        with pytest.raises(Exception):
            sim.run_until_triggered(process)


class TestSockperfClientGuards:
    def test_double_start_rejected(self, sim):
        from repro.hardware import Link
        from repro.net import EgressBuffer
        from repro.vm import VirtualMachine
        from repro.workloads import SockperfClient, SockperfConfig

        vm = VirtualMachine(sim, "g", memory_bytes=GIB)
        vm.start()
        client = SockperfClient(
            sim, vm, Link(sim, ethernet_x710()), EgressBuffer(sim),
            SockperfConfig(duration=1.0),
        )
        client.start()
        with pytest.raises(RuntimeError):
            client.start()
