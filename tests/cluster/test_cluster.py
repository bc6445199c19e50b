"""Deployments, the libvirt facade, and scenario plumbing."""

import pytest

from repro.cluster import (
    DeploymentSpec,
    DomainSpec,
    ProtectedDeployment,
    ScenarioRunner,
    VirtManager,
    unprotected_baseline,
)
from repro.hardware import GIB, build_testbed
from repro.replication import EngineRecipe
from repro.security import FailureSource
from repro.simkernel import Simulation


class TestDeploymentSpec:
    def test_defaults_are_paper_testbed(self):
        spec = DeploymentSpec()
        assert spec.primary_flavor == "xen"
        assert spec.secondary_flavor == "kvm"
        assert spec.vcpus == 4

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            DeploymentSpec(engine="vmware-ft")

    def test_remus_needs_finite_period(self):
        with pytest.raises(ValueError):
            DeploymentSpec(engine="remus", period=float("inf"))


class TestProtectedDeployment:
    def test_full_stack_assembled(self):
        deployment = ProtectedDeployment(
            DeploymentSpec(memory_bytes=GIB, target_degradation=0.0, period=3.0)
        )
        assert deployment.primary.flavor == "xen"
        assert deployment.secondary.flavor == "kvm"
        assert deployment.vm.is_running

    def test_protection_lifecycle(self):
        deployment = ProtectedDeployment(
            DeploymentSpec(memory_bytes=GIB, target_degradation=0.0, period=2.0)
        )
        deployment.start_protection()
        deployment.run_for(10.0)
        assert deployment.stats.checkpoint_count >= 2
        assert deployment.replica is not None

    def test_attach_service_requires_protection(self):
        deployment = ProtectedDeployment(DeploymentSpec(memory_bytes=GIB))
        with pytest.raises(RuntimeError):
            deployment.attach_service()

    def test_remus_deployment(self):
        deployment = ProtectedDeployment(
            DeploymentSpec(
                engine="remus",
                period=2.0,
                memory_bytes=GIB,
                secondary_flavor="xen",
            )
        )
        deployment.start_protection()
        deployment.run_for(8.0)
        assert deployment.stats.checkpoint_count >= 2

    def test_unprotected_baseline_never_pauses(self):
        deployment = unprotected_baseline(DeploymentSpec(memory_bytes=GIB))
        deployment.run_for(20.0)
        assert deployment.vm.pause_count == 0
        assert deployment.service is not None

    def test_colo_deployment(self):
        deployment = ProtectedDeployment(
            DeploymentSpec(
                engine="colo",
                comparison_interval=0.05,
                memory_bytes=GIB,
                secondary_flavor="xen",
            )
        )
        # Lock-stepping has no ASR failover protocol to arm.
        assert deployment.failover is None
        deployment.start_protection()
        deployment.run_for(5.0)
        assert deployment.stats.comparison_count > 10
        assert deployment.replica.is_running

    def test_colo_deployment_serves_through_output_commit(self):
        deployment = ProtectedDeployment(
            DeploymentSpec(
                engine="colo", memory_bytes=GIB, secondary_flavor="xen"
            )
        )
        deployment.start_protection()
        connection = deployment.attach_service()
        request = deployment.sim.process(connection.request())
        latency = deployment.sim.run_until_triggered(
            request, limit=deployment.sim.now + 5.0
        )
        assert latency < 0.1


class TestProtectedFleet:
    @staticmethod
    def make_planned_fleet(vms=4, seed=0):
        from repro.cluster import (
            PlacementRequest,
            ProtectedFleet,
            ReplicationPlanner,
        )
        from repro.hardware import Host, MemorySpec
        from repro.hypervisor import KvmHypervisor, XenHypervisor

        sim = Simulation(seed=seed)
        xen = XenHypervisor(
            sim,
            Host(sim, "xen-0", memory=MemorySpec(total_bytes=64 * GIB)),
            here_patches=True,
        )
        kvms = [
            KvmHypervisor(
                sim,
                Host(sim, f"kvm-{i}", memory=MemorySpec(total_bytes=64 * GIB)),
            )
            for i in range(2)
        ]
        requests = []
        for index in range(vms):
            vm = xen.create_vm(f"vm-{index}", vcpus=2, memory_bytes=GIB)
            vm.start()
            requests.append(PlacementRequest(f"vm-{index}", xen, GIB))
        plan = ReplicationPlanner([xen] + kvms).plan(requests)
        assert plan.fully_placed
        fleet = ProtectedFleet(
            sim, plan, EngineRecipe(target_degradation=0.0, t_max=2.0)
        )
        return sim, plan, fleet

    def test_one_engine_per_placement_sharing_pair_links(self):
        _sim, plan, fleet = self.make_planned_fleet()
        assert set(fleet.engines) == {p.vm_name for p in plan.placements}
        # One shared LinkPair per host pair, not per VM.
        assert set(fleet.links) == set(plan.by_host_pair())
        for pair, placements in plan.by_host_pair().items():
            for placement in placements:
                assert fleet.engines[placement.vm_name].link is (
                    fleet.links[pair]
                )

    def test_fleet_replicates_all_vms(self):
        sim, _plan, fleet = self.make_planned_fleet()
        fleet.start_protection()
        sim.run(until=sim.now + 8.0)
        for vm_name, engine in fleet.engines.items():
            assert engine.stats.checkpoint_count >= 2, vm_name
        fleet.halt("test over")
        sim.run(until=sim.now + 1.0)
        assert all(not e.is_active for e in fleet.engines.values())

    def test_every_fleet_engine_runs_the_stage_pipeline(self):
        _sim, _plan, fleet = self.make_planned_fleet()
        fleet.start_protection()
        for engine in fleet.engines.values():
            assert engine.pipeline.has_stage("translate")  # xen -> kvm
            assert engine.pipeline.has_stage("commit-release")

    def test_empty_plan_rejected(self):
        from repro.cluster import PlanResult, ProtectedFleet

        with pytest.raises(ValueError):
            ProtectedFleet(
                Simulation(seed=0),
                PlanResult(),
                EngineRecipe(target_degradation=0.0, t_max=2.0),
            )


class TestVirtManager:
    def test_provision_and_query(self):
        sim = Simulation(seed=0)
        testbed = build_testbed(sim)
        manager = VirtManager(sim)
        xen_connection = manager.provision_host(testbed.primary, "xen")
        kvm_connection = manager.provision_host(testbed.secondary, "kvm")
        assert manager.list_uris() == [
            "kvm://host-B/system",
            "xen://host-A/system",
        ]
        info = xen_connection.host_info()
        assert info["hypervisor"] == "Xen"
        assert kvm_connection.host_info()["hypervisor"] == "Linux KVM"

    def test_domain_lifecycle_via_facade(self):
        sim = Simulation(seed=0)
        testbed = build_testbed(sim)
        manager = VirtManager(sim)
        connection = manager.provision_host(testbed.primary, "xen")
        connection.define_domain(DomainSpec(name="web", vcpus=2, memory_gib=1))
        vm = connection.start_domain("web")
        assert vm.is_running
        assert connection.list_domains() == ["web"]
        connection.destroy_domain("web")
        assert connection.list_domains() == []

    def test_heterogeneous_pairs(self):
        sim = Simulation(seed=0)
        testbed = build_testbed(sim)
        manager = VirtManager(sim)
        manager.provision_host(testbed.primary, "xen")
        manager.provision_host(testbed.secondary, "kvm")
        pairs = manager.heterogeneous_pairs()
        assert len(pairs) == 1

    def test_unknown_connection(self):
        manager = VirtManager(Simulation())
        with pytest.raises(KeyError):
            manager.connection("xen://nowhere/system")


class TestScenarios:
    """Table 2 end to end: the paper's coverage matrix must emerge from
    the simulation, not be asserted into it."""

    @pytest.fixture(scope="class")
    def results(self):
        runner = ScenarioRunner(seed=11, settle_time=15.0)
        return runner.coverage_matrix_results()

    def test_every_scenario_matches_table2(self, results):
        mismatches = [r.name for r in results if not r.matches_expectation]
        assert mismatches == []

    def test_host_failures_are_covered(self, results):
        host_results = [r for r in results if not r.guest_failure]
        assert all(r.service_survived for r in host_results)
        assert all(r.failover_happened for r in host_results)

    def test_guest_self_failures_are_not_covered(self, results):
        guest_results = [r for r in results if r.guest_failure]
        assert guest_results
        assert all(not r.service_survived for r in guest_results)

    def test_resumption_times_reported(self, results):
        for result in results:
            if result.failover_happened:
                assert 0 < result.resumption_time < 0.1

    def test_second_exploit_bounces(self):
        runner = ScenarioRunner(seed=11, settle_time=15.0)
        outcome = runner.second_exploit_bounces()
        assert outcome["first_succeeded"]
        assert not outcome["second_succeeded"]
        assert outcome["replica_running"]

    def test_starvation_scenario_needs_detector(self):
        from repro.security import PostAttackOutcome

        runner = ScenarioRunner(seed=13, settle_time=15.0)
        result = runner.dos_exploit_host_failure(
            FailureSource.GUEST_USER, PostAttackOutcome.STARVATION
        )
        assert result.matches_expectation
