"""Heterogeneous replica placement planning."""

import pytest

from repro.cluster import PlacementRequest, ReplicationPlanner
from repro.hardware import GIB, Host
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.simkernel import Simulation


def make_fleet(sim, xen_hosts=1, kvm_hosts=2, memory_gib=64):
    from repro.hardware import MemorySpec

    hypervisors = []
    for index in range(xen_hosts):
        host = Host(
            sim, f"xen-host-{index}",
            memory=MemorySpec(total_bytes=int(memory_gib * GIB)),
        )
        hypervisors.append(XenHypervisor(sim, host, here_patches=True))
    for index in range(kvm_hosts):
        host = Host(
            sim, f"kvm-host-{index}",
            memory=MemorySpec(total_bytes=int(memory_gib * GIB)),
        )
        hypervisors.append(KvmHypervisor(sim, host))
    return hypervisors


@pytest.fixture
def fleet():
    sim = Simulation(seed=0)
    return sim, make_fleet(sim)


class TestCandidates:
    def test_only_heterogeneous_alive_capable_hosts(self, fleet):
        _sim, hypervisors = fleet
        xen = hypervisors[0]
        planner = ReplicationPlanner(hypervisors)
        request = PlacementRequest("vm", xen, 8 * GIB)
        candidates = planner.candidates_for(request)
        assert all(c.flavor == "kvm" for c in candidates)
        assert len(candidates) == 2

    def test_dead_hosts_excluded(self, fleet):
        _sim, hypervisors = fleet
        xen, kvm_a, kvm_b = hypervisors
        kvm_a.crash("down")
        planner = ReplicationPlanner(hypervisors)
        candidates = planner.candidates_for(
            PlacementRequest("vm", xen, GIB)
        )
        assert candidates == [kvm_b]

    def test_capacity_excludes(self, fleet):
        _sim, hypervisors = fleet
        xen, kvm_a, _kvm_b = hypervisors
        kvm_a.host.memory_pool.allocate("tenant", 60 * GIB)
        planner = ReplicationPlanner(hypervisors)
        candidates = planner.candidates_for(
            PlacementRequest("vm", xen, 8 * GIB)
        )
        assert kvm_a not in candidates


class TestPlanning:
    def test_spreads_load_across_secondaries(self, fleet):
        _sim, hypervisors = fleet
        xen = hypervisors[0]
        planner = ReplicationPlanner(hypervisors)
        requests = [
            PlacementRequest(f"vm-{i}", xen, 8 * GIB) for i in range(4)
        ]
        result = planner.plan(requests)
        assert result.fully_placed
        load = result.load_by_secondary()
        assert load == {"kvm-host-0": 2, "kvm-host-1": 2}

    def test_never_homogeneous(self, fleet):
        _sim, hypervisors = fleet
        planner = ReplicationPlanner(hypervisors)
        result = planner.plan(
            [PlacementRequest("vm", hypervisors[0], GIB)]
        )
        assert all(p.heterogeneous for p in result.placements)

    def test_projection_prevents_overcommit(self, fleet):
        _sim, hypervisors = fleet
        xen = hypervisors[0]
        planner = ReplicationPlanner(hypervisors)
        # Each secondary has 64 GiB; six 20 GiB VMs need 120 GiB but
        # only 3 fit per host.
        requests = [
            PlacementRequest(f"vm-{i}", xen, 20 * GIB) for i in range(7)
        ]
        result = planner.plan(requests)
        assert len(result.placements) == 6
        assert len(result.unplaced) == 1
        assert "free" in next(iter(result.unplaced.values()))

    def test_no_heterogeneous_fleet_explained(self):
        sim = Simulation(seed=0)
        hypervisors = make_fleet(sim, xen_hosts=2, kvm_hosts=0)
        planner = ReplicationPlanner(hypervisors)
        result = planner.plan(
            [PlacementRequest("vm", hypervisors[0], GIB)]
        )
        assert not result.fully_placed
        assert "no heterogeneous host" in result.unplaced["vm"]

    def test_all_candidates_down_explained(self, fleet):
        _sim, hypervisors = fleet
        xen, kvm_a, kvm_b = hypervisors
        kvm_a.crash("x")
        kvm_b.host.fail("power")
        planner = ReplicationPlanner(hypervisors)
        result = planner.plan([PlacementRequest("vm", xen, GIB)])
        assert "down" in result.unplaced["vm"]

    def test_deterministic(self, fleet):
        _sim, hypervisors = fleet
        planner = ReplicationPlanner(hypervisors)
        requests = [
            PlacementRequest(f"vm-{i}", hypervisors[0], (i + 1) * GIB)
            for i in range(5)
        ]
        first = planner.plan(requests)
        second = planner.plan(requests)
        assert [
            (p.vm_name, p.secondary.host.name) for p in first.placements
        ] == [(p.vm_name, p.secondary.host.name) for p in second.placements]

    def test_placement_feeds_real_deployment(self, fleet):
        """A planned pairing actually replicates."""
        sim, hypervisors = fleet
        from repro.hardware import LinkPair, omnipath_hfi100
        from repro.replication import EngineRecipe, here_engine

        xen = hypervisors[0]
        vm = xen.create_vm("svc", vcpus=2, memory_bytes=GIB)
        vm.start()
        planner = ReplicationPlanner(hypervisors)
        result = planner.plan([PlacementRequest("svc", xen, GIB)])
        secondary = result.secondary_of("svc")
        link = LinkPair(sim, omnipath_hfi100())
        engine = here_engine(
            sim, xen, secondary, link,
            EngineRecipe(target_degradation=0.0, t_max=2.0),
        )
        engine.start("svc")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 6.0)
        assert engine.stats.checkpoint_count >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationPlanner([])
        sim = Simulation()
        fleet = make_fleet(sim)
        with pytest.raises(ValueError):
            PlacementRequest("vm", fleet[0], 0)


class TestInputOrderIndependence:
    """The planner's determinism contract: capacity ties break by stable
    host-name order, so the caller's list order can never change a plan."""

    def _plan_signature(self, hypervisors):
        planner = ReplicationPlanner(hypervisors)
        xen = next(h for h in hypervisors if h.flavor == "xen")
        requests = [
            PlacementRequest(f"vm-{i}", xen, 8 * GIB) for i in range(6)
        ]
        result = planner.plan(requests)
        return (
            [(p.vm_name, p.secondary.host.name) for p in result.placements],
            dict(result.unplaced),
        )

    def test_shuffled_hypervisor_input_yields_identical_plan(self):
        import random

        sim = Simulation(seed=0)
        hypervisors = make_fleet(sim, xen_hosts=1, kvm_hosts=4)
        baseline = self._plan_signature(list(hypervisors))
        shuffler = random.Random(1234)
        for _ in range(10):
            shuffled = list(hypervisors)
            shuffler.shuffle(shuffled)
            assert self._plan_signature(shuffled) == baseline

    def test_capacity_tie_breaks_by_smallest_host_name(self):
        sim = Simulation(seed=0)
        hypervisors = make_fleet(sim, xen_hosts=1, kvm_hosts=3)
        xen = hypervisors[0]
        planner = ReplicationPlanner(list(reversed(hypervisors)))
        result = planner.plan([PlacementRequest("vm", xen, GIB)])
        # All three KVM hosts have identical free capacity: the
        # lexicographically smallest name must win, regardless of the
        # reversed construction order.
        assert result.secondary_of("vm").host.name == "kvm-host-0"


class TestPartiallyPlacedPlans:
    """A plan that could not place every VM must surface the misses —
    grouping and deployment only ever see the placed subset."""

    def _partial_plan(self, sim):
        hypervisors = make_fleet(sim, xen_hosts=2, kvm_hosts=1, memory_gib=64)
        xen = hypervisors[0]
        planner = ReplicationPlanner(hypervisors)
        # One 64 GiB secondary: two 20 GiB VMs fit, the third does not.
        requests = [
            PlacementRequest(f"vm-{i}", xen, 25 * GIB) for i in range(3)
        ]
        return planner.plan(requests)

    def test_by_host_pair_covers_only_placed_vms(self):
        sim = Simulation(seed=0)
        result = self._partial_plan(sim)
        assert not result.fully_placed
        pairs = result.by_host_pair()
        grouped = {
            p.vm_name for placements in pairs.values() for p in placements
        }
        assert grouped == {p.vm_name for p in result.placements}
        assert len(grouped) == 2
        # The missing VM is surfaced with a reason, not silently dropped.
        (missing,) = set(result.unplaced)
        assert missing not in grouped
        assert "free" in result.unplaced[missing]

    def test_protected_fleet_builds_only_placed_engines(self):
        from repro.cluster import ProtectedFleet
        from repro.replication import EngineRecipe

        sim = Simulation(seed=0)
        result = self._partial_plan(sim)
        fleet = ProtectedFleet(
            sim, result, EngineRecipe(target_degradation=0.3, t_max=5.0)
        )
        assert set(fleet.engines) == {p.vm_name for p in result.placements}
        assert set(fleet.links) == set(result.by_host_pair())
        # Callers must notice the miss via the plan itself.
        assert set(result.unplaced) & set(fleet.engines) == set()
        assert len(result.unplaced) == 1
