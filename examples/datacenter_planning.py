#!/usr/bin/env python3
"""Fleet-scale planning: who protects whom, and what it buys (§7.7).

An operator has a mixed rack — one Xen host, two KVM hosts — and five
VMs of different sizes that need DoS-robust protection.  The
:class:`ReplicationPlanner` chooses heterogeneous pairings under
capacity constraints; one pairing is then brought up for real, its
timings measured, and the availability arithmetic translated into the
numbers a capacity review wants: RPO, RTO, expected annual downtime
with and without HERE.

Run:  python examples/datacenter_planning.py
"""

from repro.analysis import (
    ReplicationTimings,
    compare_availability,
    render_table,
)
from repro.cluster import PlacementRequest, ReplicationPlanner
from repro.faults.protection import protect_engine
from repro.hardware import GIB, Host, LinkPair, MemorySpec, omnipath_hfi100
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.replication import EngineRecipe, here_engine
from repro.simkernel import Simulation
from repro.workloads import MemoryMicrobenchmark


def main() -> None:
    sim = Simulation(seed=19)
    xen = XenHypervisor(
        sim, Host(sim, "rack2-xen", memory=MemorySpec(total_bytes=128 * GIB))
    )
    kvm_a = KvmHypervisor(
        sim, Host(sim, "rack2-kvm-a", memory=MemorySpec(total_bytes=64 * GIB))
    )
    kvm_b = KvmHypervisor(
        sim, Host(sim, "rack2-kvm-b", memory=MemorySpec(total_bytes=64 * GIB))
    )

    vm_sizes = {"db": 32, "web-1": 8, "web-2": 8, "cache": 16, "batch": 24}
    for name, size in vm_sizes.items():
        xen.create_vm(name, vcpus=4, memory_bytes=size * GIB).start()

    planner = ReplicationPlanner([xen, kvm_a, kvm_b])
    plan = planner.plan(
        [
            PlacementRequest(name, xen, size * GIB)
            for name, size in vm_sizes.items()
        ]
    )
    print(render_table(
        [
            {
                "vm": placement.vm_name,
                "primary": placement.primary.host.name,
                "secondary": placement.secondary.host.name,
                "heterogeneous": placement.heterogeneous,
            }
            for placement in plan.placements
        ],
        title="Replication plan",
    ))
    for vm_name, reason in plan.unplaced.items():
        print(f"UNPLACED {vm_name}: {reason}")
    print(f"\nload per secondary: {plan.load_by_secondary()}")

    # Bring up one pairing for real and measure its timings.
    target = "db"
    secondary = plan.secondary_of(target)
    MemoryMicrobenchmark(sim, xen.get_vm(target), load=0.3).start()
    link = LinkPair(sim, omnipath_hfi100())
    # The (D, T_max, sigma) surface, written once: every other pairing
    # in the plan would be brought up from this same recipe.
    recipe = EngineRecipe(
        target_degradation=0.3, t_max=10.0, sigma=0.5, initial_period=1.0,
    )
    engine = here_engine(sim, xen, secondary, link, recipe, name=f"here-{target}")
    engine.start(target)
    sim.run_until_triggered(engine.ready)
    # Heartbeat on the primary, ASR failover armed behind it.
    protection = protect_engine(sim, engine, interval=0.03, miss_threshold=3)
    sim.run(until=sim.now + 60.0)
    stats = engine.stats

    timings = ReplicationTimings(
        checkpoint_period=stats.mean_period(),
        checkpoint_pause=stats.mean_pause_duration(),
        detection_latency=protection.monitor.detection_latency_bound,
        activation_time=secondary.host.cost_model.replica_activation_time,
    )
    comparison = compare_availability(
        timings,
        failures_per_year=6.0,        # hardware + DoS incidents
        unprotected_reboot_time=300.0,  # reboot + service restore
    )
    print(render_table(
        [
            {"metric": "worst-case RPO (s)", "value": timings.worst_case_rpo},
            {"metric": "RTO (s)", "value": timings.recovery_time},
            {"metric": "steady degradation (%)",
             "value": timings.steady_state_degradation * 100},
            {"metric": "annual downtime unprotected (min)",
             "value": comparison.failures_per_year
             * comparison.unprotected_downtime_s / 60},
            {"metric": "annual downtime with HERE (s)",
             "value": comparison.failures_per_year
             * comparison.replicated_downtime_s},
            {"metric": "downtime reduction",
             "value": f"{comparison.downtime_reduction_factor:,.0f}x"},
            {"metric": "nines unprotected",
             "value": comparison.unprotected_nines},
            {"metric": "nines with HERE",
             "value": comparison.replicated_nines},
        ],
        title=f"\nWhat protecting '{target}' buys (measured timings)",
    ))


if __name__ == "__main__":
    main()
