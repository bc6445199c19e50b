#!/usr/bin/env python3
"""Heterogeneous live migration through the management facade (§7.7).

Uses the libvirt-style :class:`VirtManager` to provision a small data
center — a Xen host and a KVM host — then live-migrates a running,
loaded guest from Xen to KVM: iterative pre-copy with per-vCPU
threads, problematic-page tracking, state translation through the
common intermediate format, CPUID feature masking, and the guest
agent's device-model switch.

Run:  python examples/heterogeneous_migration.py
"""

from repro.analysis import render_table
from repro.cluster import DomainSpec, VirtManager
from repro.hardware import build_testbed
from repro.integrity import vcpu_leaf
from repro.migration import MigrationConfig, MigrationEngine, MigrationMode
from repro.simkernel import Simulation
from repro.workloads import MemoryMicrobenchmark


def main() -> None:
    sim = Simulation(seed=3)
    testbed = build_testbed(sim, "rack1-xen", "rack1-kvm")

    manager = VirtManager(sim)
    xen_connection = manager.provision_host(testbed.primary, "xen")
    kvm_connection = manager.provision_host(testbed.secondary, "kvm")
    print(render_table(
        [xen_connection.host_info(), kvm_connection.host_info()],
        title="Data center inventory",
    ))
    print(f"\nheterogeneous pairs available: {manager.heterogeneous_pairs()}")

    xen_connection.define_domain(DomainSpec(name="legacy-app", vcpus=4,
                                            memory_gib=8))
    vm = xen_connection.start_domain("legacy-app")
    MemoryMicrobenchmark(sim, vm, load=0.3).start()
    sim.run(until=sim.now + 5.0)
    print(f"\nguest before migration: {vm}")
    print(f"  devices: {sorted(d.model for d in vm.devices)}")
    print(f"  CPUID features: {len(vm.enabled_features)} "
          f"(includes Xen-only extras)")

    engine = MigrationEngine(
        sim,
        xen_connection.hypervisor,
        kvm_connection.hypervisor,
        testbed.interconnect,
        config=MigrationConfig(mode=MigrationMode.HERE),
    )
    leaves_before = [vcpu_leaf(s) for s in vm.vcpu_states]
    process = sim.process(engine.migrate("legacy-app"))
    stats = sim.run_until_triggered(process, limit=1e6)

    print(f"\nmigration {'succeeded' if stats.succeeded else 'FAILED'} "
          f"in {stats.total_duration:.2f}s "
          f"({stats.iteration_count} pre-copy iterations, "
          f"downtime {stats.downtime * 1000:.0f} ms)")
    print(render_table(
        [
            {
                "iteration": record.index,
                "duration_s": record.duration,
                "pages_sent": record.pages_sent,
                "new_dirty": record.dirty_pages_produced,
                "problematic": record.problematic_pages,
            }
            for record in stats.iterations
        ],
        title="Pre-copy iterations",
    ))
    print(f"\nproblematic pages resent in stop-and-copy: "
          f"{stats.problematic_pages_resent:.0f}")
    print(f"state translated Xen -> KVM: {stats.translated}")
    print(f"\nguest after migration: {vm}")
    print(f"  now managed by: {kvm_connection.uri} "
          f"({kvm_connection.list_domains()})")
    print(f"  devices: {sorted(d.model for d in vm.devices)}")
    unchanged = leaves_before == [vcpu_leaf(s) for s in vm.vcpu_states]
    print(f"  vCPU architectural state preserved: {unchanged}")


if __name__ == "__main__":
    main()
