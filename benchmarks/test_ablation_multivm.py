"""Ablation: protecting a fleet of VMs over one interconnect.

The paper evaluates one protected VM per host pair; real deployments
protect many.  Every engine shares the Omni-Path link (fair-share
capacity split) and the primary host's CPUs, so per-VM checkpoint cost
grows with fleet size.  This ablation sweeps the fleet and reports the
per-VM checkpoint transfer time and aggregate interconnect load.
"""

import pytest

from repro.analysis import render_table
from repro.hardware import GIB, build_testbed
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.replication import EngineRecipe, here_engine
from repro.simkernel import Simulation
from repro.workloads import MemoryMicrobenchmark

from harness import BENCH_SEED, print_header

FLEET_SIZES = [1, 2, 4, 8]


def run_fleet(n_vms):
    sim = Simulation(seed=BENCH_SEED)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    kvm = KvmHypervisor(sim, testbed.secondary)
    engines = []
    for index in range(n_vms):
        name = f"vm-{index}"
        vm = xen.create_vm(name, vcpus=4, memory_bytes=2 * GIB)
        vm.start()
        MemoryMicrobenchmark(
            sim, vm, load=0.3, name=f"wl-{index}"
        ).start()
        engine = here_engine(
            sim, xen, kvm, testbed.interconnect,
            EngineRecipe(target_degradation=0.0, t_max=4.0),
            name=f"here-{index}",
        )
        engine.start(name)
        engines.append(engine)
    for engine in engines:
        sim.run_until_triggered(engine.ready, limit=1e6)
    measure_start = sim.now
    sim.run(until=sim.now + 60.0)
    transfer = [e.stats.mean_transfer_duration() for e in engines]
    return {
        "fleet_size": n_vms,
        "mean_transfer_s": sum(transfer) / len(transfer),
        "worst_transfer_s": max(transfer),
        "checkpoints_total": sum(e.stats.checkpoint_count for e in engines),
        "interconnect_util_pct": 100
        * testbed.interconnect.forward.utilisation(since=measure_start),
        "host_cpu_pct": 100
        * testbed.primary.cpu_accounting.utilisation(
            "replication", since=measure_start
        ),
    }


def run_sweep():
    return [run_fleet(n) for n in FLEET_SIZES]


def test_ablation_fleet_size(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_header("Ablation: per-VM checkpoint cost vs protected fleet size")
    print(render_table(rows))

    # Every fleet member keeps checkpointing.
    assert all(row["checkpoints_total"] >= row["fleet_size"] * 5 for row in rows)
    # Host CPU cost scales with the fleet.
    cpu = [row["host_cpu_pct"] for row in rows]
    assert cpu == sorted(cpu)
    assert cpu[-1] > 3 * cpu[0]
    # Per-VM transfer time does not improve with sharing; by eight VMs
    # contention is visible.
    transfer = [row["mean_transfer_s"] for row in rows]
    assert transfer[-1] >= transfer[0] * 0.98
