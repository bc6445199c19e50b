"""Baseline study: ASR (Remus/HERE) vs lock-stepping (COLO) — §3.1.

The paper's §3.1 decision — build HERE on asynchronous state
replication rather than COLO's lock-stepping — rests on two claims:

1. LSR's advantage: with similar device models (homogeneous pair),
   output comparison keeps client latency at comparison-interval scale
   instead of checkpoint-interval scale;
2. LSR's dealbreaker: across *different* hypervisors the replicas
   diverge almost every comparison, degenerating into continuous
   forced synchronisation — worse than Remus, and useless for HERE's
   security goal.

This benchmark measures both claims on the simulated testbed.
"""

import pytest

from repro.analysis import render_table
from repro.hardware import GIB, Link, build_testbed, ethernet_x710
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.net import ServiceConnection, open_loop_client
from repro.replication import ColoEngine, EngineRecipe, here_engine, remus_engine
from repro.simkernel import Simulation
from repro.workloads import MemoryMicrobenchmark

from harness import BENCH_SEED, print_header

MEASURE = 40.0


def run_system(kind):
    sim = Simulation(seed=BENCH_SEED)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    heterogeneous = kind in ("here", "colo-heterogeneous")
    if heterogeneous:
        secondary = KvmHypervisor(sim, testbed.secondary)
    else:
        secondary = XenHypervisor(sim, testbed.secondary)
    vm = xen.create_vm("svc", vcpus=4, memory_bytes=2 * GIB)
    vm.start()
    workload = MemoryMicrobenchmark(sim, vm, load=0.2)
    workload.start()
    if kind == "remus":
        engine = remus_engine(sim, xen, secondary, testbed.interconnect, period=3.0)
    elif kind == "here":
        engine = here_engine(
            sim, xen, secondary, testbed.interconnect,
            EngineRecipe(
                target_degradation=0.3, t_max=5.0, sigma=0.1,
                initial_period=0.5,
            ),
        )
    else:
        engine = ColoEngine(
            sim, xen, secondary, testbed.interconnect,
            allow_heterogeneous=heterogeneous,
        )
    engine.start("svc")
    sim.run_until_triggered(engine.ready)
    connection = ServiceConnection(
        sim, vm, Link(sim, ethernet_x710()), engine.device_manager.egress
    )
    errors = []
    sim.process(
        open_loop_client(
            sim, connection, rate_per_s=20.0, duration=MEASURE,
            on_error=errors.append,
        )
    )
    mark = workload.mark()
    sim.run(until=sim.now + MEASURE + 10.0)
    row = {
        "system": kind,
        "mean_latency_ms": connection.latency.mean() * 1000,
        "p99_latency_ms": connection.latency.percentile(99) * 1000,
        "workload_slowdown_pct": 100.0
        * (1.0 - workload.throughput_since(mark) / workload.work_rate()),
        "heterogeneous": heterogeneous,
    }
    if kind.startswith("colo"):
        row["divergence_rate"] = engine.stats.divergence_rate
    return row


def run_all():
    return [
        run_system("remus"),
        run_system("colo-homogeneous"),
        run_system("here"),
        run_system("colo-heterogeneous"),
    ]


def test_baseline_colo_vs_asr(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_header("Baseline: ASR (Remus/HERE) vs lock-stepping (COLO)")
    print(render_table(rows))

    by_system = {row["system"]: row for row in rows}
    # Claim 1: homogeneous COLO crushes Remus on latency (output
    # compared every 20 ms instead of buffered for 3 s).
    assert (
        by_system["colo-homogeneous"]["mean_latency_ms"]
        < by_system["remus"]["mean_latency_ms"] / 10.0
    )
    # Claim 2: heterogeneous COLO degenerates — near-certain divergence
    # and a workload cost far beyond its homogeneous self.
    assert by_system["colo-heterogeneous"]["divergence_rate"] > 0.8
    assert (
        by_system["colo-heterogeneous"]["workload_slowdown_pct"]
        > 3 * by_system["colo-homogeneous"]["workload_slowdown_pct"]
    )
    # HERE's position: heterogeneous (the security property) with
    # latency far below Remus — the paper's chosen trade-off.
    assert by_system["here"]["heterogeneous"]
    assert (
        by_system["here"]["mean_latency_ms"]
        < by_system["remus"]["mean_latency_ms"] / 3.0
    )
