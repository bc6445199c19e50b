"""Ablation: checkpoint-stream compression vs interconnect speed.

Remus can XBRLE-compress checkpoint pages.  Compression trades CPU for
wire bytes, so its value depends entirely on where the checkpoint path
is bound:

* on the paper's 100 Gbit Omni-Path the path is CPU-bound (50 µs/page
  vs 0.33 µs of wire time) — compression only adds encode cost;
* on a thin link (0.5 Gbit, e.g. WAN replication between sites) the
  path is wire-bound — compression cuts the checkpoint time by nearly
  the compression ratio.

The model predicts the break-even at PAGE/(α+κ) ≈ 73 MB/s ≈ 0.6 Gbit;
this ablation measures both sides of it.
"""

import pytest

from repro.analysis import render_table
from repro.hardware import GIB, Host, LinkPair, MemorySpec, custom_nic
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.replication import XBRLE, EngineRecipe
from repro.replication.engine import ReplicationEngine
from repro.simkernel import Simulation
from repro.workloads import MemoryMicrobenchmark

from harness import BENCH_SEED, print_header

LINKS = {"100Gbit": 100.0, "2Gbit": 2.0, "0.5Gbit": 0.5}


def run_one(link_gbits, compression):
    sim = Simulation(seed=BENCH_SEED)
    xen = XenHypervisor(
        sim, Host(sim, "p", memory=MemorySpec(total_bytes=64 * GIB))
    )
    kvm = KvmHypervisor(
        sim, Host(sim, "s", memory=MemorySpec(total_bytes=64 * GIB))
    )
    link = LinkPair(sim, custom_nic("link", gbits=link_gbits))
    vm = xen.create_vm("vm", vcpus=4, memory_bytes=2 * GIB)
    vm.start()
    MemoryMicrobenchmark(sim, vm, load=0.4).start()
    config = EngineRecipe(target_degradation=0.0, t_max=4.0).config()
    config.compression = compression
    engine = ReplicationEngine(sim, xen, kvm, link, config)
    engine.start("vm")
    sim.run_until_triggered(engine.ready, limit=1e6)
    sim.run(until=sim.now + 60.0)
    return engine.stats.mean_transfer_duration()


def run_grid():
    rows = []
    for label, gbits in LINKS.items():
        raw = run_one(gbits, None)
        compressed = run_one(gbits, XBRLE)
        rows.append(
            {
                "link": label,
                "raw_transfer_s": raw,
                "xbrle_transfer_s": compressed,
                "compression_gain_pct": 100.0 * (1.0 - compressed / raw),
            }
        )
    return rows


def test_ablation_compression_crossover(benchmark):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    print_header("Ablation: XBRLE compression vs interconnect capacity")
    print(render_table(rows))
    print(
        f"\nmodel break-even: "
        f"{XBRLE.breakeven_link_capacity(50e-6) * 8 / 1e9:.2f} Gbit/s"
    )

    by_link = {row["link"]: row for row in rows}
    # Fat link: CPU-bound, compression is a (small) pure loss.
    assert by_link["100Gbit"]["compression_gain_pct"] < 0.0
    # Thin link: wire-bound, compression wins big.
    assert by_link["0.5Gbit"]["compression_gain_pct"] > 40.0
    # The crossover sits between 0.5 and 100 Gbit, near the predicted
    # ~0.6 Gbit: at 2 Gbit raw is already CPU-bound again.
    assert (
        by_link["0.5Gbit"]["compression_gain_pct"]
        > by_link["2Gbit"]["compression_gain_pct"]
    )
    # At 2 Gbit the raw path is already CPU-bound again: same (negative)
    # gain as the fat link.
    assert by_link["2Gbit"]["compression_gain_pct"] == pytest.approx(
        by_link["100Gbit"]["compression_gain_pct"], abs=2.0
    )
