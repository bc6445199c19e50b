"""Golden equivalence: one shard on the sharded kernel IS the monolith.

The whole fleet story rests on one claim: advancing a shard calendar
in bounded quanta is *indistinguishable* from running it monolithically
(the horizon contract pinned in ``Simulation.run``).  This test proves
it at deployment level — a full HERE-protected pair (hosts, link, VM,
dirty-page workload, checkpoint stream) run both ways from the same
seed must produce bit-for-bit identical statistics, for any quantum,
including one that does not divide the horizon.
"""

from repro.hardware.host import Host
from repro.hardware.link import LinkPair
from repro.hardware.memory import MemorySpec
from repro.hardware.units import GIB
from repro.hypervisor import registry
from repro.replication.here import EngineRecipe, here_engine
from repro.simkernel.core import Simulation
from repro.simkernel.random import derive_seed
from repro.simkernel.sharded import ShardedSimulation
from repro.workloads import MemoryMicrobenchmark

SEED = 20260808
HORIZON = 45.0


def build_pair(sim):
    """An identical protected pair, whichever calendar owns it."""
    primary_host = Host(
        sim, "alpha", memory=MemorySpec(total_bytes=16 * GIB)
    )
    secondary_host = Host(
        sim, "beta", memory=MemorySpec(total_bytes=16 * GIB)
    )
    primary = registry.install("xen", sim, primary_host)
    secondary = registry.install("kvm", sim, secondary_host)
    link = LinkPair(sim, primary_host.interconnect, name="ic")
    vm = primary.create_vm(
        "golden-vm",
        vcpus=2,
        memory_bytes=2 * GIB,
        seed=derive_seed(SEED, "vm"),
    )
    vm.start()
    engine = here_engine(
        sim,
        primary,
        secondary,
        link,
        EngineRecipe(target_degradation=0.3, t_max=5.0),
        name="here:golden",
    )
    workload = MemoryMicrobenchmark(sim, vm, load=0.4)
    return engine, workload


def signature(sim, engine, workload):
    """Every observable stat, exact floats included."""
    stats = engine.stats
    return (
        sim.now,
        sim.events_processed,
        stats.started_at,
        stats.seeding_duration,
        stats.seeding_downtime,
        len(stats.checkpoints),
        tuple(
            (
                c.epoch,
                c.started_at,
                c.period_used,
                c.pause_duration,
                c.transfer_duration,
                c.dirty_pages,
                c.bytes_sent,
                c.acked_at,
            )
            for c in stats.checkpoints
        ),
        workload.throughput(),
    )


def run_monolithic():
    sim = Simulation(seed=SEED)
    engine, workload = build_pair(sim)
    workload.start()
    engine.start("golden-vm")
    sim.run(until=HORIZON)
    return signature(sim, engine, workload)


def run_sharded(quantum):
    sharded = ShardedSimulation(seed=999, quantum=quantum)
    sim = sharded.add_shard("pair", seed=SEED)
    engine, workload = build_pair(sim)
    workload.start()
    engine.start("golden-vm")
    sharded.run(until=HORIZON)
    return signature(sim, engine, workload)


class TestGoldenEquivalence:
    def test_single_pair_matches_monolith_bit_for_bit(self):
        golden = run_monolithic()
        assert golden[5] > 3, "scenario must actually checkpoint"
        assert run_sharded(quantum=0.5) == golden

    def test_equivalence_holds_for_any_quantum(self):
        golden = run_monolithic()
        # Coarse, fine, and a quantum that does not divide the horizon
        # (the final quantum is truncated to land exactly on it).
        for quantum in (5.0, 0.125, 0.7):
            assert run_sharded(quantum) == golden, quantum

    def test_sharded_run_is_self_deterministic(self):
        assert run_sharded(0.5) == run_sharded(0.5)
