"""Interconnect congestion: the §5.4 measurement-choice rationale.

The paper: "We chose the real checkpoint duration rather than the
replication traffic's packet count to account for variations in the
replication network interface's performance, for example due to
network congestion."  This test constructs exactly that situation — a
narrow interconnect shared with background bulk traffic — and verifies
that Algorithm 1, fed measured pause *durations*, raises the period to
hold the degradation budget, while the dirty-page counts (what a
packet-count controller would see) stay unchanged.
"""

import pytest

from repro.hardware import GIB, Host, LinkPair, MemorySpec, custom_nic
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.replication import EngineRecipe, here_engine
from repro.simkernel import Simulation
from repro.workloads import MemoryMicrobenchmark


def build(congested: bool, seed=29):
    sim = Simulation(seed=seed)
    xen = XenHypervisor(
        sim, Host(sim, "p", memory=MemorySpec(total_bytes=64 * GIB))
    )
    kvm = KvmHypervisor(
        sim, Host(sim, "s", memory=MemorySpec(total_bytes=64 * GIB))
    )
    # A narrow 2 Gbit interconnect: the checkpoint stream becomes
    # wire-bound once it has to share.
    link = LinkPair(sim, custom_nic("2GbE-interconnect", gbits=2.0))
    vm = xen.create_vm("vm", vcpus=4, memory_bytes=2 * GIB)
    vm.start()
    MemoryMicrobenchmark(sim, vm, load=0.4).start()
    engine = here_engine(
        sim, xen, kvm, link,
        EngineRecipe(
            target_degradation=0.3, t_max=20.0, sigma=0.25, initial_period=1.0,
        ),
    )
    engine.start("vm")
    sim.run_until_triggered(engine.ready, limit=1e6)
    if congested:
        # Background bulk traffic (another tenant's migrations) hogs
        # the link for the rest of the run.
        def background():
            while True:
                done = link.forward.transfer(10 * GIB)
                yield done

        sim.process(background())
    sim.run(until=sim.now + 120.0)
    return engine.stats


class TestCongestionAdaptation:
    def test_pause_durations_grow_under_congestion(self):
        quiet = build(congested=False)
        congested = build(congested=True)
        assert (
            congested.mean_pause_duration()
            > 1.3 * quiet.mean_pause_duration()
        )

    def test_dirty_counts_are_blind_to_congestion(self):
        """What a packet-count controller would see: no change."""
        quiet = build(congested=False)
        congested = build(congested=True)
        quiet_rate = sum(
            c.dirty_pages for c in quiet.checkpoints
        ) / sum(c.period_used + c.pause_duration for c in quiet.checkpoints)
        congested_rate = sum(
            c.dirty_pages for c in congested.checkpoints
        ) / sum(
            c.period_used + c.pause_duration for c in congested.checkpoints
        )
        # Per-second dirty production is a workload property; congestion
        # does not move it (the residual difference is dirty-set
        # saturation over the longer periods, not congestion).
        assert congested_rate == pytest.approx(quiet_rate, rel=0.35)

    def test_duration_fed_controller_raises_period(self):
        """Algorithm 1 absorbs the congestion because it measures time."""
        quiet = build(congested=False)
        congested = build(congested=True)
        assert congested.mean_period() > 1.3 * quiet.mean_period()

    def test_degradation_budget_still_respected(self):
        congested = build(congested=True)
        late = [
            c.degradation
            for c in congested.checkpoints
            if c.started_at > congested.checkpoints[-1].started_at / 2
        ]
        mean_late = sum(late) / len(late)
        # The soft target (30 %) holds despite the halved link share.
        assert mean_late < 0.42
