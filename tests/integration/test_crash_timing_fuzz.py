"""Crash-timing fuzz: no failure instant may wedge the control plane.

hypothesis drives the primary-crash time across the whole lifecycle —
during seeding, mid-checkpoint, between checkpoints, during the
seeding sync — and in every case the system must reach one of the two
legitimate terminal states:

* a completed failover (successful report, replica running), or
* a reported failover *failure* (seeding incomplete), never an
  unhandled exception or a hung simulation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.hardware.units import GIB
from repro.workloads import MemoryMicrobenchmark


def run_with_crash(crash_time: float, seed: int):
    deployment = ProtectedDeployment(
        DeploymentSpec(
            engine="here",
            period=1.5,
            target_degradation=0.0,
            memory_bytes=GIB,
            seed=seed,
        )
    )
    MemoryMicrobenchmark(deployment.sim, deployment.vm, load=0.3).start()
    sim = deployment.sim
    deployment.start_protection(wait_ready=False)
    sim.schedule_callback(
        crash_time, lambda: deployment.primary.crash("fuzzed DoS")
    )
    report = sim.run_until_triggered(
        deployment.failover.completed, limit=crash_time + 60.0
    )
    return deployment, report


@given(
    crash_time=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_any_crash_instant_reaches_a_clean_terminal_state(crash_time, seed):
    deployment, report = run_with_crash(crash_time, seed)
    if report.failed:
        # Only legitimate before the first acknowledged checkpoint.
        assert "seeding incomplete" in report.failure_reason
        assert deployment.engine.last_acked_epoch == -1
    else:
        assert deployment.replica.is_running
        assert deployment.replica.device_flavor == "kvm"
        assert report.resumption_time < 0.1
        # Output commit: nothing unacknowledged survived anywhere.
        assert deployment.engine.device_manager.egress.held_packets == 0
        assert deployment.engine.device_manager.disk.speculative_writes == 0
    # The engine always stops cleanly.
    assert not deployment.engine.is_active
    assert deployment.engine.stats.stop_reason is not None


@given(
    crash_time=st.floats(min_value=4.0, max_value=30.0, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_post_seeding_crashes_always_fail_over(crash_time):
    """Once seeding finished (ready fired), failover must succeed."""
    deployment = ProtectedDeployment(
        DeploymentSpec(
            engine="here", period=1.5, target_degradation=0.0,
            memory_bytes=GIB, seed=3,
        )
    )
    MemoryMicrobenchmark(deployment.sim, deployment.vm, load=0.3).start()
    deployment.start_protection(wait_ready=True)  # seeding complete
    sim = deployment.sim
    sim.schedule_callback(
        crash_time, lambda: deployment.primary.crash("fuzzed DoS")
    )
    report = sim.run_until_triggered(
        deployment.failover.completed, limit=sim.now + crash_time + 60.0
    )
    assert not report.failed
    assert deployment.replica.is_running
