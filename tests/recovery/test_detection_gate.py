"""Phi-accrual suspicion routed through the recovery gate.

Satellite regression for the ReHype integration: while a microreboot
is in flight the hypervisor is silent — probes go unanswered and the
phi detector's suspicion fires — but the gate must withhold that
suspicion from the failover controller until the policy resolves.  No
spurious failover mid-rebuild; a guaranteed failover once the recovery
deadline passes.
"""

import pytest

from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.faults import PhiAccrualDetector
from repro.hardware.units import GIB
from repro.recovery import (
    MicrorebootConfig,
    MicrorebootEngine,
    RecoveryController,
)
from repro.replication.failover import FailoverController
from repro.telemetry import Recorder


def build(policy="hybrid", seed=17, **config_kwargs):
    """A protected pair watched by a phi detector behind a gate."""
    deployment = ProtectedDeployment(
        DeploymentSpec(engine="here", memory_bytes=GIB, seed=seed)
    )
    sim = deployment.sim
    recorder = Recorder.attach(sim.telemetry)
    deployment.engine.start(deployment.spec.vm_name)
    sim.run_until_triggered(deployment.engine.ready)
    detector = PhiAccrualDetector(
        sim,
        deployment.testbed.primary,
        deployment.primary,
        deployment.testbed.interconnect,
        interval=0.03,
        threshold=8.0,
    )
    detector.start()
    microreboot = MicrorebootEngine(
        sim, deployment.primary, config=MicrorebootConfig(**config_kwargs)
    )
    gate = RecoveryController(
        sim, deployment.engine, detector, microreboot, policy=policy
    )
    gate.start()
    failover = FailoverController(sim, deployment.engine, gate)
    failover.arm()
    return deployment, recorder, detector, gate, failover


class TestSilentRebuildWindow:
    def test_no_spurious_failover_while_microreboot_in_flight(self):
        deployment, _rec, detector, gate, failover = build(
            success_prob_crash=1.0,
            rebuild_time_min=1.0,
            rebuild_time_max=1.5,
            deadline=5.0,
        )
        sim = deployment.sim
        deployment.primary.crash("test crash")
        # The phi detector notices the silence quickly...
        sim.run_until_triggered(detector.failure_detected)
        assert "phi=" in detector.failure_detected.value
        # ...and the gate starts the microreboot.  Mid-rebuild the
        # hypervisor is still silent, but the suspicion must stay
        # inside the gate: the failover controller sees nothing.
        deployment.run_for(0.5)
        assert not deployment.primary.is_responsive  # still rebuilding
        assert not gate.failure_detected.triggered
        assert failover.report is None
        # No promotion: the replica shell stays dormant on the secondary.
        assert not deployment.engine.replica_vm.is_running
        # The rebuild lands well inside the deadline: recovered in
        # place, and the failover never fires at all.
        sim.run_until_triggered(gate.completed)
        assert gate.report.recovered
        deployment.run_for(3.0)
        assert failover.report is None
        assert deployment.vm.is_running
        assert deployment.primary.is_running_normally

    def test_deadline_exceeded_releases_suspicion_to_failover(self):
        deployment, recorder, _det, gate, failover = build(
            success_prob_crash=1.0,
            rebuild_time_min=4.0,
            rebuild_time_max=5.0,
            deadline=1.0,
        )
        sim = deployment.sim
        deployment.primary.crash("test crash")
        sim.run_until_triggered(gate.completed)
        report = gate.report
        assert report.attempted and report.escalated
        assert "deadline" in report.failure_reason
        # The withheld suspicion is now propagated and the normal
        # failover path takes over on the secondary.
        assert gate.failure_detected.triggered
        deployment.run_for(5.0)
        assert failover.report is not None
        assert not failover.report.failed
        assert deployment.engine.replica_vm.is_running
        spans = recorder.spans("recovery")
        assert spans[-1].attrs["outcome"] == "failover"

    def test_detection_latency_bound_stacks_gate_deadline(self):
        _deployment, _rec, detector, gate, _failover = build(deadline=2.0)
        assert gate.detection_latency_bound == pytest.approx(
            detector.detection_latency_bound + 2.0
        )

