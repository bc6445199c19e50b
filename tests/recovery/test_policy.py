"""The RecoveryController gate: policy between detection and failover."""

import pytest

from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.hardware.units import GIB
from repro.recovery import (
    MicrorebootConfig,
    MicrorebootEngine,
    RecoveryController,
    RecoveryPolicy,
)
from repro.replication.failover import FailoverController
from repro.replication.heartbeat import HeartbeatMonitor
from repro.telemetry import Recorder


def build(policy, seed=9, **config_kwargs):
    """A protected pair whose failover watches a recovery gate."""
    deployment = ProtectedDeployment(
        DeploymentSpec(engine="here", memory_bytes=GIB, seed=seed)
    )
    sim = deployment.sim
    recorder = Recorder.attach(sim.telemetry)
    deployment.engine.start(deployment.spec.vm_name)
    sim.run_until_triggered(deployment.engine.ready)
    monitor = HeartbeatMonitor(
        sim,
        deployment.testbed.primary,
        deployment.primary,
        deployment.testbed.interconnect,
        interval=0.03,
        miss_threshold=3,
    )
    monitor.start()
    microreboot = MicrorebootEngine(
        sim, deployment.primary, config=MicrorebootConfig(**config_kwargs)
    )
    gate = RecoveryController(
        sim, deployment.engine, monitor, microreboot, policy=policy
    )
    gate.start()
    failover = FailoverController(sim, deployment.engine, gate)
    failover.arm()
    return deployment, recorder, monitor, gate, failover


def resolve(deployment, gate):
    deployment.sim.run_until_triggered(gate.completed)
    return gate.report


class TestRecoverInPlace:
    def test_success_keeps_vm_on_primary(self):
        deployment, recorder, _mon, gate, failover = build(
            "recover-in-place", success_prob_crash=1.0
        )
        detected = gate.failure_detected
        deployment.primary.crash("test crash")
        report = resolve(deployment, gate)
        assert report.recovered and report.attempted
        assert report.fault_class == "crash"
        assert report.blackout == pytest.approx(report.unprotected_window)
        # The suspicion never reached the failover controller.
        assert not detected.triggered
        assert failover.report is None
        assert deployment.vm.is_running
        assert deployment.primary.is_running_normally
        # Redundancy restored incrementally: reprotection span with the
        # recover-in-place mode, window = detection -> re-armed.
        spans = recorder.spans("reprotection")
        assert len(spans) == 1
        assert spans[0].attrs["mode"] == "recover-in-place"
        assert spans[0].attrs["unprotected_window"] == pytest.approx(
            report.unprotected_window
        )
        # The re-armed engine keeps checkpointing afterwards (the
        # default period is 5s, so give it a couple of cycles).
        before = len(recorder.spans("replication.checkpoint"))
        deployment.run_for(12.0)
        assert len(recorder.spans("replication.checkpoint")) > before

    def test_failure_has_no_fallback(self):
        deployment, recorder, _mon, gate, failover = build(
            "recover-in-place", success_prob_crash=0.0
        )
        deployment.primary.crash("test crash")
        report = resolve(deployment, gate)
        assert report.attempted and not report.recovered
        assert not report.escalated
        deployment.run_for(5.0)
        # No failover: the VM is simply gone.
        assert failover.report is None
        assert deployment.vm.is_destroyed
        spans = recorder.spans("recovery")
        assert spans[-1].attrs["outcome"] == "abandoned"


class TestHybrid:
    def test_failed_microreboot_falls_back_to_failover(self):
        deployment, recorder, _mon, gate, failover = build(
            "hybrid", success_prob_crash=0.0
        )
        deployment.primary.crash("test crash")
        report = resolve(deployment, gate)
        assert report.attempted and report.escalated
        assert "latent corruption" in report.failure_reason
        deployment.run_for(5.0)
        assert failover.report is not None
        assert not failover.report.failed
        assert deployment.engine.replica_vm.is_running
        spans = recorder.spans("recovery")
        assert spans[-1].attrs["outcome"] == "failover"

    def test_overdue_microreboot_escalates_at_the_deadline(self):
        deployment, _rec, _mon, gate, failover = build(
            "hybrid",
            rebuild_time_min=5.0,
            rebuild_time_max=6.0,
            deadline=0.5,
        )
        deployment.primary.crash("test crash")
        report = resolve(deployment, gate)
        assert report.attempted and report.escalated
        assert "deadline" in report.failure_reason
        assert report.resolved_at - report.detected_at == pytest.approx(
            0.5, abs=1e-6
        )
        deployment.run_for(5.0)
        assert failover.report is not None and not failover.report.failed

    def test_dead_host_escalates_without_attempting(self):
        deployment, _rec, _mon, gate, failover = build("hybrid")
        deployment.testbed.primary.fail("power cut")
        report = resolve(deployment, gate)
        assert report.escalated and not report.attempted
        assert "host is down" in report.failure_reason
        deployment.run_for(5.0)
        assert failover.report is not None

    def test_detection_latency_bound_includes_deadline(self):
        deployment, _rec, monitor, gate, _failover = build("hybrid")
        assert gate.detection_latency_bound == pytest.approx(
            monitor.detection_latency_bound
            + gate.microreboot.config.deadline
        )


class TestValidation:
    def test_double_start_rejected(self):
        deployment, _rec, _mon, gate, _failover = build("hybrid")
        with pytest.raises(RuntimeError):
            gate.start()

    def test_policy_parsed(self):
        assert build("hybrid")[3].policy is RecoveryPolicy.HYBRID

    def test_failover_policy_rejected(self):
        # Under the failover policy the failover controller watches the
        # detector directly; there is no gate to build.
        with pytest.raises(ValueError, match="no recovery gate"):
            build("failover")
