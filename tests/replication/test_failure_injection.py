"""Failure injection at awkward moments: the engine must never wedge."""

import pytest

from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.hardware.units import GIB
from repro.workloads import MemoryMicrobenchmark


def deploy(seed=23, **kwargs):
    defaults = dict(
        engine="here", period=2.0, target_degradation=0.0,
        memory_bytes=2 * GIB, seed=seed,
    )
    defaults.update(kwargs)
    deployment = ProtectedDeployment(DeploymentSpec(**defaults))
    MemoryMicrobenchmark(deployment.sim, deployment.vm, load=0.3).start()
    return deployment


class TestFailuresDuringSeeding:
    def test_primary_dies_mid_seeding(self):
        deployment = deploy()
        sim = deployment.sim
        deployment.engine.start("protected")
        # Seeding of a 2 GiB VM takes ~2.5 s; kill at 1 s.
        sim.schedule_callback(1.0, lambda: deployment.primary.crash("DoS"))
        with pytest.raises(Exception):
            sim.run_until_triggered(deployment.engine.ready, limit=1e4)
        assert not deployment.engine.is_active
        assert "crashed" in deployment.engine.stats.stop_reason

    def test_secondary_dies_mid_seeding_primary_survives(self):
        deployment = deploy()
        sim = deployment.sim
        deployment.engine.start("protected")
        sim.schedule_callback(1.0, lambda: deployment.secondary.crash("DoS"))
        with pytest.raises(Exception):
            sim.run_until_triggered(deployment.engine.ready, limit=1e4)
        sim.run(until=sim.now + 5.0)
        # The protected VM keeps running unprotected.
        assert deployment.vm.is_running
        assert not deployment.engine.device_manager.egress.buffering

    def test_failover_before_consistent_state_reports_loss(self):
        """A failover with no acknowledged checkpoint must report the
        loss rather than activate a garbage replica."""
        deployment = deploy()
        sim = deployment.sim
        deployment.start_protection(wait_ready=False)
        # Kill the primary 0.5 s into seeding — no checkpoint exists.
        sim.schedule_callback(0.5, lambda: deployment.primary.crash("DoS"))
        report = sim.run_until_triggered(
            deployment.failover.completed, limit=sim.now + 30.0
        )
        assert report.failed
        assert "seeding incomplete" in report.failure_reason
        assert not deployment.replica.is_running


class TestFailuresMidCheckpoint:
    def test_primary_dies_during_pause(self):
        deployment = deploy(period=3.0)
        deployment.start_protection()
        sim = deployment.sim
        # Schedule the crash so it lands inside a checkpoint pause: the
        # first checkpoint starts one period after ready.
        first_checkpoint_at = sim.now + 3.0
        sim.schedule_callback(
            first_checkpoint_at - sim.now + 0.1,
            lambda: deployment.primary.crash("mid-checkpoint DoS"),
        )
        sim.run(until=sim.now + 10.0)
        assert not deployment.engine.is_active
        # The replica keeps the last *complete* state (the seeding sync).
        assert deployment.engine.replica_session.has_consistent_state

    def test_both_hosts_die_is_reported_not_crashed(self):
        """HERE is 1-redundant: losing both sides at once is fatal —
        and the failover controller reports it instead of wedging."""
        deployment = deploy()
        deployment.start_protection()
        sim = deployment.sim
        sim.schedule_callback(2.0, lambda: deployment.primary.crash("a"))
        sim.schedule_callback(2.0, lambda: deployment.secondary.crash("b"))
        report = sim.run_until_triggered(
            deployment.failover.completed, limit=sim.now + 30.0
        )
        assert report.failed
        assert "double failure" in report.failure_reason
        assert not deployment.engine.is_active
        assert deployment.vm.is_destroyed
        assert deployment.engine.replica_vm.is_destroyed


class TestRepeatedFailovers:
    def test_engine_restart_after_clean_halt(self):
        """Stopping protection and starting a fresh engine on the same
        VM works — operators re-protect after maintenance."""
        from repro.replication import EngineRecipe, here_engine

        deployment = deploy()
        deployment.start_protection()
        deployment.run_for(6.0)
        first_count = deployment.stats.checkpoint_count
        deployment.engine.halt("maintenance")
        deployment.run_for(1.0)
        # The old replica shell must be removed before re-protecting.
        deployment.secondary.destroy_vm("protected")
        fresh = here_engine(
            deployment.sim,
            deployment.primary,
            deployment.secondary,
            deployment.testbed.interconnect,
            EngineRecipe(target_degradation=0.0, t_max=2.0),
            name="here-second",
        )
        fresh.start("protected")
        deployment.sim.run_until_triggered(fresh.ready, limit=1e5)
        deployment.run_for(6.0)
        assert fresh.stats.checkpoint_count >= 2
        assert first_count >= 2
