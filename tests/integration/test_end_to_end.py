"""End-to-end integration: the full HERE story in one place."""

import pytest

from repro.analysis import measure_overhead
from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.hardware.units import GIB
from repro.workloads import MemoryMicrobenchmark, YcsbWorkload


def deploy(seed=7, **kwargs):
    defaults = dict(
        engine="here",
        period=5.0,
        target_degradation=0.0,
        memory_bytes=2 * GIB,
        seed=seed,
    )
    defaults.update(kwargs)
    return ProtectedDeployment(DeploymentSpec(**defaults))


class TestHereVsRemus:
    """The headline performance claim: HERE beats Remus at equal T."""

    def run_engine(self, engine, seed=7):
        deployment = deploy(
            engine=engine,
            period=4.0,
            secondary_flavor="kvm" if engine == "here" else "xen",
            memory_bytes=4 * GIB,
            seed=seed,
        )
        workload = MemoryMicrobenchmark(deployment.sim, deployment.vm, load=0.3)
        workload.start()
        deployment.start_protection()
        deployment.run_for(60.0)
        return deployment.stats, workload

    def test_here_checkpoints_faster_than_remus(self):
        remus_stats, _ = self.run_engine("remus")
        here_stats, _ = self.run_engine("here")
        improvement = 1 - (
            here_stats.mean_transfer_duration()
            / remus_stats.mean_transfer_duration()
        )
        # Fig. 8b: ~49 % lower under memory load.
        assert 0.35 < improvement < 0.6

    def test_here_workload_throughput_higher(self):
        _, remus_workload = self.run_engine("remus")
        _, here_workload = self.run_engine("here")
        assert here_workload.throughput() > remus_workload.throughput()


class TestDynamicControl:
    def test_controller_tracks_target_under_constant_load(self):
        deployment = ProtectedDeployment(
            DeploymentSpec(
                engine="here",
                target_degradation=0.3,
                period=25.0,
                sigma=1.0,
                memory_bytes=4 * GIB,
                seed=7,
            )
        )
        # Start from a converged-looking period (see the controller's
        # initial_period docstring) so a 300 s window shows dynamics.
        from repro.replication import DynamicPeriodController

        deployment.engine.config.controller = DynamicPeriodController(
            0.3, t_max=25.0, sigma=1.0, initial_period=6.0
        )
        MemoryMicrobenchmark(deployment.sim, deployment.vm, load=0.6).start()
        deployment.start_protection()
        deployment.run_for(300.0)
        stats = deployment.stats
        assert stats.checkpoint_count > 10
        # Late-run degradations should hover near the 30 % set point.
        late = [
            c.degradation
            for c in stats.checkpoints
            if c.started_at > stats.checkpoints[-1].started_at / 2
        ]
        mean_late = sum(late) / len(late)
        assert 0.15 < mean_late < 0.45

    def test_period_shrinks_on_light_load(self):
        deployment = deploy(
            engine="here", target_degradation=0.3, period=25.0,
            memory_bytes=2 * GIB,
        )
        MemoryMicrobenchmark(deployment.sim, deployment.vm, load=0.05).start()
        deployment.start_protection()
        deployment.run_for(400.0)
        periods = [c.period_used for c in deployment.stats.checkpoints]
        assert periods[-1] < periods[0]


class TestFailoverUnderLoad:
    def test_ycsb_service_survives_dos_mid_run(self):
        deployment = deploy(memory_bytes=2 * GIB, period=2.0)
        workload = YcsbWorkload(
            deployment.sim, deployment.vm, mix="a", preload_records=200
        )
        workload.start()
        deployment.start_protection()
        deployment.attach_service()
        sim = deployment.sim
        sim.schedule_callback(10.0, lambda: deployment.primary.crash("0-day"))
        report = sim.run_until_triggered(
            deployment.failover.completed, limit=sim.now + 60.0
        )
        assert report.resumption_time < 0.05
        # The replica resumed from the last acked checkpoint and the
        # service answers again.
        probe = sim.process(deployment.service.request())
        latency = sim.run_until_triggered(probe, limit=sim.now + 10.0)
        assert latency < 1.0

    def test_replica_state_is_last_acked_epoch(self):
        deployment = deploy(memory_bytes=2 * GIB, period=2.0)
        deployment.start_protection()
        sim = deployment.sim
        deployment.run_for(11.0)
        acked_before_crash = deployment.engine.last_acked_epoch
        deployment.primary.crash("0-day")
        sim.run_until_triggered(
            deployment.failover.completed, limit=sim.now + 30.0
        )
        assert deployment.failover.report.last_acked_epoch == acked_before_crash


class TestOverheadMeasurement:
    def test_cpu_and_memory_overhead_reported(self):
        deployment = deploy(
            engine="here", period=1.0, target_degradation=0.0,
            memory_bytes=4 * GIB,
        )
        MemoryMicrobenchmark(deployment.sim, deployment.vm, load=0.3).start()
        deployment.start_protection()
        start = deployment.sim.now
        deployment.run_for(30.0)
        report = measure_overhead(deployment.engine, since=start)
        assert 0.05 < report.cpu_core_utilisation < 2.0
        assert 250 < report.resident_mb < 400  # ~314 MB in the paper
        assert report.checkpoints_in_window > 10


class TestDeterminism:
    def test_identical_seeds_identical_experiments(self):
        def run(seed):
            deployment = deploy(seed=seed, period=3.0, memory_bytes=2 * GIB)
            workload = YcsbWorkload(
                deployment.sim, deployment.vm, mix="a",
                sample_fraction=1e-3, preload_records=200,
            )
            workload.start()
            deployment.start_protection()
            deployment.run_for(30.0)
            stats = deployment.stats
            return (
                stats.checkpoint_count,
                round(stats.mean_transfer_duration(), 12),
                round(stats.mean_degradation(), 12),
                workload.store.bytes_written_wal,
            )

        assert run(42) == run(42)
        # Different seeds shuffle the sampled YCSB operation stream.
        assert run(42)[-1] != run(43)[-1]
