"""The hardened checkpoint transport: the lossy-link failure matrix.

Covers the scenarios the robustness story depends on: ack timeout
mid-epoch, corrupted-chunk NACK + resend, torn epochs discarded (and
their dirty pages preserved), a stale primary fenced out after
failover, the degradation ladder's degrade -> suspend -> resume round
trip, and — the invariant everything else hangs off — that over a
lossless link the transport-enabled engine produces bit-for-bit the
same ReplicationStats as the classic path.
"""

import pytest

from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.hardware import GIB, build_testbed
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.replication import EngineRecipe, here_engine
from repro.replication.transport import (
    CheckpointTransport,
    DegradationController,
    EpochTorn,
    StalePrimaryError,
    TransportConfig,
)
from repro.simkernel import Simulation
from repro.workloads import MemoryMicrobenchmark


def build(seed=7, transport=TransportConfig(), load=0.25, **engine_kwargs):
    sim = Simulation(seed=seed)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    kvm = KvmHypervisor(sim, testbed.secondary)
    engine_kwargs.setdefault("target_degradation", 0.0)
    engine_kwargs.setdefault("t_max", 2.0)
    engine = here_engine(
        sim, xen, kvm, testbed.interconnect,
        EngineRecipe(transport=transport, **engine_kwargs),
    )
    vm = xen.create_vm("protected", vcpus=4, memory_bytes=2 * GIB)
    vm.start()
    if load > 0:
        MemoryMicrobenchmark(sim, vm, load=load).start()
    return sim, testbed, engine


def protect(sim, engine, warmup=0.0):
    engine.start("protected")
    sim.run_until_triggered(engine.ready)
    if warmup:
        sim.run(until=sim.now + warmup)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(chunk_pages=0),
        dict(ack_timeout=0.0),
        dict(max_retries=0),
        dict(backoff_base=-1.0),
        dict(backoff_factor=0.5),
        dict(backoff_base=0.5, backoff_cap=0.1),
        dict(jitter=1.0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TransportConfig(**kwargs)


class TestBackoff:
    def test_grows_exponentially_to_the_cap(self):
        sim = Simulation(seed=0)
        testbed = build_testbed(sim)
        transport = CheckpointTransport(
            sim, testbed.interconnect,
            TransportConfig(jitter=0.0, backoff_base=0.1,
                            backoff_factor=2.0, backoff_cap=0.5),
        )
        delays = [transport.backoff_delay(a) for a in range(1, 6)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_is_seed_deterministic(self):
        def draw(seed):
            sim = Simulation(seed=seed)
            testbed = build_testbed(sim)
            transport = CheckpointTransport(
                sim, testbed.interconnect, TransportConfig(jitter=0.25)
            )
            return [transport.backoff_delay(a) for a in range(1, 9)]

        assert draw(5) == draw(5)
        assert draw(5) != draw(6)

    def test_jitter_stays_inside_the_band(self):
        sim = Simulation(seed=1)
        testbed = build_testbed(sim)
        transport = CheckpointTransport(
            sim, testbed.interconnect,
            TransportConfig(jitter=0.25, backoff_base=0.02,
                            backoff_factor=2.0, backoff_cap=1.0),
        )
        for attempt in range(1, 9):
            nominal = min(1.0, 0.02 * 2.0 ** (attempt - 1))
            delay = transport.backoff_delay(attempt)
            assert 0.75 * nominal <= delay <= 1.25 * nominal


class TestLosslessEquivalence:
    def test_transport_is_invisible_over_a_clean_link(self):
        """Identical seed, identical stats — with and without transport."""
        def run(transport):
            sim, _tb, engine = build(seed=20260806, transport=transport)
            protect(sim, engine, warmup=25.0)
            return [
                (c.epoch, c.started_at, c.pause_duration,
                 c.transfer_duration, c.bytes_sent, c.dirty_pages)
                for c in engine.stats.checkpoints
            ]

        plain = run(None)
        reliable = run(TransportConfig())
        assert len(plain) > 5
        assert reliable == plain


class TestLossyLink:
    def test_loss_is_survived_by_retransmission_not_failover(self):
        """The headline acceptance run: 5% loss, every epoch commits."""
        sim, testbed, engine = build(seed=42)
        protect(sim, engine)
        testbed.interconnect.impair(loss_rate=0.05, corrupt_rate=0.01)
        sim.run(until=sim.now + 25.0)
        transport = engine.transport
        assert transport.retransmits > 0
        assert transport.torn_epochs == 0
        assert engine.is_active  # never fell over, never demoted
        assert engine.stats.checkpoint_count > 5
        # Every produced checkpoint reached the replica: no torn epoch
        # is ever exposed as applied state.
        assert (
            engine.last_acked_epoch == engine.stats.checkpoints[-1].epoch
        )
        assert transport.loss_ewma > 0.0
        assert transport.link_appears_lossy()

    def test_corrupted_chunks_are_nacked_and_resent(self):
        sim, testbed, engine = build(seed=9)
        protect(sim, engine)
        testbed.interconnect.impair(corrupt_rate=0.08)
        sim.run(until=sim.now + 20.0)
        transport = engine.transport
        session = engine.replica_session
        assert transport.chunk_nacks > 0
        assert session.chunks_rejected > 0
        assert transport.torn_epochs == 0
        assert session.last_applied_epoch == engine.stats.checkpoints[-1].epoch

    def test_checksum_verification_can_be_disabled(self):
        sim, testbed, engine = build(
            seed=9, transport=TransportConfig(verify_checksums=False)
        )
        protect(sim, engine)
        testbed.interconnect.impair(corrupt_rate=0.08)
        sim.run(until=sim.now + 20.0)
        # Corruption passes unverified: no NACKs, no retransmits for it.
        assert engine.transport.chunk_nacks == 0


class TestTornEpoch:
    def test_total_loss_tears_the_epoch_but_commits_nothing_torn(self):
        sim, testbed, engine = build(
            seed=13,
            transport=TransportConfig(
                max_retries=2, ack_timeout=0.05, backoff_base=0.01,
                backoff_cap=0.05,
            ),
        )
        protect(sim, engine, warmup=5.0)
        committed_before = engine.replica_session.last_applied_epoch
        testbed.interconnect.impair(loss_rate=1.0)
        sim.run(until=sim.now + 8.0)
        transport = engine.transport
        session = engine.replica_session
        assert transport.torn_epochs > 0
        assert session.epochs_discarded > 0
        # The backup still holds the last *fully committed* epoch.
        assert session.last_applied_epoch == committed_before
        assert engine.is_active  # the loop keeps going

    def test_dirty_pages_survive_the_discard(self):
        """A torn epoch's pages are re-merged, not silently lost.

        Exercises the exact abort path the engine takes: capture (which
        clears the live bitmap), then ``remerge_dirty`` puts the
        snapshot back — same unique pages, same per-vCPU attribution.
        """
        from repro.replication.transport import remerge_dirty

        sim, testbed, engine = build(seed=13, load=0.0)
        protect(sim, engine)
        vm = engine.vm
        vm.dirty_log.record(0, [1, 2, 3], [1, 2, 1])
        vm.dirty_log.record(1, [3, 7], [1, 4])
        captured = vm.dirty_log.unique_dirty_pages()
        snapshot = vm.dirty_log.snapshot_and_clear()
        assert vm.dirty_log.unique_dirty_pages() == 0
        remerge_dirty(vm, snapshot)
        assert vm.dirty_log.unique_dirty_pages() == captured
        replay = vm.dirty_log.snapshot_and_clear()
        for vcpu, touches in snapshot.per_vcpu_touches.items():
            assert (replay.per_vcpu_touches[vcpu] == touches).all()
        # And the engine keeps making progress once the wire heals.
        testbed.interconnect.impair(loss_rate=1.0)
        sim.run(until=sim.now + 4.0)
        testbed.interconnect.clear_impairment()
        before = engine.replica_session.last_applied_epoch
        sim.run(until=sim.now + 6.0)
        assert engine.replica_session.last_applied_epoch > before


class TestFencing:
    @staticmethod
    def run_trial(seed):
        deployment = ProtectedDeployment(DeploymentSpec(
            engine="here",
            period=1.0,
            memory_bytes=GIB,
            seed=seed,
            transport=TransportConfig(),
        ))
        deployment.start_protection(wait_ready=True)
        sim = deployment.sim
        engine = deployment.engine
        MemoryMicrobenchmark(sim, deployment.vm, load=0.2).start()
        sim.run(until=sim.now + 3.0)
        # Failover without killing the primary (detector shortcut):
        # the old primary is alive and will try to keep checkpointing.
        deployment.monitor.report_attack("suspected compromise")
        report = sim.run_until_triggered(
            deployment.failover.completed, limit=sim.now + 30.0
        )
        assert not report.failed
        assert report.fencing_generation >= 1
        # The resurrected stale primary re-arms its checkpoint loop...
        engine.re_arm()
        sim.run(until=sim.now + 10.0)
        return deployment, engine

    def test_stale_primary_is_fenced_and_demotes(self):
        deployment, engine = self.run_trial(seed=3)
        session = engine.replica_session
        assert engine.demoted
        assert session.fencing_rejections >= 1
        assert "demoted" in deployment.stats.stop_reason
        # Split brain prevented: the old primary's VM stays paused
        # while the promoted replica serves.
        assert engine.vm.is_paused
        assert deployment.replica.is_running

    def test_fencing_holds_across_twenty_seeded_trials(self):
        """The acceptance bar: 100% of 20 seeded trials fence the
        stale primary."""
        for seed in range(20):
            _deployment, engine = self.run_trial(seed=seed)
            assert engine.demoted, f"seed {seed} let a stale primary through"
            assert engine.replica_session.fencing_rejections >= 1

    def test_fence_rejects_only_older_generations(self):
        sim, _tb, engine = build(seed=4)
        protect(sim, engine, warmup=3.0)
        session = engine.replica_session
        token = session.install_fence()
        assert token.generation == 1
        # Old generation (0) bounces; the fenced generation itself passes.
        from repro.replication.protocol import CheckpointMessage, FencedOut

        stale = CheckpointMessage(
            vm_name="protected",
            epoch=session.last_applied_epoch + 1,
            sent_at=sim.now,
            dirty_pages=0,
            memory_bytes=0,
            state_payload={},
            generation=0,
        )
        with pytest.raises(FencedOut):
            session.apply(stale)


class TestDegradationLadder:
    def build_controller(self, seed=21, **controller_kwargs):
        sim, testbed, engine = build(
            seed=seed,
            transport=TransportConfig(
                max_retries=2, ack_timeout=0.05, backoff_base=0.01,
                backoff_cap=0.05,
            ),
        )
        protect(sim, engine, warmup=3.0)
        controller_kwargs.setdefault("check_interval", 0.5)
        controller_kwargs.setdefault("patience", 1)
        controller_kwargs.setdefault("recover_patience", 2)
        controller = DegradationController(sim, engine, **controller_kwargs)
        controller.start()
        return sim, testbed, engine, controller

    def test_degrade_suspend_resume_round_trip(self):
        sim, testbed, engine, controller = self.build_controller()
        assert controller.level_name == "normal"
        # Kill the wire outright: the ladder must walk all the way up,
        # and the recovery probes cannot sneak through a dead link.
        testbed.interconnect.impair(loss_rate=1.0)
        sim.run(until=sim.now + 20.0)
        assert controller.level_name == "suspend"
        assert engine.is_suspended
        assert engine.suspensions >= 1
        assert engine.period_scale > 1.0
        # Heal it: probes answer, protection resumes, ladder descends.
        testbed.interconnect.clear_impairment()
        sim.run(until=sim.now + 20.0)
        assert not engine.is_suspended
        assert controller.level_name == "normal"
        assert engine.period_scale == 1.0
        assert engine.is_active
        # Checkpoints flow again after the resume.
        count = engine.stats.checkpoint_count
        sim.run(until=sim.now + 6.0)
        assert engine.stats.checkpoint_count > count

    def test_transitions_are_recorded_in_order(self):
        sim, testbed, engine, controller = self.build_controller()
        testbed.interconnect.impair(loss_rate=1.0)
        sim.run(until=sim.now + 20.0)
        testbed.interconnect.clear_impairment()
        sim.run(until=sim.now + 20.0)
        levels = [new for (_t, _old, new, _why) in controller.transitions]
        # Up the ladder then back down to normal.
        assert levels[0] == 1
        assert 3 in levels
        assert levels[-1] == 0
        times = [t for (t, _old, _new, _why) in controller.transitions]
        assert times == sorted(times)

    def test_forced_compression_is_undone_on_recovery(self):
        sim, testbed, engine, controller = self.build_controller()
        stage = controller._compress_stage()
        assert stage is not None and stage.model is None
        testbed.interconnect.impair(loss_rate=1.0)
        sim.run(until=sim.now + 20.0)
        testbed.interconnect.clear_impairment()
        sim.run(until=sim.now + 20.0)
        assert controller.level_name == "normal"
        assert stage.model is None  # not left switched on

    def test_validation(self):
        sim, _tb, engine = build(seed=1)
        with pytest.raises(ValueError):
            DegradationController(sim, engine, check_interval=0.0)
        with pytest.raises(ValueError):
            DegradationController(sim, engine, widen_factor=1.0)
        with pytest.raises(ValueError):
            DegradationController(
                sim, engine, escalate_loss=0.05, recover_loss=0.1
            )


class TestErrorTypes:
    def test_hierarchy(self):
        from repro.replication.transport import TransportError

        assert issubclass(EpochTorn, TransportError)
        assert issubclass(StalePrimaryError, TransportError)
