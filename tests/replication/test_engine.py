"""The replication engine: seeding, checkpoints, output commit, halt."""

import math

import pytest

from repro.hardware import GIB, build_testbed
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.net import ServiceConnection
from repro.replication import EngineRecipe, here_engine, remus_engine
from repro.simkernel import Simulation
from repro.workloads import IdleWorkload, MemoryMicrobenchmark


def build(engine_kind="here", load=0.3, seed=7, **engine_kwargs):
    sim = Simulation(seed=seed)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    if engine_kind == "here":
        secondary = KvmHypervisor(sim, testbed.secondary)
        engine = here_engine(
            sim, xen, secondary, testbed.interconnect,
            EngineRecipe(**engine_kwargs),
        )
    else:
        secondary = XenHypervisor(sim, testbed.secondary)
        engine = remus_engine(
            sim, xen, secondary, testbed.interconnect, **engine_kwargs
        )
    vm = xen.create_vm("protected", vcpus=4, memory_bytes=2 * GIB)
    vm.start()
    if load > 0:
        MemoryMicrobenchmark(sim, vm, load=load).start()
    else:
        IdleWorkload(sim, vm).start()
    return sim, testbed, xen, secondary, vm, engine


class TestSeeding:
    def test_ready_fires_after_seeding(self):
        sim, _tb, _xen, _kvm, _vm, engine = build(
            target_degradation=0.0, t_max=5.0
        )
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        assert engine.is_active
        assert engine.stats.seeding_duration > 0
        assert engine.stats.seeding_downtime < 1.0

    def test_replica_shell_created_not_running(self):
        sim, _tb, _xen, kvm, _vm, engine = build(target_degradation=0.0, t_max=5.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        assert engine.replica_vm is kvm.get_vm("protected")
        assert not engine.replica_vm.is_running

    def test_replica_shell_not_sampled_before_first_load(self, monkeypatch):
        sim, _tb, _xen, kvm, vm, engine = build(target_degradation=0.0, t_max=5.0)
        unsampled_at_first_load = []
        load = kvm.load_guest_state

        def recording_load(target, payload):
            if not unsampled_at_first_load:
                unsampled_at_first_load.append(target._vcpu_states is None)
            return load(target, payload)

        monkeypatch.setattr(kvm, "load_guest_state", recording_load)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        assert unsampled_at_first_load == [True]
        replica_states = engine.replica_vm.vcpu_states
        assert len(replica_states) == vm.vcpu_count
        for loaded, source in zip(replica_states, vm.vcpu_states):
            assert loaded.equivalent_to(source)

    def test_guest_features_masked_at_setup(self):
        sim, _tb, xen, kvm, vm, engine = build(target_degradation=0.0, t_max=5.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        assert vm.enabled_features <= kvm.cpuid_features()

    def test_memory_accounting_registered(self):
        sim, tb, _xen, _kvm, _vm, engine = build(target_degradation=0.0, t_max=5.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        assert tb.primary.memory_accounting.resident_bytes > 200 * 1024**2


class TestContinuousReplication:
    def test_checkpoints_accumulate(self):
        sim, _tb, _xen, _kvm, _vm, engine = build(target_degradation=0.0, t_max=2.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 30.0)
        assert engine.stats.checkpoint_count >= 8
        epochs = [c.epoch for c in engine.stats.checkpoints]
        assert epochs == sorted(epochs)

    def test_replica_follows_epochs(self):
        sim, _tb, _xen, _kvm, _vm, engine = build(target_degradation=0.0, t_max=2.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 20.0)
        assert engine.last_acked_epoch == engine.stats.checkpoint_count
        assert engine.replica_session.checkpoints_applied >= 2

    def test_vm_pause_fraction_matches_records(self):
        sim, _tb, _xen, _kvm, vm, engine = build(
            target_degradation=0.0, t_max=4.0, load=0.4
        )
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        start_paused = vm.paused_time()
        sim.run(until=sim.now + 40.0)
        recorded = sum(c.pause_duration for c in engine.stats.checkpoints)
        assert vm.paused_time() - start_paused == pytest.approx(recorded, rel=0.1)

    def test_heterogeneous_checkpoints_translate_state(self):
        sim, _tb, _xen, kvm, _vm, engine = build(target_degradation=0.0, t_max=2.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 10.0)
        assert engine.translator.translations_performed >= 2
        # The replica holds KVM-format-loaded architectural state.
        assert engine.replica_vm.vcpu_states[0].equivalent_to(
            engine.vm.vcpu_states[0]
        )

    def test_dirty_pages_reported_per_checkpoint(self):
        sim, _tb, _xen, _kvm, _vm, engine = build(
            target_degradation=0.0, t_max=3.0, load=0.3
        )
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 20.0)
        assert all(c.dirty_pages > 0 for c in engine.stats.checkpoints)


class TestOutputCommit:
    def test_responses_released_only_after_ack(self):
        sim, tb, _xen, _kvm, vm, engine = build(
            target_degradation=0.0, t_max=2.0, load=0.0
        )
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        connection = ServiceConnection(
            sim, vm, tb.service_primary, engine.device_manager.egress
        )
        request = sim.process(connection.request())
        latency = sim.run_until_triggered(request, limit=sim.now + 30.0)
        # The response waited for the next checkpoint: latency is of
        # the order of the checkpoint period, not microseconds.
        assert latency > 0.05


class TestHalt:
    def test_halt_stops_checkpoints_and_resumes_vm(self):
        sim, _tb, _xen, _kvm, vm, engine = build(target_degradation=0.0, t_max=2.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 10.0)
        count = engine.stats.checkpoint_count
        engine.halt("operator stop")
        sim.run(until=sim.now + 10.0)
        assert engine.stats.checkpoint_count == count
        assert not engine.is_active
        assert vm.is_running
        assert engine.stats.stop_reason == "operator stop"
        # Output commit lifted: egress is passthrough again.
        assert not engine.device_manager.egress.buffering

    def test_primary_crash_stops_engine(self):
        sim, _tb, xen, _kvm, _vm, engine = build(target_degradation=0.0, t_max=2.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.schedule_callback(5.0, lambda: xen.crash("DoS"))
        sim.run(until=sim.now + 20.0)
        assert not engine.is_active
        # Replica state survives for failover.
        assert engine.replica_session.has_consistent_state

    def test_secondary_crash_leaves_primary_running(self):
        sim, _tb, _xen, kvm, vm, engine = build(target_degradation=0.0, t_max=2.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.schedule_callback(5.0, lambda: kvm.crash("secondary DoS"))
        sim.run(until=sim.now + 20.0)
        assert not engine.is_active
        assert vm.is_running  # unprotected but alive
        assert not vm.is_destroyed

    def test_double_start_rejected(self):
        sim, _tb, _xen, _kvm, _vm, engine = build(target_degradation=0.0, t_max=2.0)
        engine.start("protected")
        with pytest.raises(RuntimeError):
            engine.start("protected")


class TestEngineFactories:
    def test_remus_requires_homogeneous_pair(self):
        sim = Simulation(seed=0)
        testbed = build_testbed(sim)
        xen = XenHypervisor(sim, testbed.primary)
        kvm = KvmHypervisor(sim, testbed.secondary)
        with pytest.raises(ValueError):
            remus_engine(sim, xen, kvm, testbed.interconnect, period=3.0)

    def test_here_d_zero_requires_finite_tmax(self):
        with pytest.raises(ValueError):
            EngineRecipe(target_degradation=0.0, t_max=math.inf)

    def test_remus_runs_end_to_end(self):
        sim, _tb, _xen, _kvm, _vm, engine = build("remus", period=2.0)
        engine.start("protected")
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 10.0)
        assert engine.stats.checkpoint_count >= 2
        assert not engine.heterogeneous
