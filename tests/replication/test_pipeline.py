"""The checkpoint stage pipeline (repro.replication.pipeline)."""

import pytest

from repro.hardware import GIB, build_testbed
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.replication import (
    AwaitAckStage,
    CaptureDirtyStage,
    CheckpointPipeline,
    ChunkedTransferPolicy,
    CommitReleaseStage,
    CompressStage,
    ExtractStateStage,
    FlatTransferPolicy,
    PauseStage,
    ResumeStage,
    ShipStateStage,
    StageFault,
    TransferStage,
    TranslateStage,
    build_checkpoint_pipeline,
    here_config,
    here_controller,
    here_engine,
    remus_engine,
)
from repro.replication.pipeline import seeding_sync_stages
from repro.replication.remus import remus_config
from repro.simkernel import Simulation
from repro.telemetry import Recorder
from repro.workloads import MemoryMicrobenchmark


def remus_lineup():
    return build_checkpoint_pipeline(remus_config(2.0), heterogeneous=False)


def here_lineup():
    return build_checkpoint_pipeline(
        here_config(here_controller(0.3)), heterogeneous=True
    )


def build_engine(kind="here", seed=5, **kwargs):
    sim = Simulation(seed=seed)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    if kind == "remus":
        secondary = XenHypervisor(sim, testbed.secondary)
        engine = remus_engine(
            sim, xen, secondary, testbed.interconnect, period=1.0, **kwargs
        )
    else:
        secondary = KvmHypervisor(sim, testbed.secondary)
        engine = here_engine(
            sim, xen, secondary, testbed.interconnect,
            target_degradation=0.0, t_max=1.0, **kwargs
        )
    vm = xen.create_vm("vm", vcpus=2, memory_bytes=1 * GIB)
    vm.start()
    MemoryMicrobenchmark(sim, vm, load=0.2).start()
    return sim, engine


def run_protected(sim, engine, duration=6.0):
    engine.start("vm")
    sim.run_until_triggered(engine.ready)
    sim.run(until=sim.now + duration)
    return engine.stats


class TestPresets:
    def test_remus_lineup_has_no_translate(self):
        names = remus_lineup().stage_names()
        assert names == [
            "pause", "capture-dirty", "compress", "transfer",
            "extract-state", "ship-state", "await-ack", "resume",
            "commit-release",
        ]

    def test_here_lineup_adds_translate_before_ship(self):
        names = here_lineup().stage_names()
        assert "translate" in names
        assert names.index("translate") == names.index("extract-state") + 1
        # Everything else is literally the Remus lineup.
        assert [n for n in names if n != "translate"] == (
            remus_lineup().stage_names()
        )

    def test_transfer_policy_follows_chunked_flag(self):
        transfer = next(
            s for s in here_lineup().stages if s.name == "transfer"
        )
        assert isinstance(transfer.policy, ChunkedTransferPolicy)
        transfer = next(
            s for s in remus_lineup().stages if s.name == "transfer"
        )
        assert isinstance(transfer.policy, FlatTransferPolicy)

    def test_seeding_sync_is_the_tail_only(self):
        names = [s.name for s in seeding_sync_stages(remus_config(1.0), True)]
        assert names == [
            "transfer", "extract-state", "translate", "ship-state",
            "await-ack",
        ]

    def test_engine_builds_presets_at_start(self):
        sim, engine = build_engine("here")
        assert engine.pipeline is None
        engine.start("vm")
        assert engine.pipeline.has_stage("translate")
        assert engine.sync_pipeline.has_stage("translate")

    def test_homogeneous_engine_has_no_translate_stage(self):
        sim, engine = build_engine("remus")
        engine.start("vm")
        assert not engine.pipeline.has_stage("translate")


class TestValidation:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            CheckpointPipeline([])

    def test_bad_policy_thread_counts(self):
        with pytest.raises(ValueError):
            FlatTransferPolicy(0)
        with pytest.raises(ValueError):
            ChunkedTransferPolicy(0)

    def test_bad_page_cost_regime(self):
        with pytest.raises(ValueError):
            TransferStage(FlatTransferPolicy(1), page_cost="bogus")

    def test_bad_translate_label(self):
        with pytest.raises(ValueError):
            TranslateStage(label="host")

    def test_fault_hook_on_unknown_stage_rejected(self):
        pipeline = remus_lineup()
        with pytest.raises(ValueError):
            pipeline.add_fault_hook("teleport", lambda ctx, stage: None)


class TestStageTelemetry:
    def test_every_stage_emits_a_pipeline_span(self):
        sim, engine = build_engine("here")
        recorder = Recorder()
        sim.telemetry.subscribe(recorder)
        run_protected(sim, engine)
        stats = engine.stats
        assert stats.checkpoint_count >= 2
        spans = recorder.spans("pipeline.stage")
        stage_names = {span.attrs["stage"] for span in spans}
        assert stage_names >= set(engine.pipeline.stage_names())
        # One span per stage per checkpoint, plus the seeding sync's.
        per_checkpoint = len(engine.pipeline.stages)
        per_sync = len(engine.sync_pipeline.stages)
        assert len(spans) == (
            stats.checkpoint_count * per_checkpoint + per_sync
        )

    def test_pipeline_spans_nest_under_the_checkpoint_span(self):
        sim, engine = build_engine("remus")
        recorder = Recorder()
        sim.telemetry.subscribe(recorder)
        run_protected(sim, engine)
        checkpoint_ids = {
            span.span_id for span in recorder.spans("replication.checkpoint")
        }
        sync_ids = {
            span.span_id
            for span in recorder.spans("replication.seeding.sync")
        }
        for span in recorder.spans("pipeline.stage"):
            assert span.parent_id in checkpoint_ids | sync_ids


class TestFaultHooks:
    def test_hook_runs_before_its_stage_each_checkpoint(self):
        sim, engine = build_engine("here")
        engine.start("vm")
        seen = []
        engine.pipeline.add_fault_hook(
            "transfer", lambda ctx, stage: seen.append(ctx.epoch)
        )
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 4.0)
        assert seen == sorted(set(seen))
        assert len(seen) == engine.stats.checkpoint_count

    def test_raising_hook_aborts_protection_like_a_failure(self):
        sim, engine = build_engine("here")
        engine.start("vm")

        def explode(ctx, stage):
            raise StageFault("injected at translate")

        sim.run_until_triggered(engine.ready)
        engine.pipeline.add_fault_hook("translate", explode)
        sim.run(until=sim.now + 5.0)
        assert not engine.is_active
        assert "injected at translate" in engine.stats.stop_reason
        # The abort path still leaves the protected VM running.
        assert not engine.vm.is_paused

    def test_stage_fault_is_an_engine_stop_reason(self):
        sim, engine = build_engine("remus")
        engine.start("vm")
        sim.run_until_triggered(engine.ready)

        def refuse(ctx, stage):
            raise StageFault("chaos-monkey")

        engine.pipeline.add_fault_hook("commit-release", refuse)
        sim.run(until=sim.now + 3.0)
        assert not engine.is_active
        assert engine.stats.stop_reason == "chaos-monkey"


class TestCustomAssembly:
    def test_custom_pipeline_drives_the_engine(self):
        """A hand-assembled lineup (README example) replicates for real."""
        sim, engine = build_engine("remus")
        custom = CheckpointPipeline(
            [
                PauseStage(),
                CaptureDirtyStage(),
                CompressStage(None),
                TransferStage(
                    FlatTransferPolicy(2, scan_tracked=True),
                    span_name="replication.checkpoint.transfer",
                ),
                ExtractStateStage(),
                ShipStateStage(),
                AwaitAckStage(),
                ResumeStage(),
                CommitReleaseStage(),
            ],
            name="two-thread-remus",
        )
        engine.start("vm")
        engine.pipeline = custom  # before the first checkpoint runs
        sim.run_until_triggered(engine.ready)
        sim.run(until=sim.now + 6.0)
        stats = engine.stats
        assert engine.pipeline is custom
        assert stats.checkpoint_count >= 2
        assert engine.last_acked_epoch == stats.checkpoint_count
