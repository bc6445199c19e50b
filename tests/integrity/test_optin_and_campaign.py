"""Strict opt-in and the seeded corruption campaign.

Two contracts: with integrity off nothing changes (no stages, no
processes, no RNG draws, no fingerprint keys), and with it on a seeded
corruption campaign detects essentially every injected corruption
before any failover promotes it — the acceptance bar of the overlay.
"""

from dataclasses import asdict

import pytest

from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.faults import CampaignConfig, ChaosCampaign, FaultKind
from repro.hardware.units import GIB
from repro.integrity import IntegrityConfig


def corruption_config(**overrides):
    defaults = dict(
        trials=2,
        seed=11,
        vms=2,
        faults_per_trial=2,
        settle_time=3.0,
        fault_window=3.0,
        recovery_time=20.0,
        kinds=(
            FaultKind.TRANSLATOR_DRIFT,
            FaultKind.REPLICA_BITROT,
            FaultKind.TORN_APPLY,
        ),
        integrity=IntegrityConfig(),
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestOptIn:
    def test_disabled_engine_has_no_integrity_surface(self):
        deployment = ProtectedDeployment(
            DeploymentSpec(
                engine="here", period=5.0, memory_bytes=GIB, seed=3
            )
        )
        deployment.start_protection()
        deployment.run_for(6.0)
        engine = deployment.engine
        assert engine.integrity_monitor is None
        assert engine.repairer is None
        assert engine.scrubber is None
        assert not engine.pipeline.has_stage("attest")
        assert engine.replica_session.last_attestation is None
        # Zero draws: the integrity stream was never even created.
        assert f"integrity.{deployment.vm.name}" not in deployment.sim.random

    def test_corruption_kinds_require_the_overlay(self):
        with pytest.raises(ValueError, match="integrity"):
            corruption_config(integrity=None)

    def test_disabled_campaign_fingerprint_has_no_integrity_keys(self):
        config = CampaignConfig(
            trials=1, seed=7, vms=1, settle_time=2.0, fault_window=2.0,
            kinds=(FaultKind.HOST_CRASH,),
        )
        result = ChaosCampaign(config).run()
        assert not any("corrupt" in key for key in result.fingerprint())
        assert not any("integrity" in key for key in result.fingerprint())

    def test_scrub_knobs_are_validated(self):
        with pytest.raises(ValueError):
            corruption_config(integrity=IntegrityConfig(scrub_interval=0.0))
        with pytest.raises(ValueError):
            corruption_config(
                integrity=IntegrityConfig(scrub_bandwidth=-1.0)
            )


class TestCorruptionCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return ChaosCampaign(corruption_config()).run()

    def test_acceptance_detection_rate(self, result):
        """The headline bar: >= 95% of seeded silent corruption caught
        by the scrubber before any failover promoted it."""
        tally = result.integrity_tally()
        assert tally.corruptions_injected >= 4
        assert tally.detection_rate >= 0.95

    def test_repairs_are_attributed_to_rungs(self, result):
        repaired = sum(
            trial.repair_page_refetches
            + trial.repair_resyncs
            + trial.repair_reseeds
            for trial in result.trials
        )
        tally = result.integrity_tally()
        assert tally.corruptions_repaired >= repaired > 0
        assert tally.integrity_alarms == 0

    def test_latent_windows_are_measured(self, result):
        tally = result.integrity_tally()
        assert tally.mean_latent_window > 0.0
        assert tally.max_latent_window < 5.0  # caught within scrub cadence

    def test_fingerprint_carries_integrity_keys(self, result):
        fingerprint = result.fingerprint()
        for key in (
            "corruptions",
            "corruptions_detected",
            "detection_rate",
            "mean_latent_window",
        ):
            assert key in fingerprint

    def test_campaign_is_deterministic(self, result):
        rerun = ChaosCampaign(corruption_config()).run()
        assert rerun.fingerprint() == result.fingerprint()


class TestSweepPreset:
    def test_corruption_preset_is_registered(self):
        from repro.experiments.presets import SWEEP_PRESETS, chaos_sweep

        assert "corruption" in SWEEP_PRESETS
        specs = chaos_sweep(trials=2, seed=5, preset="corruption")
        assert len(specs) == 2
        for spec in specs:
            assert spec.params["integrity"] == asdict(IntegrityConfig())
