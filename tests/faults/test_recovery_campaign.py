"""Chaos campaigns under the recovery policies."""

import math

import pytest

from repro.faults import CampaignConfig, ChaosCampaign, FaultKind
from repro.recovery import MicrorebootConfig


def fast_config(**overrides):
    defaults = dict(
        trials=2,
        seed=11,
        vms=1,
        kvm_hosts=1,
        settle_time=2.0,
        fault_window=2.0,
        recovery_time=20.0,
        kinds=(FaultKind.HYPERVISOR_CRASH,),
    )
    defaults.update(overrides)
    # from_params also builds a nested ``microreboot`` dict.
    return CampaignConfig.from_params(defaults)


def uniform(success_prob):
    return MicrorebootConfig.with_uniform_prob(success_prob)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(recovery_policy="reboot-harder"),
            dict(microreboot=dict(success_prob_crash=1.5)),
            dict(microreboot=dict(success_prob_cve=-0.1)),
            dict(microreboot=dict(rebuild_time_min=0.0)),
            dict(microreboot=dict(rebuild_time_max=float("inf"))),
            dict(microreboot=dict(rebuild_time_min=0.9, rebuild_time_max=0.3)),
            dict(microreboot=dict(deadline=-1.0)),
        ],
    )
    def test_bad_recovery_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            fast_config(**kwargs)

    def test_microreboot_config_reflects_overrides(self):
        campaign = fast_config(
            recovery_policy="hybrid",
            microreboot=MicrorebootConfig.with_uniform_prob(
                0.5, rebuild_time_min=0.2, rebuild_time_max=0.3, deadline=4.0
            ),
        )
        # The sweep wire format carries the nested model intact.
        assert CampaignConfig.from_params(campaign.to_params()) == campaign
        config = campaign.microreboot
        assert config.success_prob("crash") == 0.5
        assert config.success_prob("cve") == 0.5
        assert config.rebuild_time_min == 0.2
        assert config.rebuild_time_max == 0.3
        assert config.deadline == 4.0


class TestHybridCampaign:
    def test_hybrid_recovers_in_place(self):
        result = ChaosCampaign(
            fast_config(
                recovery_policy="hybrid", microreboot=uniform(1.0)
            )
        ).run()
        assert result.total_recovery_attempts == 2
        assert result.total_recoveries == 2
        assert result.total_failed_recoveries == 0
        assert result.recovery_success_rate == pytest.approx(1.0)
        assert result.total_failovers == 0
        assert result.total_dropped_vms == 0
        assert 0 < result.mean_recovery_blackout < 2.0
        # The blackout also prices the downtime accounting.
        assert result.trials[0].downtime_seconds > 0
        assert math.isfinite(result.pooled_nines)

    def test_hybrid_falls_back_to_failover(self):
        result = ChaosCampaign(
            fast_config(
                recovery_policy="hybrid", microreboot=uniform(0.0)
            )
        ).run()
        assert result.total_recovery_attempts == 2
        assert result.total_recoveries == 0
        assert result.total_failed_recoveries == 2
        assert result.total_failovers == 2
        assert result.total_dropped_vms == 0

    def test_pure_policy_drops_vm_on_failed_rebuild(self):
        result = ChaosCampaign(
            fast_config(
                recovery_policy="recover-in-place",
                microreboot=uniform(0.0),
            )
        ).run()
        assert result.total_failovers == 0
        assert result.total_dropped_vms == 2

    def test_fingerprint_deterministic_and_carries_recovery_keys(self):
        config = dict(recovery_policy="hybrid", microreboot=uniform(0.7))
        first = ChaosCampaign(fast_config(**config)).run()
        second = ChaosCampaign(fast_config(**config)).run()
        assert first.fingerprint() == second.fingerprint()
        fingerprint = first.fingerprint()
        assert "recoveries" in fingerprint
        assert "failed_recoveries" in fingerprint
        assert "mean_recovery_blackout" in fingerprint

    def test_default_policy_reports_zero_recoveries(self):
        result = ChaosCampaign(
            fast_config(kinds=(FaultKind.HOST_CRASH,))
        ).run()
        fingerprint = result.fingerprint()
        assert fingerprint["recoveries"] == 0
        assert fingerprint["failed_recoveries"] == 0
        assert fingerprint["mean_recovery_blackout"] == "nan"
        assert result.total_recovery_attempts == 0


class TestDominance:
    def test_hybrid_beats_failover_on_unprotected_window(self):
        base = dict(trials=3, seed=23)
        failover = ChaosCampaign(fast_config(**base)).run()
        hybrid = ChaosCampaign(
            fast_config(recovery_policy="hybrid", **base)
        ).run()
        assert (
            hybrid.mean_unprotected_window
            < failover.mean_unprotected_window
        )

    def test_summary_rows_include_recovery_lines(self):
        result = ChaosCampaign(
            fast_config(recovery_policy="hybrid")
        ).run()
        labels = [row["metric"] for row in result.summary_rows()]
        assert any("recover" in label.lower() for label in labels)
