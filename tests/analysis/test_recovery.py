"""Recovery-policy analysis helpers."""

import math

import pytest

from repro.analysis import policy_comparison_rows, recovery_success_rate


class TestSuccessRate:
    def test_fraction_of_attempts(self):
        assert recovery_success_rate(3, 4) == pytest.approx(0.75)

    def test_no_attempts_is_nan_not_zero(self):
        assert math.isnan(recovery_success_rate(0, 0))

    @pytest.mark.parametrize("args", [(-1, 2), (2, -1), (5, 4)])
    def test_validation(self, args):
        with pytest.raises(ValueError):
            recovery_success_rate(*args)


class TestPolicyComparisonRows:
    def test_rows_from_same_seed_campaigns(self):
        from repro.faults import CampaignConfig, ChaosCampaign, FaultKind
        from repro.recovery import MicrorebootConfig

        def run(policy):
            return ChaosCampaign(CampaignConfig(
                trials=1, seed=29, vms=1, kvm_hosts=1,
                settle_time=2.0, fault_window=2.0, recovery_time=20.0,
                kinds=(FaultKind.HYPERVISOR_CRASH,),
                recovery_policy=policy,
                microreboot=MicrorebootConfig.with_uniform_prob(1.0),
            )).run()

        rows = policy_comparison_rows({
            "failover": run("failover"),
            "hybrid": run("hybrid"),
        })
        by_policy = {row["policy"]: row for row in rows}
        assert by_policy["failover"]["recoveries"] == 0
        assert math.isnan(by_policy["failover"]["recovery_success_rate"])
        assert by_policy["hybrid"]["recoveries"] == 1
        assert by_policy["hybrid"]["failovers"] == 0
        assert (
            by_policy["hybrid"]["mean_unprotected_window_s"]
            < by_policy["failover"]["mean_unprotected_window_s"]
        )
