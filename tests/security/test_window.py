"""Vulnerability-window arithmetic (the §9 related-work comparison)."""

import pytest

from repro.security import (
    AttackerModel,
    VulnerabilityTimeline,
    compare_strategies,
    here_exposure,
    patching_exposure,
    transplant_exposure,
)

DAY = 86_400.0

#: A typical zero-day life: exploited 90 days before disclosure, patch
#: 14 days after disclosure, applied 7 days later still.
TIMELINE = VulnerabilityTimeline(
    exploit_available=0.0,
    disclosure=90 * DAY,
    patch_available=104 * DAY,
    patch_applied=111 * DAY,
)
ATTACKER = AttackerModel(attacks_per_day=2.0, outage_per_attack=300.0)


class TestTimeline:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            VulnerabilityTimeline(10.0, 5.0, 20.0, 30.0)

    def test_zero_day_period(self):
        assert TIMELINE.zero_day_period == pytest.approx(90 * DAY)

    def test_attacker_validation(self):
        with pytest.raises(ValueError):
            AttackerModel(attacks_per_day=-1.0)


class TestStrategies:
    def test_patching_exposed_until_applied(self):
        report = patching_exposure(TIMELINE, ATTACKER)
        assert report.exposed_seconds == pytest.approx(111 * DAY)

    def test_transplant_cuts_post_disclosure_exposure(self):
        report = transplant_exposure(TIMELINE, ATTACKER, transplant_time=60.0)
        assert report.exposed_seconds == pytest.approx(90 * DAY + 60.0)
        # Still helpless during the zero-day period.
        assert report.exposed_seconds > TIMELINE.zero_day_period

    def test_here_outage_is_rto_sized(self):
        report = here_exposure(TIMELINE, ATTACKER, recovery_time=0.1)
        assert report.outage_per_attack == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            transplant_exposure(TIMELINE, ATTACKER, transplant_time=-1.0)
        with pytest.raises(ValueError):
            here_exposure(TIMELINE, ATTACKER, recovery_time=-1.0)


class TestComparison:
    def test_expected_outage_ordering(self):
        """The paper's positioning, quantified: HERE << transplant <
        patching for expected outage under zero-day DoS."""
        rows = compare_strategies(TIMELINE, ATTACKER)
        by_strategy = {row["strategy"]: row for row in rows}
        patching = by_strategy["patching"]["expected_outage_s"]
        transplant = by_strategy["hypervisor-transplant"]["expected_outage_s"]
        here = by_strategy["HERE"]["expected_outage_s"]
        assert here < transplant < patching
        # HERE's advantage is outage-per-attack, by orders of magnitude.
        assert patching / here > 1000.0

    def test_table_shape(self):
        rows = compare_strategies(TIMELINE, ATTACKER)
        assert [row["strategy"] for row in rows] == [
            "patching", "hypervisor-transplant", "HERE",
        ]
        assert all(row["expected_outage_s"] >= 0 for row in rows)

    def test_here_exposure_matches_measured_rto(self):
        """Plug a *measured* failover RTO into the model."""
        from repro.cluster import DeploymentSpec, ProtectedDeployment
        from repro.hardware.units import GIB

        deployment = ProtectedDeployment(
            DeploymentSpec(
                engine="here", period=2.0, target_degradation=0.0,
                memory_bytes=GIB, seed=3,
            )
        )
        deployment.start_protection()
        sim = deployment.sim
        crash_at = sim.now + 5.0
        sim.schedule_callback(5.0, lambda: deployment.primary.crash("x"))
        report = sim.run_until_triggered(
            deployment.failover.completed, limit=sim.now + 30.0
        )
        measured_rto = report.activated_at - crash_at
        here = here_exposure(TIMELINE, ATTACKER, recovery_time=measured_rto)
        assert here.expected_outage(ATTACKER) < 60.0  # seconds over 111 days


class TestReprotectionExposure:
    def test_window_prices_the_follow_up_attack(self):
        from repro.security import here_reprotection_exposure

        instant = here_reprotection_exposure(
            TIMELINE, ATTACKER, recovery_time=0.1, unprotected_window=0.0
        )
        slow = here_reprotection_exposure(
            TIMELINE, ATTACKER, recovery_time=0.1, unprotected_window=3600.0
        )
        assert instant.outage_per_attack == pytest.approx(0.1)
        assert slow.outage_per_attack > instant.outage_per_attack
        # 2 attacks/day * 1 h window = 1/12 follow-up probability.
        assert slow.outage_per_attack == pytest.approx(
            0.1 + (2.0 * 3600.0 / DAY) * ATTACKER.outage_per_attack
        )

    def test_follow_up_probability_caps_at_one(self):
        from repro.security import here_reprotection_exposure

        report = here_reprotection_exposure(
            TIMELINE, ATTACKER, recovery_time=0.1, unprotected_window=10 * DAY
        )
        assert report.outage_per_attack == pytest.approx(
            0.1 + ATTACKER.outage_per_attack
        )

    def test_validation(self):
        from repro.security import here_reprotection_exposure

        with pytest.raises(ValueError):
            here_reprotection_exposure(
                TIMELINE, ATTACKER, unprotected_window=-1.0
            )

    def test_compare_strategies_grows_a_fourth_row(self):
        rows = compare_strategies(TIMELINE, ATTACKER)
        assert len(rows) == 3
        rows = compare_strategies(
            TIMELINE, ATTACKER, here_unprotected_window=10.0
        )
        assert [row["strategy"] for row in rows] == [
            "patching",
            "hypervisor-transplant",
            "HERE",
            "HERE (measured re-protection)",
        ]
        here, measured = rows[2], rows[3]
        # Pricing the unprotected window only ever makes HERE look
        # worse, but it still dominates the alternatives.
        assert measured["expected_outage_s"] >= here["expected_outage_s"]
        assert measured["expected_outage_s"] < rows[0]["expected_outage_s"]


class TestRecoveryExposure:
    def test_microreboot_blends_blackout_and_full_outage(self):
        from repro.security import microreboot_exposure

        report = microreboot_exposure(
            TIMELINE, ATTACKER, success_prob=0.8, blackout=0.5
        )
        assert report.strategy == "recover-in-place"
        # Vulnerable for as long as patching: nothing is removed.
        assert report.exposed_seconds == pytest.approx(111 * DAY)
        assert report.outage_per_attack == pytest.approx(
            0.8 * 0.5 + 0.2 * ATTACKER.outage_per_attack
        )

    def test_certain_success_costs_only_the_blackout(self):
        from repro.security import microreboot_exposure

        report = microreboot_exposure(
            TIMELINE, ATTACKER, success_prob=1.0, blackout=0.5
        )
        assert report.outage_per_attack == pytest.approx(0.5)

    def test_hybrid_caps_the_failure_branch_at_here_cost(self):
        from repro.security import (
            here_reprotection_exposure,
            hybrid_recovery_exposure,
            microreboot_exposure,
        )

        kwargs = dict(success_prob=0.76, blackout=0.5)
        pure = microreboot_exposure(TIMELINE, ATTACKER, **kwargs)
        hybrid = hybrid_recovery_exposure(
            TIMELINE, ATTACKER, recovery_time=0.1,
            unprotected_window=10.0, **kwargs
        )
        fallback = here_reprotection_exposure(
            TIMELINE, ATTACKER, recovery_time=0.1, unprotected_window=10.0
        )
        # The fallback turns the (1-p) full-outage branch into the
        # (1-p) failover branch: strictly cheaper per attack.
        assert hybrid.outage_per_attack < pure.outage_per_attack
        assert hybrid.outage_per_attack == pytest.approx(
            0.76 * 0.5 + 0.24 * fallback.outage_per_attack
        )

    @pytest.mark.parametrize(
        "kwargs",
        [dict(success_prob=1.5), dict(blackout=-1.0)],
    )
    def test_validation(self, kwargs):
        from repro.security import hybrid_recovery_exposure, microreboot_exposure

        with pytest.raises(ValueError):
            microreboot_exposure(TIMELINE, ATTACKER, **kwargs)
        with pytest.raises(ValueError):
            hybrid_recovery_exposure(TIMELINE, ATTACKER, **kwargs)

    def test_compare_strategies_grows_recovery_rows(self):
        rows = compare_strategies(
            TIMELINE, ATTACKER,
            here_unprotected_window=10.0,
            recovery_success_prob=0.76,
        )
        strategies = [row["strategy"] for row in rows]
        assert strategies[-2:] == [
            "recover-in-place",
            "hybrid (microreboot + HERE)",
        ]
        by_name = {row["strategy"]: row for row in rows}
        # Hybrid beats pure in-place recovery, HERE beats both (it
        # does not leave the primary down for the rebuild).
        assert (
            by_name["hybrid (microreboot + HERE)"]["expected_outage_s"]
            < by_name["recover-in-place"]["expected_outage_s"]
        )
        assert (
            by_name["hybrid (microreboot + HERE)"]["expected_outage_s"]
            < by_name["patching"]["expected_outage_s"]
        )
