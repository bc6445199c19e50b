"""The five-way strategy study, on a deliberately small population."""

import math
from dataclasses import replace

import pytest

from repro.recovery import MicrorebootConfig
from repro.serving import (
    STRATEGIES,
    ServingConfig,
    ServingStudy,
    StudyConfig,
    overlay_report,
    study_fingerprint,
)
from repro.serving import model as serving_model
from repro.serving import study as serving_study


def small_config(**overrides):
    defaults = dict(
        serving=ServingConfig(
            users=2_000, rate_per_user=0.05, demand=0.001, slo=0.1,
            hedge=0.5,
        ),
        seed=3,
        duration=4.0,
        crash_at=2.0,
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


class TestStudyConfig:
    def test_validation(self):
        for kwargs in (
            dict(duration=0.0),
            dict(crash_at=5.0),  # at/after the 4s window
            dict(restart_min=0.0),
            dict(restart_min=3.0, restart_max=2.0),
        ):
            with pytest.raises(ValueError):
                small_config(**kwargs)
        # The nested microreboot model validates its own probabilities.
        with pytest.raises(ValueError):
            small_config(microreboot=MicrorebootConfig.with_uniform_prob(1.5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(duration=math.inf),
            dict(restart_max=math.inf),
            dict(restart_min=math.inf, restart_max=math.inf),
            dict(remus_period=0.0),
            dict(remus_period=-0.05),
            dict(remus_period=math.inf),
            dict(here_t_max=0.0),
            dict(here_t_max=math.nan),
            dict(colo_interval=-1.0),
            dict(colo_interval=math.inf),
        ],
    )
    def test_non_finite_or_non_positive_knobs_rejected(self, kwargs):
        # Caught here, not as a hung sim.run(until=inf) or a NaN
        # period deep inside an engine.
        with pytest.raises(ValueError):
            small_config(**kwargs)


class TestRunStrategy:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ServingStudy(small_config()).run_strategy("raid0")

    def test_here_strategy_is_deterministic(self):
        study = ServingStudy(small_config())
        first = study.run_strategy("here")
        second = ServingStudy(small_config()).run_strategy("here")
        assert first.fingerprint() == second.fingerprint()
        assert first.report.requests > 100
        assert first.report.served + first.report.lost == (
            first.report.requests
        )
        # hedge > 0 in the config: the hedged twin report exists and
        # covers the same arrival stream.
        assert first.hedged_report is not None
        assert first.hedged_report.requests == first.report.requests
        assert math.isfinite(first.crash_time)
        assert math.isfinite(first.detection_time)

    def test_failover_baseline_pays_a_blackout(self):
        outcome = ServingStudy(small_config()).run_strategy("failover")
        assert outcome.report.lost > 0
        # Detection plus the seeded cold restart (>= restart_min).
        assert outcome.blackout > small_config().restart_min
        # Nobody replicates: no replica, so hedging rescues nothing.
        assert outcome.hedged_report.rescued == 0

    def test_hedge_zero_skips_the_hedged_report(self):
        config = small_config(
            serving=ServingConfig(
                users=2_000, rate_per_user=0.05, demand=0.001, slo=0.1
            )
        )
        outcome = ServingStudy(config).run_strategy("here")
        assert outcome.hedged_report is None
        assert "hedged_p999" not in outcome.fingerprint()


class TestStudyFingerprint:
    def test_covers_every_strategy(self):
        # run() is five full simulations; keep the population tiny.
        outcomes = ServingStudy(small_config()).run()
        fingerprint = study_fingerprint(outcomes)
        assert set(fingerprint) == set(STRATEGIES)
        for strategy in STRATEGIES:
            assert fingerprint[strategy]["requests"] > 0


class TestRunOnce:
    """Each strategy runs its primary queue once for both reports."""

    def run_counted(self, monkeypatch, config):
        calls = []
        harvests = []
        real_queue = serving_model.ps_complete
        real_overlay = serving_study.overlay_reports

        def counting_queue(*args, **kwargs):
            calls.append(args)
            return real_queue(*args, **kwargs)

        def spying_overlay(recorder, **kwargs):
            harvests.append((recorder, kwargs))
            return real_overlay(recorder, **kwargs)

        monkeypatch.setattr(serving_model, "ps_complete", counting_queue)
        monkeypatch.setattr(serving_study, "overlay_reports", spying_overlay)
        outcomes = ServingStudy(config).run()
        return outcomes, len(calls), harvests

    def test_hedged_study_queues_each_primary_once(self, monkeypatch):
        config = small_config()
        outcomes, calls, harvests = self.run_counted(monkeypatch, config)
        # Five primary queues plus one clone queue per replicated
        # strategy: failover has no replica to clone to.
        assert calls == 5 + 4
        # Each report equals a standalone overlay on the same recorder
        # with that hedge, so the arrivals-then-mask draw order held.
        for strategy, (recorder, kwargs) in zip(STRATEGIES, harvests):
            assert kwargs.pop("hedges") == (0.0, config.serving.hedge)
            outcome = outcomes[strategy]
            for report, hedge in (
                (outcome.report, 0.0),
                (outcome.hedged_report, config.serving.hedge),
            ):
                alone = overlay_report(
                    recorder,
                    **{
                        **kwargs,
                        "config": replace(config.serving, hedge=hedge),
                    },
                )
                assert report.fingerprint() == alone.fingerprint()
                assert report.hedged == alone.hedged
                assert report.clone_wins == alone.clone_wins

    def test_unhedged_study_queues_each_primary_once(self, monkeypatch):
        config = small_config(serving=replace(small_config().serving, hedge=0.0))
        outcomes, calls, _ = self.run_counted(monkeypatch, config)
        assert calls == 5
        assert all(o.hedged_report is None for o in outcomes.values())
