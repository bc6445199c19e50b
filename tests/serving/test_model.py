"""The serving overlay: SLOs, hedging, merging, NaN-safety."""

import math

import pytest

from repro.serving import (
    ServiceTimeline,
    ServingConfig,
    ServingReport,
    overlay_report,
    serve_timeline,
)
from repro.telemetry import Recorder


def clean_timeline(vm="vm-0", horizon=10.0):
    return ServiceTimeline(vm=vm, start=0.0, horizon=horizon)


def config(**overrides):
    defaults = dict(
        users=20_000, rate_per_user=0.01, demand=0.001, slo=0.05
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


class TestServingConfig:
    def test_validation(self):
        for kwargs in (
            dict(users=0),
            dict(rate_per_user=0.0),
            dict(demand=0.0),
            dict(slo=0.0),
            dict(hedge=1.5),
            dict(hedge=-0.1),
        ):
            with pytest.raises(ValueError):
                config(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(demand=math.nan),
            dict(demand=math.inf),
            dict(slo=math.nan),
            dict(slo=math.inf),
            dict(rate_per_user=math.nan),
            dict(rate_per_user=math.inf),
        ],
    )
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            config(**kwargs)

    def test_arrivals_carry_the_population(self):
        process = config().arrivals()
        assert process.users == 20_000
        assert process.aggregate_rate == pytest.approx(200.0)


class TestServeTimeline:
    def test_clean_run_serves_everyone(self):
        report = serve_timeline(clean_timeline(), config(), seed=1)
        assert report.requests > 1_000
        assert report.lost == 0
        assert report.served == report.requests
        # Light load on a clean timeline: latency hugs the demand.
        assert report.p50 == pytest.approx(0.001, rel=0.1)
        assert report.violations == 0
        assert report.violation_rate == 0.0

    def test_same_seed_is_deterministic(self):
        first = serve_timeline(clean_timeline(), config(), seed=5)
        second = serve_timeline(clean_timeline(), config(), seed=5)
        assert first.requests == second.requests
        assert first.histogram.to_dict() == second.histogram.to_dict()

    def test_pause_stalls_violate_the_slo(self):
        timeline = clean_timeline()
        timeline.pauses = [(4.0, 5.0)]
        report = serve_timeline(timeline, config(), seed=2)
        assert report.lost == 0  # a stall never loses a request
        assert report.violations > 0  # ...but it blows the 50ms SLO
        assert report.p999 > 0.1

    def test_blackout_loses_requests(self):
        timeline = clean_timeline()
        timeline.blackouts = [(4.0, 5.0)]
        report = serve_timeline(timeline, config(), seed=3)
        assert report.lost > 0
        assert report.violations >= report.lost
        assert report.served + report.lost == report.requests

    def test_hedging_rescues_blackout_losses(self):
        timeline = clean_timeline()
        timeline.blackouts = [(4.0, 5.0)]
        timeline.replica_windows = [(0.0, 10.0)]
        unhedged = serve_timeline(timeline, config(), seed=4)
        hedged = serve_timeline(timeline, config(hedge=1.0), seed=4)
        assert hedged.hedged == hedged.requests
        assert hedged.rescued > 0
        assert hedged.clone_wins >= hedged.rescued
        assert hedged.lost == 0  # every primary loss had a live clone
        assert hedged.lost < unhedged.lost

    def test_hedge_draw_without_a_replica_changes_nothing_else(self):
        timeline = clean_timeline()
        timeline.blackouts = [(4.0, 5.0)]
        plain = serve_timeline(timeline, config(), seed=6)
        hedged = serve_timeline(timeline, config(hedge=0.7), seed=6)
        # Clones have nowhere to run: counted, but no outcome shifts.
        assert hedged.hedged > 0
        assert hedged.rescued == 0
        assert hedged.lost == plain.lost
        assert hedged.histogram.to_dict() == plain.histogram.to_dict()

    def test_zero_request_window_is_nan_safe(self):
        # An arrival rate so low the window draws no requests.
        quiet = config(users=1, rate_per_user=1e-12)
        report = serve_timeline(clean_timeline(), quiet, seed=7)
        assert report.requests == 0
        assert math.isnan(report.violation_rate)
        assert math.isnan(report.loss_rate)
        assert math.isnan(report.p999)
        metrics = report.to_metrics()
        assert metrics["requests"] == 0.0
        assert math.isnan(metrics["violation_rate"])


class TestServingReport:
    def test_merge_accumulates_counters_and_histograms(self):
        timeline_a, timeline_b = clean_timeline("a"), clean_timeline("b")
        first = serve_timeline(timeline_a, config(), seed=8)
        second = serve_timeline(timeline_b, config(), seed=8)
        merged = ServingReport(config=config())
        merged.merge(first).merge(second)
        assert merged.requests == first.requests + second.requests
        assert merged.histogram.count == (
            first.histogram.count + second.histogram.count
        )

    def test_summary_rows_render(self):
        report = serve_timeline(clean_timeline(), config(), seed=9)
        rows = report.summary_rows()
        metrics = {row["metric"] for row in rows}
        assert "p999 (s)" in metrics
        assert "SLO violation rate" in metrics


class TestOverlayReport:
    def make_recorder(self):
        return Recorder()

    def test_splits_the_population_across_vms(self):
        recorder = self.make_recorder()
        serving = config()
        merged = overlay_report(
            recorder,
            vms=["vm-0", "vm-1"],
            start=0.0,
            horizon=10.0,
            config=serving,
            seed=11,
        )
        solo = overlay_report(
            recorder,
            vms=["vm-0"],
            start=0.0,
            horizon=10.0,
            config=serving,
            seed=11,
        )
        # Thinning: two VMs each carry about half the population.
        assert merged.requests == pytest.approx(solo.requests, rel=0.2)
        assert merged.served == merged.requests

    def test_extra_blackouts_apply_per_vm(self):
        merged = overlay_report(
            self.make_recorder(),
            vms=["vm-0", "vm-1"],
            start=0.0,
            horizon=10.0,
            config=config(),
            seed=12,
            extra_blackouts={"vm-1": [(0.0, 10.0)]},
        )
        assert merged.lost > 0
        assert merged.served > 0

    def test_needs_at_least_one_vm(self):
        with pytest.raises(ValueError, match="at least one VM"):
            overlay_report(
                self.make_recorder(),
                vms=[],
                start=0.0,
                horizon=10.0,
                config=config(),
                seed=13,
            )

    def test_publishes_aggregates_to_a_bus(self):
        class FakeBus:
            def __init__(self):
                self.counters, self.gauges = {}, {}

            def counter(self, name, value=1.0, **attrs):
                self.counters[name] = value

            def gauge(self, name, value, **attrs):
                self.gauges[name] = value

        bus = FakeBus()
        merged = overlay_report(
            self.make_recorder(),
            vms=["vm-0"],
            start=0.0,
            horizon=10.0,
            config=config(),
            seed=14,
            bus=bus,
        )
        assert bus.counters["serving.requests"] == float(merged.requests)
        assert bus.gauges["serving.p999"] == merged.p999
