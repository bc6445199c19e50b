"""Analysis utilities: series, fits, reports, degradation, overhead."""

import math

import pytest

from repro.analysis import (
    LinearFit,
    TimeSeries,
    estimate_alpha,
    format_value,
    improvement_pct,
    linear_fit,
    rate_of_progress,
    relative_change,
    render_bars,
    render_series,
    render_table,
    respects_target,
)
from repro.experiments.presets import slowdown_pct


class TestTimeSeries:
    def test_append_and_stats(self):
        series = TimeSeries("t")
        series.extend([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
        assert series.mean() == pytest.approx(3.0)
        assert series.last() == 5.0
        assert len(series) == 3

    def test_time_must_not_go_backwards(self):
        series = TimeSeries()
        series.append(5.0, 1.0)
        with pytest.raises(ValueError):
            series.append(4.0, 2.0)

    def test_window(self):
        series = TimeSeries()
        series.extend([(0.0, 1.0), (5.0, 2.0), (10.0, 3.0)])
        windowed = series.window(1.0, 9.0)
        assert windowed.values == [2.0]

    def test_value_at_step_interpolation(self):
        series = TimeSeries()
        series.extend([(0.0, 1.0), (10.0, 2.0)])
        assert series.value_at(5.0) == 1.0
        assert series.value_at(10.0) == 2.0
        assert series.value_at(100.0) == 2.0

    def test_resample(self):
        series = TimeSeries()
        series.extend([(0.0, 1.0), (3.0, 2.0)])
        resampled = series.resample(1.0)
        assert resampled.values == [1.0, 1.0, 1.0, 2.0]

    def test_empty_series(self):
        series = TimeSeries()
        assert math.isnan(series.mean())
        with pytest.raises(IndexError):
            series.last()

    def test_rate_of_progress(self):
        samples = [(float(t), 10.0 * t) for t in range(11)]
        rates = rate_of_progress(samples, window=2.0)
        assert rates.values[-1] == pytest.approx(10.0)


class TestLinearFit:
    def test_perfect_line_recovered(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0 * x + 1.0 for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10.0) == pytest.approx(21.0)

    def test_noisy_line_r_squared_below_one(self):
        xs = list(range(20))
        ys = [2.0 * x + ((-1) ** x) * 3.0 for x in xs]
        fit = linear_fit([float(x) for x in xs], ys)
        assert 0.9 < fit.r_squared < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [1.0])
        with pytest.raises(ValueError):
            linear_fit([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            linear_fit([1.0, 1.0], [1.0, 2.0])

    def test_estimate_alpha_recovers_eq4(self):
        # t = (alpha/P) N + C with alpha=50us, P=4, C=4ms.
        alpha, parallelism, constant = 50e-6, 4, 4e-3
        ns = [10_000.0, 20_000.0, 50_000.0, 100_000.0]
        ts = [alpha / parallelism * n + constant for n in ns]
        estimated_alpha, estimated_c = estimate_alpha(ns, ts, parallelism)
        assert estimated_alpha == pytest.approx(alpha, rel=1e-6)
        assert estimated_c == pytest.approx(constant, rel=1e-6)


class TestChangeMetrics:
    def test_improvement_pct(self):
        assert improvement_pct(10.0, 3.0) == pytest.approx(70.0)
        assert math.isnan(improvement_pct(0.0, 1.0))

    def test_relative_change(self):
        assert relative_change(10.0, 15.0) == pytest.approx(0.5)

    def test_throughput_slowdown(self):
        assert slowdown_pct(48.0, 100.0) == pytest.approx(52.0)
        assert math.isnan(slowdown_pct(1.0, 0.0))


class TestRespectsTarget:
    def test_all_within_target(self):
        assert respects_target([0.28, 0.31, 0.29], target=0.3)

    def test_soft_target_allows_outliers(self):
        # One transient spike must not fail a soft target check.
        samples = [0.3] * 20 + [0.9]
        assert respects_target(samples, target=0.3)

    def test_systematic_violation_detected(self):
        assert not respects_target([0.6] * 20, target=0.3)

    def test_empty_is_vacuously_true(self):
        assert respects_target([], target=0.3)


class TestRendering:
    def test_table_alignment(self):
        rows = [
            {"name": "Xen", "cves": 312, "pct": 48.7},
            {"name": "KVM", "cves": 74, "pct": 51.4},
        ]
        table = render_table(rows, title="Table 1")
        assert "Table 1" in table
        assert "Xen" in table and "312" in table
        lines = table.splitlines()
        assert len({len(line) for line in lines[1:3]}) == 1  # header rule

    def test_table_empty(self):
        assert "(no rows)" in render_table([])

    def test_series_chart(self):
        chart = render_series([0.0, 1.0, 2.0], [1.0, 5.0, 3.0], label="D")
        assert "D" in chart
        assert "*" in chart

    def test_bars(self):
        rows = [
            {"config": "Xen", "ops": 42.8, "deg": 0},
            {"config": "Remus", "ops": 20.5, "deg": 52},
        ]
        bars = render_bars(rows, "config", "ops", annotation_key="deg")
        assert "#" in bars
        assert "(52)" in bars

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(float("nan")) == "-"
        assert format_value(1234.8) == "1,235"
        assert format_value(0.123456) == "0.123"
