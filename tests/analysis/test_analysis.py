"""Analysis utilities: series, fits, reports, degradation, overhead."""

import math

import pytest

from repro.analysis import (
    LinearFit,
    estimate_alpha,
    format_value,
    improvement_pct,
    linear_fit,
    render_bars,
    render_series,
    render_table,
)
from repro.experiments.presets import slowdown_pct


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

    def test_throughput_slowdown(self):
        assert slowdown_pct(48.0, 100.0) == pytest.approx(52.0)
        assert math.isnan(slowdown_pct(1.0, 0.0))


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
