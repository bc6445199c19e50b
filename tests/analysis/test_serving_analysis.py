"""The serving-study comparison table and its helper metrics."""

import math
from types import SimpleNamespace

import pytest

from repro.analysis import hedging_improvement_pct, strategy_comparison_rows


def report(**overrides):
    defaults = dict(
        requests=1000,
        served=990,
        lost=10,
        violations=25,
        violation_rate=0.025,
        p50=0.002,
        p99=0.05,
        p999=0.2,
        rescued=0,
    )
    defaults.update(overrides)
    return SimpleNamespace(**defaults)


def outcome(**overrides):
    defaults = dict(
        report=report(), hedged_report=None, blackout=math.nan
    )
    defaults.update(overrides)
    return SimpleNamespace(**defaults)


class TestHelpers:
    def test_hedging_improvement(self):
        assert hedging_improvement_pct(0.2, 0.15) == pytest.approx(25.0)
        assert hedging_improvement_pct(0.2, 0.25) == pytest.approx(-25.0)
        assert math.isnan(hedging_improvement_pct(math.nan, 0.1))
        assert math.isnan(hedging_improvement_pct(0.0, 0.1))


class TestComparisonRows:
    def test_unhedged_table_is_narrow(self):
        rows = strategy_comparison_rows({"here": outcome()})
        assert rows[0]["strategy"] == "here"
        assert rows[0]["p999 (ms)"] == 200.0
        assert rows[0]["SLO viol (%)"] == 2.5
        assert "hedged p999 (ms)" not in rows[0]

    def test_hedged_columns_appear_with_a_hedged_report(self):
        hedged = outcome(
            hedged_report=report(p999=0.15, lost=2, rescued=8)
        )
        rows = strategy_comparison_rows(
            {"remus": hedged, "failover": outcome()}
        )
        assert rows[0]["hedged p999 (ms)"] == pytest.approx(150.0)
        assert rows[0]["p999 gain (%)"] == pytest.approx(25.0)
        assert rows[0]["rescued"] == 8

    def test_order_filters_and_sorts(self):
        outcomes = {"b": outcome(), "a": outcome()}
        rows = strategy_comparison_rows(outcomes, order=("a", "b", "zz"))
        assert [row["strategy"] for row in rows] == ["a", "b"]
