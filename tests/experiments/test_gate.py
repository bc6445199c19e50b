"""RegressionGate: per-metric deltas under configurable tolerance."""

import json
import math

import pytest

from repro.experiments import RegressionGate, Tolerance, load_baseline


class TestTolerance:
    def test_relative_margin(self):
        tolerance = Tolerance(relative=0.1)
        assert tolerance.allows(100.0, 109.0)
        assert not tolerance.allows(100.0, 111.0)
        # Drift in either direction counts.
        assert not tolerance.allows(100.0, 89.0)

    def test_absolute_floor_covers_near_zero_baselines(self):
        tolerance = Tolerance(relative=0.1, absolute=0.5)
        assert tolerance.allows(0.0, 0.4)
        assert not tolerance.allows(0.0, 0.6)

    def test_non_finite_values_must_match_exactly(self):
        tolerance = Tolerance()
        assert tolerance.allows(math.inf, math.inf)
        assert not tolerance.allows(math.inf, 5.0)
        assert tolerance.allows(math.nan, math.nan)
        assert not tolerance.allows(math.nan, 1.0)

    def test_at_least_gates_only_drops(self):
        # Throughput semantics: a faster machine or a real optimisation
        # must never fail the gate; only a drop beyond the margin does.
        tolerance = Tolerance(relative=0.1, direction="at-least")
        assert tolerance.allows(100.0, 500.0)
        assert tolerance.allows(100.0, 100.0)
        assert tolerance.allows(100.0, 91.0)
        assert not tolerance.allows(100.0, 89.0)

    def test_at_most_gates_only_rises(self):
        # Cost semantics (wall-time budgets): cheaper always passes.
        tolerance = Tolerance(relative=0.1, direction="at-most")
        assert tolerance.allows(100.0, 1.0)
        assert tolerance.allows(100.0, 109.0)
        assert not tolerance.allows(100.0, 111.0)

    def test_one_sided_margin_still_uses_absolute_floor(self):
        tolerance = Tolerance(relative=0.1, absolute=0.5,
                              direction="at-least")
        assert tolerance.allows(0.0, -0.4)
        assert not tolerance.allows(0.0, -0.6)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            Tolerance(direction="sideways")

    @pytest.mark.parametrize("margins", [
        dict(relative=-1.0), dict(relative=math.nan), dict(relative=math.inf),
        dict(absolute=-1e-9), dict(absolute=math.nan),
    ])
    def test_negative_or_non_finite_margin_rejected(self, margins):
        with pytest.raises(ValueError, match="margins"):
            Tolerance(**margins)


class TestRegressionGate:
    def test_pass_and_fail_verdicts(self):
        gate = RegressionGate(Tolerance(relative=0.05))
        report = gate.compare(
            {"throughput": 1000.0, "mttr": 0.5},
            {"throughput": 1010.0, "mttr": 0.8},
        )
        verdicts = {delta.metric: delta.verdict for delta in report.deltas}
        assert verdicts == {"throughput": "ok", "mttr": "regressed"}
        assert not report.passed
        assert [d.metric for d in report.regressions] == ["mttr"]

    def test_missing_metric_fails_new_metric_is_informational(self):
        report = RegressionGate().compare(
            {"gone": 1.0}, {"fresh": 2.0}
        )
        verdicts = {delta.metric: delta.verdict for delta in report.deltas}
        assert verdicts == {"gone": "missing", "fresh": "new"}
        assert not report.passed

    def test_per_metric_tolerance_override(self):
        gate = RegressionGate(
            Tolerance(relative=0.01),
            per_metric={"noisy": Tolerance(relative=0.5)},
        )
        report = gate.compare(
            {"noisy": 10.0, "tight": 10.0},
            {"noisy": 14.0, "tight": 10.5},
        )
        verdicts = {delta.metric: delta.verdict for delta in report.deltas}
        assert verdicts == {"noisy": "ok", "tight": "regressed"}

    def test_delta_and_relative_delta(self):
        report = RegressionGate().compare({"m": 10.0}, {"m": 12.0})
        delta = report.deltas[0]
        assert delta.delta == pytest.approx(2.0)
        assert delta.relative_delta == pytest.approx(0.2)

    def test_summary_rows_cover_every_metric(self):
        report = RegressionGate().compare({"a": 1.0}, {"a": 1.0, "b": 2.0})
        assert {row["metric"] for row in report.summary_rows()} == {"a", "b"}


class TestLoadBaseline:
    def test_reads_bench_payload_metrics_block(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(
            {"metrics": {"x": 1.5, "label": "not-a-number"}, "jobs": 4}
        ))
        assert load_baseline(str(path)) == {"x": 1.5}

    def test_reads_bare_mapping(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"x": 2.0, "y": 3}))
        assert load_baseline(str(path)) == {"x": 2.0, "y": 3.0}

    def test_rejects_non_object_payloads(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ValueError):
            load_baseline(str(path))
