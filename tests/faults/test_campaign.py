"""Seeded chaos campaigns: determinism and telemetry-derived metrics."""

import math

import pytest

from repro.faults import CampaignConfig, ChaosCampaign, FaultKind
from repro.telemetry import TraceWriter
from repro.telemetry.trace import read_trace


def fast_config(**overrides):
    defaults = dict(
        trials=1,
        seed=7,
        vms=1,
        kvm_hosts=1,
        settle_time=2.0,
        fault_window=2.0,
        recovery_time=20.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestConfigValidation:
    def test_bad_knobs_rejected(self):
        for kwargs in (
            dict(trials=0),
            dict(vms=0),
            dict(kvm_hosts=0),
            dict(detector="psychic"),
            dict(faults_per_trial=0),
        ):
            with pytest.raises(ValueError):
                fast_config(**kwargs)

    @pytest.mark.parametrize(
        "name", ["settle_time", "fault_window", "recovery_time"]
    )
    def test_negative_durations_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            fast_config(**{name: -1.0})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "name", ["settle_time", "fault_window", "recovery_time"]
    )
    def test_non_finite_durations_rejected(self, name, value):
        # A trial runs for settle + window + recovery: an infinite (or
        # NaN) time would never end.
        with pytest.raises(ValueError, match=f"{name} must be >= 0 and finite"):
            fast_config(**{name: value})

    def test_empty_kinds_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            fast_config(kinds=())

    def test_kinds_given_by_value_become_fault_kinds(self):
        config = fast_config(kinds=["host-crash", FaultKind.LINK_PARTITION])
        assert config.kinds == (
            FaultKind.HOST_CRASH, FaultKind.LINK_PARTITION,
        )
        with pytest.raises(ValueError, match="gamma-rays"):
            fast_config(kinds=["gamma-rays"])


class TestDeterminism:
    def test_same_seed_identical_fingerprint(self):
        first = ChaosCampaign(fast_config()).run()
        second = ChaosCampaign(fast_config()).run()
        assert first.fingerprint() == second.fingerprint()
        assert first.trials[0].faults == second.trials[0].faults
        assert first.trials[0].fault_times == second.trials[0].fault_times

    def test_different_seed_different_faults(self):
        first = ChaosCampaign(fast_config(seed=7, trials=2)).run()
        second = ChaosCampaign(fast_config(seed=8, trials=2)).run()
        faults = lambda result: [t.faults for t in result.trials]  # noqa: E731
        assert faults(first) != faults(second)


class TestCampaignMetrics:
    def test_host_crash_trial_recovers_and_reprotects(self):
        result = ChaosCampaign(
            fast_config(kinds=(FaultKind.HOST_CRASH,))
        ).run()
        trial = result.trials[0]
        assert trial.faults == ["host-crash on xen-0"]
        assert trial.failovers == 1
        assert trial.reprotections == 1
        assert trial.dropped_vms == 0
        assert 0 < trial.mttr["vm-0"] < 5.0
        assert trial.resumption_times["vm-0"] < trial.mttr["vm-0"]
        assert trial.unprotected_windows["vm-0"] > 0
        assert trial.downtime_seconds > 0
        assert math.isfinite(trial.nines)
        assert result.total_dropped_vms == 0
        assert result.mean_mttr == pytest.approx(trial.mttr["vm-0"])
        assert result.max_unprotected_window == pytest.approx(
            trial.unprotected_windows["vm-0"]
        )
        assert 0 < result.pooled_nines < 9

    def test_phi_detector_campaign_runs(self):
        result = ChaosCampaign(
            fast_config(detector="phi", kinds=(FaultKind.HOST_CRASH,))
        ).run()
        assert result.total_failovers == 1
        assert result.total_reprotections == 1

    def test_summary_rows_cover_the_headline_metrics(self):
        result = ChaosCampaign(
            fast_config(kinds=(FaultKind.HOST_CRASH,))
        ).run()
        metrics = {row["metric"] for row in result.summary_rows()}
        assert "mean MTTR (s)" in metrics
        assert "mean unprotected window (s)" in metrics
        assert "dropped VMs" in metrics
        assert "availability (nines)" in metrics


class TestTrace:
    def test_trace_carries_reprotection_spans(self, tmp_path):
        # Acceptance: the unprotected window must be visible as
        # ``reprotection`` spans in the --trace JSONL output.
        path = tmp_path / "chaos.jsonl"
        writer = TraceWriter(path)
        result = ChaosCampaign(
            fast_config(kinds=(FaultKind.HOST_CRASH,)),
            subscribers=[writer],
        ).run()
        writer.close()
        records = read_trace(path)
        spans = [
            r for r in records
            if getattr(r, "name", "") == "reprotection"
            and not r.attrs.get("failed")
        ]
        assert len(spans) == 1
        assert spans[0].attrs["unprotected_window"] == pytest.approx(
            result.trials[0].unprotected_windows["vm-0"]
        )
        fault_counters = [
            r for r in records if getattr(r, "name", "") == "fault.injected"
        ]
        assert len(fault_counters) == 1


class TestCampaignThroughSweepRunner:
    """The parallel chaos path: ``chaos_sweep`` specs through SweepRunner."""

    @staticmethod
    def sweep(config, runner):
        from repro.experiments.presets import chaos_sweep

        sweep = runner.run(chaos_sweep(**vars(config)))
        assert all(outcome.ok for outcome in sweep.outcomes)
        return sweep

    def test_serial_equals_parallel_fingerprint(self):
        from repro.experiments import SweepRunner
        from repro.faults.campaign import CampaignResult, TrialResult

        config = fast_config(
            trials=3, kinds=(FaultKind.HOST_CRASH, FaultKind.HYPERVISOR_CRASH)
        )
        serial = ChaosCampaign(config).run()
        sweep = self.sweep(config, SweepRunner(jobs=3))
        trials = [outcome.metrics["trial"] for outcome in sweep.outcomes]
        assert trials == [trial.to_dict() for trial in serial.trials]
        parallel = CampaignResult(
            config=config, trials=[TrialResult.from_dict(t) for t in trials]
        )
        assert parallel.fingerprint() == serial.fingerprint()

    def test_runner_path_uses_the_cache(self, tmp_path):
        from repro.experiments import ResultStore, SweepRunner

        config = fast_config(trials=2, kinds=(FaultKind.HOST_CRASH,))
        store = ResultStore(str(tmp_path))
        first = self.sweep(config, SweepRunner(jobs=1, store=store))
        second = self.sweep(config, SweepRunner(jobs=1, store=store))
        assert all(outcome.cached for outcome in second.outcomes)
        assert [o.metrics for o in second.outcomes] == [
            o.metrics for o in first.outcomes
        ]


class TestTrialResultRoundTrip:
    def test_to_dict_from_dict_preserves_everything(self):
        result = ChaosCampaign(
            fast_config(kinds=(FaultKind.HOST_CRASH,))
        ).run()
        trial = result.trials[0]
        clone = trial.from_dict(trial.to_dict())
        assert clone == trial
