"""SweepRunner: parallelism, determinism, caching, crash isolation.

The throwaway trial kinds registered here reach worker processes via
the ``fork`` start method (workers inherit the parent's registry), the
same mechanism the runner relies on for test and notebook usage.
"""

import json
import os
import time

import pytest

from repro.experiments import (
    ExperimentSpec,
    ParameterGrid,
    ResultStore,
    SweepLog,
    SweepRunner,
    register_trial,
)


@register_trial("test-square")
def _square(params):
    return {"value": params["x"] ** 2, "seed": params["seed"]}


@register_trial("test-fail")
def _fail(params):
    raise RuntimeError("deterministic boom")


@register_trial("test-crash")
def _crash(params):
    os._exit(17)


@register_trial("test-sleep")
def _sleep(params):
    time.sleep(params.get("sleep", 30.0))
    return {"slept": True}


@register_trial("test-tuple")
def _tuple(params):
    return {"value": 1}, [{"name": "span.x", "count": 3}]


def square_specs(count=4, seed=11, **kwargs):
    base = ExperimentSpec(name="sq", kind="test-square", seed=seed, **kwargs)
    return ParameterGrid({"x": list(range(count))}).expand(base)


class TestSerialVsParallel:
    def test_aggregate_fingerprint_is_identical(self):
        specs = square_specs(6)
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=3).run(specs)
        assert serial.aggregate_fingerprint() == parallel.aggregate_fingerprint()
        assert [o.metrics for o in serial.outcomes] == [
            o.metrics for o in parallel.outcomes
        ]

    def test_outcomes_keep_spec_order(self):
        result = SweepRunner(jobs=4).run(square_specs(8))
        assert [o.spec.params["x"] for o in result.outcomes] == list(range(8))

    def test_metric_summary_means_numeric_leaves(self):
        result = SweepRunner(jobs=1).run(square_specs(3))  # 0, 1, 4
        assert result.metric_summary()["value"] == pytest.approx(5 / 3)


class TestFailureIsolation:
    def test_exception_fails_one_trial_not_the_sweep(self):
        specs = square_specs(2) + [
            ExperimentSpec(name="bad", kind="test-fail")
        ]
        result = SweepRunner(jobs=1).run(specs)
        assert [o.status for o in result.outcomes] == ["ok", "ok", "failed"]
        assert "deterministic boom" in result.outcomes[-1].error

    def test_failure_preserves_original_traceback(self):
        result = SweepRunner(jobs=1).run(
            [ExperimentSpec(name="bad", kind="test-fail")]
        )
        outcome = result.outcomes[0]
        assert outcome.traceback is not None
        assert "Traceback (most recent call last)" in outcome.traceback
        assert "deterministic boom" in outcome.traceback
        assert "_fail" in outcome.traceback  # the raising frame survives

    def test_worker_failure_ships_traceback_across_the_pipe(self):
        result = SweepRunner(jobs=2).run(
            [ExperimentSpec(name="bad", kind="test-fail")]
        )
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.traceback is not None
        assert "deterministic boom" in outcome.traceback

    def test_dead_worker_has_no_traceback(self):
        result = SweepRunner(jobs=2).run(
            [ExperimentSpec(name="boom", kind="test-crash")]
        )
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.traceback is None  # no Python frame to report

    def test_worker_crash_recorded_as_failed_without_aborting(self):
        specs = square_specs(3) + [
            ExperimentSpec(name="boom", kind="test-crash")
        ]
        result = SweepRunner(jobs=2).run(specs)
        by_name = {o.spec.name: o for o in result.outcomes}
        assert by_name["boom"].status == "failed"
        assert "crashed" in by_name["boom"].error
        assert sum(1 for o in result.outcomes if o.ok) == 3

    def test_timeout_kills_only_the_slow_trial(self):
        specs = square_specs(2) + [
            ExperimentSpec(name="slow", kind="test-sleep", timeout=0.3)
        ]
        started = time.perf_counter()
        result = SweepRunner(jobs=2).run(specs)
        assert time.perf_counter() - started < 10.0
        by_name = {o.spec.name: o for o in result.outcomes}
        assert by_name["slow"].status == "timeout"
        assert sum(1 for o in result.outcomes if o.ok) == 2

    def test_crashed_trial_is_retried_up_to_retries(self):
        spec = ExperimentSpec(name="boom", kind="test-crash", retries=1)
        result = SweepRunner(jobs=2).run([spec])
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 2


class TestCaching:
    def test_second_run_is_all_hits(self, tmp_path):
        store = ResultStore(str(tmp_path))
        specs = square_specs(4)
        first = SweepRunner(jobs=1, store=store).run(specs)
        assert first.cache_hits == 0
        second = SweepRunner(jobs=1, store=store).run(specs)
        assert second.cache_hits == 4
        assert second.aggregate_fingerprint() == first.aggregate_fingerprint()

    def test_spec_change_misses_only_the_changed_trial(self, tmp_path):
        store = ResultStore(str(tmp_path))
        SweepRunner(jobs=1, store=store).run(square_specs(4))
        changed = square_specs(4, seed=99)[:1] + square_specs(4)[1:]
        result = SweepRunner(jobs=1, store=store).run(changed)
        assert result.cache_hits == 3
        assert result.cache_misses == 1

    def test_corrupted_cache_file_reruns_instead_of_crashing(self, tmp_path):
        store = ResultStore(str(tmp_path))
        specs = square_specs(2)
        SweepRunner(jobs=1, store=store).run(specs)
        victim = tmp_path / f"{specs[0].fingerprint()}.json"
        victim.write_text("garbage{{{")
        result = SweepRunner(jobs=1, store=store).run(specs)
        assert result.cache_hits == 1
        assert result.cache_misses == 1
        assert all(o.ok for o in result.outcomes)
        # The slot healed: next run hits again.
        assert SweepRunner(jobs=1, store=store).run(specs).cache_hits == 2

    def test_no_cache_bypass_reruns_everything(self, tmp_path):
        store = ResultStore(str(tmp_path))
        specs = square_specs(3)
        SweepRunner(jobs=1, store=store).run(specs)
        bypass = SweepRunner(jobs=1, store=store, use_cache=False).run(specs)
        assert bypass.cache_hits == 0
        assert all(not o.cached for o in bypass.outcomes)

    def test_failed_trials_are_not_cached(self, tmp_path):
        store = ResultStore(str(tmp_path))
        spec = ExperimentSpec(name="bad", kind="test-fail")
        SweepRunner(jobs=1, store=store).run([spec])
        assert store.load(spec.fingerprint()) is None
        rerun = SweepRunner(jobs=1, store=store).run([spec])
        assert rerun.cache_hits == 0


class TestLoggingAndBench:
    def test_sweep_log_carries_metrics(self, tmp_path):
        log_path = tmp_path / "sweeps.jsonl"
        specs = [ExperimentSpec(name="t", kind="test-square",
                                params={"x": 3}, seed=5)]
        SweepRunner(jobs=1, log=SweepLog(str(log_path))).run(specs)
        record = json.loads(log_path.read_text().splitlines()[0])
        assert record["status"] == "ok"
        assert record["metrics"] == {"value": 9, "seed": 5}
        assert "telemetry" not in record

    def test_runner_returning_a_tuple_is_rejected(self):
        specs = [ExperimentSpec(name="t", kind="test-tuple")]
        (outcome,) = SweepRunner(jobs=1).run(specs).outcomes
        assert outcome.status == "failed"
        assert outcome.error.startswith("TypeError: ")
        assert "'test-tuple'" in outcome.error
        assert "got tuple" in outcome.error

    def test_sweep_log_carries_traceback_for_failures(self, tmp_path):
        log_path = tmp_path / "sweeps.jsonl"
        specs = [ExperimentSpec(name="bad", kind="test-fail")]
        SweepRunner(jobs=1, log=SweepLog(str(log_path))).run(specs)
        record = json.loads(log_path.read_text().splitlines()[0])
        assert record["status"] == "failed"
        assert "deterministic boom" in record["traceback"]

    def test_bench_payload_shape(self, tmp_path):
        store = ResultStore(str(tmp_path))
        result = SweepRunner(jobs=2, store=store).run(square_specs(4))
        bench = result.to_bench(name="unit")
        assert bench["sweep"] == "unit"
        assert bench["trials_total"] == 4
        assert bench["cache"] == {"hits": 0, "misses": 4}
        assert len(bench["aggregate_fingerprint"]) == 64
        assert len(bench["trials"]) == 4
        assert all("wall_clock_s" in trial for trial in bench["trials"])
        assert bench["serial_estimate_s"] >= 0.0

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_unknown_kind_is_a_failed_trial(self):
        result = SweepRunner(jobs=1).run(
            [ExperimentSpec(name="t", kind="no-such-kind")]
        )
        assert result.outcomes[0].status == "failed"
        assert "no-such-kind" in result.outcomes[0].error
