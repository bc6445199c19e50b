"""Built-in trial kinds and sweep builders."""

import json
import math

import pytest

from repro.experiments import ExperimentSpec, SweepLog, SweepRunner, resolve_trial
from repro.experiments import registry
from repro.experiments.presets import (
    BENCH_SEED,
    TABLE6,
    ReplicationSetup,
    chaos_sweep,
    fleet_sweep,
    resolve_setup,
    run_checkpoint_trial,
    run_serving_trial,
    serving_sweep,
    table6_sweep,
    ycsb_sweep,
)


class TestTable6:
    def test_paper_surface_is_complete(self):
        assert "Xen" in TABLE6
        assert "Remus3Sec" in TABLE6
        assert sum(1 for s in TABLE6.values() if s.engine == "here") == 7

    def test_setup_builds_a_deployment_spec(self):
        spec = TABLE6["Remus5Sec"].spec(1 << 30)
        assert spec.engine == "remus"
        assert spec.secondary_flavor == "xen"
        assert spec.seed == BENCH_SEED

    def test_benchmark_harness_reexports_the_same_objects(self):
        import importlib
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            harness = importlib.import_module("harness")
        finally:
            sys.path.remove("benchmarks")
        assert harness.TABLE6 is TABLE6
        assert harness.ReplicationSetup is ReplicationSetup
        assert harness.BENCH_SEED == BENCH_SEED


class TestResolveSetup:
    def test_label_dict_and_instance(self):
        by_label = resolve_setup("Remus3Sec")
        assert by_label is TABLE6["Remus3Sec"]
        by_dict = resolve_setup({"label": "ad-hoc", "engine": "here",
                                 "period": 2.0})
        assert isinstance(by_dict, ReplicationSetup)
        assert resolve_setup(by_dict) is by_dict

    def test_unknown_label_names_the_candidates(self):
        with pytest.raises(KeyError, match="Remus3Sec"):
            resolve_setup("nope")

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_setup(42)


class TestSweepBuilders:
    def test_builtin_kinds_registered(self):
        for kind in ("throughput", "checkpoint", "chaos-trial"):
            assert callable(resolve_trial(kind))

    def test_chaos_sweep_one_spec_per_trial(self):
        specs = chaos_sweep(3, seed=5, recovery_time=10.0)
        assert [spec.name for spec in specs] == [
            "chaos/trial-0", "chaos/trial-1", "chaos/trial-2"
        ]
        for index, spec in enumerate(specs):
            assert spec.kind == "chaos-trial"
            assert spec.params["index"] == index
            assert spec.params["trials"] == 1
            assert spec.params["seed"] == 5
            assert all(isinstance(kind, str) for kind in spec.params["kinds"])
        assert len({spec.fingerprint() for spec in specs}) == 3

    def test_chaos_sweep_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            chaos_sweep(0)

    def test_ycsb_sweep_is_setups_times_mixes(self):
        specs = ycsb_sweep(setups=("Xen", "Remus5Sec"), mixes=("a", "b"))
        assert len(specs) == 4
        mixes = {spec.params["workload_kwargs"]["mix"] for spec in specs}
        assert mixes == {"a", "b"}
        assert all(spec.kind == "throughput" for spec in specs)
        assert all("mix" not in spec.params for spec in specs)
        assert len({spec.fingerprint() for spec in specs}) == 4

    def test_ycsb_sweep_rejects_unknown_setup(self):
        with pytest.raises(KeyError):
            ycsb_sweep(setups=("NotASetup",))

    def test_serving_sweep_one_spec_per_strategy(self):
        from repro.serving import STRATEGIES

        specs = serving_sweep(seed=5, users=10_000)
        assert [spec.params["strategy"] for spec in specs] == list(
            STRATEGIES
        )
        assert all(spec.kind == "serving" for spec in specs)
        assert all(
            spec.params["serving"]["users"] == 10_000 for spec in specs
        )
        # Each strategy derives its own seed: no stream is shared.
        assert len({spec.seed for spec in specs}) == len(specs)
        assert len({spec.fingerprint() for spec in specs}) == len(specs)

    def test_serving_sweep_keeps_the_crash_inside_a_short_window(self):
        specs = serving_sweep(duration=4.0)
        assert all(spec.params["crash_at"] == 2.0 for spec in specs)
        pinned = serving_sweep(duration=4.0, crash_at=1.0)
        assert all(spec.params["crash_at"] == 1.0 for spec in pinned)

    def test_table6_sweep_covers_every_protected_setup(self):
        specs = table6_sweep()
        labels = {spec.params["setup"] for spec in specs}
        assert labels == {
            label for label, setup in TABLE6.items() if setup.engine != "none"
        }


class TestFleetSweep:
    def test_parallel_sweep_equals_direct_campaigns(self):
        """Each fleet-sweep trial is the campaign it names, run directly."""
        from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
        from repro.simkernel.random import derive_seed

        sweep = SweepRunner(jobs=2).run(fleet_sweep(trials=2, seed=3))
        assert all(outcome.ok for outcome in sweep.outcomes)
        for index, outcome in enumerate(sweep.outcomes):
            direct = FleetCampaign(FleetCampaignConfig(
                spec=FleetSpec(
                    zones=3, racks_per_zone=1, hosts_per_rack=2, spares=3,
                    vms=6, seed=derive_seed(3, f"fleet-trial-{index}"),
                ),
                settle_time=3.0, fault_window=4.0, recovery_time=25.0,
                faults=1,
            )).run()
            assert outcome.metrics["fingerprint"] == direct.fingerprint()


class TestServingTrialRunner:
    def test_runs_one_strategy_and_reports_the_tail(self):
        metrics = run_serving_trial({
            "strategy": "here",
            "seed": 3,
            "serving": {
                "users": 2_000,
                "rate_per_user": 0.05,
                "demand": 0.001,
                "slo": 0.1,
                "hedge": 0.5,
            },
            "duration": 4.0,
            "crash_at": 2.0,
        })
        assert metrics["strategy"] == "here"
        assert metrics["requests"] > 100
        assert math.isfinite(metrics["p999"])
        assert "hedged_p999" in metrics
        assert metrics["fingerprint"]["requests"] == metrics["requests"]


class TestCheckpointTrialRunner:
    def test_runs_and_reports_checkpoint_metrics(self):
        metrics = run_checkpoint_trial({
            "setup": "HERE(3Sec,0%)",
            "memory_gib": 0.5,
            "load": 0.2,
            "duration": 12.0,
            "seed": 3,
        })
        assert metrics["config"] == "HERE(3Sec,0%)"
        assert metrics["checkpoints"] > 0
        assert metrics["mean_transfer_s"] > 0
        assert math.isfinite(metrics["mean_degradation"])


#: One tiny trial of every built-in kind.
TINY_SPECS = [
    ExperimentSpec(name="tiny", kind="throughput", seed=3, params={
        "setup": "HERE(3Sec,0%)", "workload": "idle",
        "memory_gib": 0.5, "duration": 4.0,
    }),
    ExperimentSpec(name="tiny", kind="checkpoint", seed=3, params={
        "setup": "HERE(3Sec,0%)", "memory_gib": 0.5, "load": 0.2,
        "duration": 4.0,
    }),
    chaos_sweep(1, seed=3, vms=1, settle_time=2.0, fault_window=2.0,
                recovery_time=5.0)[0],
    serving_sweep(["here"], seed=3, users=2_000, duration=4.0)[0],
    fleet_sweep(1, seed=3, recovery_time=10.0)[0],
]


class TestTrialContract:
    def test_every_builtin_kind_has_a_tiny_spec(self):
        assert {spec.kind for spec in TINY_SPECS} == {
            kind for kind in registry._RUNNERS if not kind.startswith("test-")
        }

    @pytest.mark.parametrize("spec", TINY_SPECS, ids=lambda spec: spec.kind)
    def test_builtin_kind_returns_only_its_metrics(
        self, spec, tmp_path, monkeypatch
    ):
        """A runner returns one plain metrics dict, and the sweep log
        records those metrics with no telemetry table beside them."""
        builtin = resolve_trial(spec.kind)
        returned = []

        def spy(params):
            returned.append(builtin(params))
            return returned[-1]

        monkeypatch.setitem(registry._RUNNERS, spec.kind, spy)
        log = tmp_path / "sweeps.jsonl"
        (outcome,) = SweepRunner(jobs=1, log=SweepLog(str(log))).run(
            [spec]
        ).outcomes
        assert type(returned[0]) is dict
        assert outcome.ok, outcome.error
        (record,) = [json.loads(line) for line in log.read_text().splitlines()]
        assert "telemetry" not in record
        assert record["metrics"] == json.loads(json.dumps(returned[0]))
