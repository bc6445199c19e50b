"""The ``python -m repro`` command-line interface."""

import glob
import os
import re

import pytest

from repro.cli import main
from repro.experiments.presets import SWEEP_PRESETS

from tests.test_sweep_presets_golden import captured_specs


class TestTable1Command:
    def test_prints_all_products(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        for product in ("Xen", "KVM", "QEMU", "ESXi", "Hyper-V"):
            assert product in out
        assert "312" in out


class TestExperimentsCommand:
    def test_lists_every_figure(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for token in ("Fig. 1", "Fig. 5", "Fig. 17", "Table 5", "ablation"):
            assert token in out

    def test_every_listed_bench_exists_and_every_figure_is_listed(
        self, capsys
    ):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        assert main(["experiments"]) == 0
        listed = re.findall(r"benchmarks/\S+\.py", capsys.readouterr().out)
        for pattern in listed:
            assert glob.glob(os.path.join(repo, pattern)), pattern
        for path in sorted(
            glob.glob(os.path.join(repo, "benchmarks", "test_fig*.py"))
            + glob.glob(os.path.join(repo, "benchmarks", "test_table*.py"))
        ):
            assert f"benchmarks/{os.path.basename(path)}" in listed


class TestReplicateCommand:
    def test_here_run_reports_statistics(self, capsys):
        code = main([
            "replicate", "--engine", "here", "--period", "2",
            "--memory-gib", "1", "--duration", "20", "--load", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoints" in out
        assert "mean degradation" in out

    def test_remus_run(self, capsys):
        code = main([
            "replicate", "--engine", "remus", "--period", "2",
            "--memory-gib", "1", "--duration", "15",
        ])
        assert code == 0
        assert "fixed(T=2s)" in capsys.readouterr().out

    def test_bad_degradation_rejected(self, capsys):
        assert main(["replicate", "--degradation", "1.5"]) == 2

    def test_colo_run_reports_comparisons(self, capsys):
        code = main([
            "replicate", "--engine", "colo", "--memory-gib", "1",
            "--duration", "10", "--load", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "comparisons" in out
        assert "divergence rate" in out

    def test_colo_trace_is_non_empty(self, capsys, tmp_path):
        from repro.telemetry import recorder_from_trace

        path = tmp_path / "colo.jsonl"
        code = main([
            "replicate", "--engine", "colo", "--memory-gib", "1",
            "--duration", "10", "--load", "0.2", "--trace", str(path),
        ])
        assert code == 0
        recorder = recorder_from_trace(path)
        assert recorder.spans("colo.session")
        comparisons = [
            r for r in recorder.records if r.name == "colo.comparison"
        ]
        assert comparisons  # the PR-1 gap: COLO --trace recorded nothing

    def test_trace_writes_reconstructable_jsonl(self, capsys, tmp_path):
        from repro.replication.checkpoint import ReplicationStats
        from repro.telemetry import recorder_from_trace

        path = tmp_path / "run.jsonl"
        code = main([
            "replicate", "--engine", "here", "--period", "2",
            "--memory-gib", "1", "--duration", "15", "--load", "0.2",
            "--trace", str(path),
        ])
        assert code == 0
        recorder = recorder_from_trace(path)
        stats = ReplicationStats.from_recorder(recorder)
        assert stats.checkpoint_count > 0
        assert recorder.spans("replication.checkpoint.pause")


class TestReplicateMigrateInputValidation:
    @pytest.mark.parametrize("argv", [
        ["replicate", "--duration", "-5"],
        ["replicate", "--memory-gib", "-1"],
        ["migrate", "--memory-gib", "0"],
        ["replicate", "--load", "1.5"],
        ["migrate", "--load", "-0.5"],
        ["replicate", "--period", "0"],
        ["replicate", "--engine", "remus", "--period", "0"],
        ["replicate", "--engine", "colo", "--comparison-interval", "0"],
        ["replicate", "--engine", "colo", "--comparison-interval", "nan"],
        ["plan", "--host-memory-gib", "-5"],
        ["plan", "--kvm-hosts", "-3"],
        ["plan", "--xen-hosts", "0"],
        ["sweep", "--preset", "ycsb", "--duration", "-5"],
        ["sweep", "--preset", "table6", "--duration", "0"],
        ["sweep", "--preset", "serving", "--duration", "nan"],
        ["sweep", "--recovery-time", "inf"],
        ["sweep", "--timeout", "nan"],
        ["sweep", "--tolerance", "-1"],
        ["sweep", "--tolerance", "nan"],
    ])
    def test_bad_input_is_a_clean_usage_error(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestMigrateCommand:
    def test_here_migration(self, capsys):
        assert main(["migrate", "--mode", "here", "--memory-gib", "1"]) == 0
        out = capsys.readouterr().out
        assert "yes" in out  # translated + succeeded

    def test_xen_migration(self, capsys):
        assert main(["migrate", "--mode", "xen", "--memory-gib", "1"]) == 0

    def test_trace_captures_the_migration(self, capsys, tmp_path):
        from repro.migration.stats import MigrationStats
        from repro.telemetry import recorder_from_trace

        path = tmp_path / "migration.jsonl"
        code = main([
            "migrate", "--mode", "here", "--memory-gib", "1",
            "--trace", str(path),
        ])
        assert code == 0
        stats = MigrationStats.from_recorder(recorder_from_trace(path))
        assert stats.succeeded
        assert stats.translated


class TestDemoCommand:
    def test_kill_chain_narrative(self, capsys):
        assert main(["demo", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "BOUNCED" in out
        assert "resumption" in out
        assert "Linux KVM" in out


class TestCoverageCommand:
    def test_matrix_matches(self, capsys):
        assert main(["coverage", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "guest self-inflicted" in out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestPlanCommand:
    def test_plan_places_fleet(self, capsys):
        assert main([
            "plan", "--xen-hosts", "1", "--kvm-hosts", "2",
            "--vms", "db:32,web:8",
        ]) == 0
        out = capsys.readouterr().out
        assert "db" in out and "kvm-" in out

    def test_plan_without_heterogeneous_hosts_fails(self, capsys):
        assert main(["plan", "--kvm-hosts", "0", "--vms", "db:8"]) == 1
        assert "UNPLACED" in capsys.readouterr().out

    def test_plan_malformed_vm_entry(self, capsys):
        assert main(["plan", "--vms", "nonsense"]) == 2


class TestChaosCommand:
    def test_campaign_prints_unprotected_window(self, capsys):
        assert main([
            "chaos", "--trials", "1", "--seed", "7", "--vms", "1",
            "--kinds", "host-crash", "--recovery-time", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean unprotected window (s)" in out
        assert "dropped VMs" in out
        assert "host-crash" in out

    def test_trace_carries_the_campaign(self, capsys, tmp_path):
        from repro.telemetry.trace import read_trace

        path = tmp_path / "chaos.jsonl"
        assert main([
            "chaos", "--trials", "1", "--seed", "7", "--vms", "1",
            "--kinds", "host-crash", "--recovery-time", "20",
            "--trace", str(path),
        ]) == 0
        names = {getattr(r, "name", "") for r in read_trace(path)}
        assert "reprotection" in names
        assert "fault.injected" in names
        assert "failover" in names

    def test_unknown_kind_exits(self, capsys):
        assert main(["chaos", "--kinds", "gamma-rays"]) == 2
        assert "gamma-rays" in capsys.readouterr().err

    def test_lossy_preset_reports_transport_rows(self, capsys):
        assert main([
            "chaos", "--preset", "lossy", "--trials", "1", "--seed", "3",
            "--vms", "1", "--faults", "1", "--recovery-time", "15",
        ]) == 0
        out = capsys.readouterr().out
        assert "transport retransmits" in out
        assert "fencing rejections" in out

    def test_default_preset_has_no_transport_rows(self, capsys):
        assert main([
            "chaos", "--trials", "1", "--seed", "7", "--vms", "1",
            "--kinds", "host-crash", "--recovery-time", "20",
        ]) == 0
        assert "transport retransmits" not in capsys.readouterr().out

    def test_serving_overlay_reports_tail_latency(self, capsys):
        assert main([
            "chaos", "--trials", "1", "--seed", "7", "--vms", "1",
            "--kinds", "host-crash", "--recovery-time", "20",
            "--serving-users", "2000", "--serving-rate-per-user", "0.05",
            "--serving-demand", "0.001", "--serving-slo", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving requests" in out
        assert "serving p999 (s)" in out

    def test_default_chaos_has_no_serving_rows(self, capsys):
        assert main([
            "chaos", "--trials", "1", "--seed", "7", "--vms", "1",
            "--kinds", "host-crash", "--recovery-time", "20",
        ]) == 0
        assert "serving" not in capsys.readouterr().out

    def test_corruption_preset_reports_integrity_rows(self, capsys):
        assert main([
            "chaos", "--preset", "corruption", "--trials", "1",
            "--seed", "11", "--vms", "1", "--faults", "1",
            "--recovery-time", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "corruption detection rate" in out
        assert "mean latent corruption window (s)" in out
        assert "corrupt (inj/det/rep)" in out

    def test_default_chaos_has_no_integrity_rows(self, capsys):
        assert main([
            "chaos", "--trials", "1", "--seed", "7", "--vms", "1",
            "--kinds", "host-crash", "--recovery-time", "20",
        ]) == 0
        assert "corruption detection rate" not in capsys.readouterr().out

    def test_corruption_kinds_without_integrity_exit(self, capsys):
        assert main([
            "chaos", "--trials", "1", "--seed", "7", "--vms", "1",
            "--kinds", "replica-bitrot", "--recovery-time", "20",
        ]) == 2
        assert "--integrity" in capsys.readouterr().err

    def test_degraded_threshold_must_cover_miss_threshold(self, capsys):
        assert main([
            "chaos", "--preset", "lossy", "--trials", "1",
            "--miss-threshold", "5", "--degraded-miss-threshold", "2",
        ]) == 2

    def test_lossy_threshold_rises_with_a_larger_miss_threshold(self, capsys):
        # The preset's degraded threshold (12) is lifted to 20, not
        # rejected as lower than --miss-threshold.
        assert main([
            "chaos", "--preset", "lossy", "--trials", "1", "--vms", "1",
            "--miss-threshold", "20", "--recovery-time", "15",
        ]) == 0
        assert "transport retransmits" in capsys.readouterr().out

    def test_negative_recovery_time_is_a_clean_error(self, capsys):
        assert main(["chaos", "--trials", "1", "--recovery-time", "-100"]) == 2
        assert "error: recovery_time must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_recovery_time_is_a_clean_error(self, capsys, value):
        assert main(["chaos", "--trials", "1", "--recovery-time", value]) == 2
        assert "error: recovery_time must be >= 0 and finite" in (
            capsys.readouterr().err
        )

    def test_empty_kinds_list_is_a_clean_error(self, capsys):
        assert main(["chaos", "--trials", "1", "--kinds", ","]) == 2
        err = capsys.readouterr().err
        assert "error: a campaign needs >= 1 fault kind" in err
        assert "Traceback" not in err


class TestServeCommand:
    FAST = [
        "serve", "--users", "2000", "--rate-per-user", "0.05",
        "--duration", "4", "--crash-at", "2", "--seed", "3",
    ]

    def test_single_strategy_prints_the_table(self, capsys):
        assert main(self.FAST + ["--strategy", "here"]) == 0
        out = capsys.readouterr().out
        assert "User-visible latency by strategy" in out
        assert "here" in out
        assert "p999 (ms)" in out
        assert "hedged p999 (ms)" not in out

    def test_hedge_adds_the_hedged_columns(self, capsys):
        assert main(
            self.FAST + ["--strategy", "failover", "--hedge", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "hedged p999 (ms)" in out
        assert "p999 gain (%)" in out

    def test_crash_outside_the_window_exits(self, capsys):
        assert main(self.FAST + ["--crash-at", "9"]) == 2
        assert "crash_at" in capsys.readouterr().err


class TestArgumentValidation:
    def test_chaos_rejects_non_positive_trials(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--trials", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_chaos_rejects_non_positive_faults(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--faults", "-1"])
        assert "positive integer" in capsys.readouterr().err

    def test_sweep_rejects_non_positive_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--jobs", "0"])
        assert "positive integer" in capsys.readouterr().err

    def test_sweep_rejects_non_positive_trials(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--trials", "-3"])
        assert "positive integer" in capsys.readouterr().err

    def test_sweep_rejects_non_integer_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--jobs", "many"])
        assert "not an integer" in capsys.readouterr().err

    def test_serve_rejects_zero_users(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--users", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_serve_rejects_hedge_above_one(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--hedge", "1.5"])
        assert "probability" in capsys.readouterr().err

    def test_serve_rejects_non_positive_demand(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--demand", "0"])
        assert "positive" in capsys.readouterr().err

    def test_chaos_rejects_negative_serving_users(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--serving-users", "-5"])
        assert "non-negative integer" in capsys.readouterr().err

    def test_chaos_rejects_bad_serving_hedge(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--serving-hedge", "2"])
        assert "probability" in capsys.readouterr().err


class TestSweepCommand:
    def sweep(self, tmp_path, *extra):
        return main([
            "sweep", "--preset", "chaos", "--trials", "2", "--jobs", "2",
            "--recovery-time", "10",
            "--cache-dir", str(tmp_path / "cache"),
            *extra,
        ])

    def test_sweep_runs_and_reports(self, capsys, tmp_path):
        assert self.sweep(tmp_path) == 0
        out = capsys.readouterr().out
        assert "cache hits / misses" in out
        assert "0/2" in out
        assert "chaos/trial-0" in out

    def test_lossy_preset_sweeps_lossy_trials(self, capsys, tmp_path):
        assert main([
            "sweep", "--preset", "lossy", "--trials", "1", "--jobs", "1",
            "--recovery-time", "10",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "lossy/trial-0" in out
        assert "cache hits / misses" in out

    def test_second_run_is_all_cache_hits(self, capsys, tmp_path):
        assert self.sweep(tmp_path) == 0
        capsys.readouterr()
        assert self.sweep(tmp_path) == 0
        assert "2/0" in capsys.readouterr().out

    def test_emit_bench_writes_payload(self, capsys, tmp_path):
        import json

        bench_path = tmp_path / "BENCH_sweep.json"
        assert self.sweep(tmp_path, "--emit-bench", str(bench_path)) == 0
        bench = json.loads(bench_path.read_text())
        assert bench["sweep"] == "chaos"
        assert bench["trials_total"] == 2
        assert len(bench["aggregate_fingerprint"]) == 64
        assert all("wall_clock_s" in trial for trial in bench["trials"])
        assert "speedup" in bench

    def test_serial_and_parallel_fingerprints_match(self, capsys, tmp_path):
        import json

        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main([
            "sweep", "--preset", "chaos", "--trials", "2", "--jobs", "1",
            "--recovery-time", "10", "--no-cache",
            "--cache-dir", str(tmp_path / "c1"), "--emit-bench", str(first),
        ]) == 0
        assert main([
            "sweep", "--preset", "chaos", "--trials", "2", "--jobs", "2",
            "--recovery-time", "10", "--no-cache",
            "--cache-dir", str(tmp_path / "c2"), "--emit-bench", str(second),
        ]) == 0
        fp1 = json.loads(first.read_text())["aggregate_fingerprint"]
        fp2 = json.loads(second.read_text())["aggregate_fingerprint"]
        assert fp1 == fp2

    def test_baseline_gate_passes_against_own_bench(self, capsys, tmp_path):
        bench_path = tmp_path / "BENCH_sweep.json"
        assert self.sweep(tmp_path, "--emit-bench", str(bench_path)) == 0
        capsys.readouterr()
        assert self.sweep(tmp_path, "--baseline", str(bench_path)) == 0
        assert "PASS" in capsys.readouterr().out

    def test_baseline_gate_fails_on_drift(self, capsys, tmp_path):
        import json

        bench_path = tmp_path / "BENCH_sweep.json"
        assert self.sweep(tmp_path, "--emit-bench", str(bench_path)) == 0
        bench = json.loads(bench_path.read_text())
        bench["metrics"]["trial.failovers"] = 99.0
        bench_path.write_text(json.dumps(bench))
        capsys.readouterr()
        assert self.sweep(tmp_path, "--baseline", str(bench_path)) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_baseline_is_a_clean_error(self, capsys, tmp_path):
        assert self.sweep(tmp_path, "--baseline", "/nonexistent.json") == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_sweep_log_is_written(self, tmp_path, capsys):
        import json

        assert self.sweep(tmp_path) == 0
        log = tmp_path / "cache" / "sweeps.jsonl"
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 2
        assert all(record["status"] == "ok" for record in records)
        assert all(record["metrics"] for record in records)
        assert all("telemetry" not in record for record in records)

    @pytest.mark.parametrize("preset", sorted(SWEEP_PRESETS))
    def test_retries_and_timeout_reach_every_spec(self, preset, tmp_path):
        specs = captured_specs(
            ["--preset", preset, "--retries", "2", "--timeout", "30"],
            tmp_path,
        )
        assert specs
        assert all(spec.retries == 2 for spec in specs)
        assert all(spec.timeout == 30.0 for spec in specs)

    @pytest.mark.parametrize("preset, flag", [
        ("serving", ["--trials", "9"]),
        ("chaos", ["--duration", "7"]),
        ("ycsb", ["--recovery-time", "5"]),
    ])
    def test_a_flag_the_preset_ignores_is_rejected(
        self, capsys, tmp_path, preset, flag
    ):
        code = main([
            "sweep", "--preset", preset, *flag,
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {flag[0]} does not apply to --preset {preset}\n"
        )


class TestFleetCommand:
    def fleet(self, *extra):
        return main([
            "fleet", "--zones", "3", "--racks", "1", "--spares", "3",
            "--vms", "6", "--recovery-time", "25", *extra,
        ])

    def test_campaign_reports_reprotections(self, capsys):
        code = self.fleet()
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "shards (host pairs)" in out
        assert "zone-outage" in out
        assert "re-protections" in out

    def test_rack_outage_kind(self, capsys):
        self.fleet("--kind", "rack-outage")
        assert "rack-outage" in capsys.readouterr().out

    def test_unplaceable_fleet_is_a_clean_error(self, capsys):
        # One zone + zone anti-affinity: no admissible secondary.
        assert main(["fleet", "--zones", "1", "--spares", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_chaos_has_no_fleet_preset(self, capsys):
        # Fleet campaigns run through `repro fleet` (one) and
        # `repro sweep --preset fleet` (several seeded trials).
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--preset", "fleet"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fleet'" in capsys.readouterr().err

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every FleetCampaign the CLI builds: ``(config, result)``."""
        from repro import fleet

        runs = []

        class Recording(fleet.FleetCampaign):
            def run(self):
                result = super().run()
                runs.append((self.config, result))
                return result

        monkeypatch.setattr(fleet, "FleetCampaign", Recording)
        return runs

    def test_serving_overlay_prints_serving_rows(self, capsys):
        code = self.fleet("--seed", "11", "--serving-users", "4000")
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "serving requests" in out
        assert "serving p999 (s)" in out
        assert "corruptions (injected/detected/repaired)" not in out

    def test_overlays_match_a_direct_campaign(self, capsys, recorded):
        from dataclasses import replace

        from repro.fleet import FleetCampaign
        from repro.integrity import IntegrityConfig
        from repro.serving import ServingConfig

        code = main([
            "fleet", "--vms", "4", "--seed", "5",
            "--serving-users", "4000", "--integrity",
        ])
        out = capsys.readouterr().out
        assert code in (0, 1)
        for row in ("serving requests", "serving p999 (s)",
                    "corruptions (injected/detected/repaired)",
                    "failovers refused (suspect replica)"):
            assert row in out
        [(config, cli_result)] = recorded
        # The flag defaults are the overlay configs' own defaults.
        direct_config = replace(
            config,
            spec=replace(config.spec, integrity=IntegrityConfig()),
            serving=ServingConfig(users=4000),
        )
        assert direct_config == config
        direct = FleetCampaign(direct_config).run()
        assert cli_result.fingerprint() == direct.fingerprint()

    def test_overlay_flags_reach_the_campaign(self, capsys, recorded):
        from repro.hardware.units import GIB
        from repro.integrity import IntegrityConfig
        from repro.serving import ServingConfig

        code = main([
            "fleet", "--vms", "4", "--recovery-time", "10",
            "--integrity", "--scrub-interval", "0.5",
            "--scrub-bandwidth-gib", "1", "--promote-suspect-replicas",
            "--serving-users", "500", "--serving-slo", "0.5",
            "--recovery-policy", "hybrid",
        ])
        assert code in (0, 1)
        [(config, _result)] = recorded
        assert config.spec.recovery_policy == "hybrid"
        assert config.spec.integrity == IntegrityConfig(
            scrub_interval=0.5, scrub_bandwidth=GIB, refuse_failover=False
        )
        assert config.serving == ServingConfig(users=500, slo=0.5)

    def test_sweep_fleet_preset(self, capsys, tmp_path):
        code = main([
            "sweep", "--preset", "fleet", "--trials", "2",
            "--recovery-time", "25",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet/trial-0" in out
        assert "fleet/trial-1" in out


class TestFleetArgumentValidation:
    @pytest.mark.parametrize("command", ["fleet"])
    def test_zones_must_be_positive(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--zones", "0"])
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fleet"])
    def test_spares_must_be_positive(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--spares", "-2"])
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fleet"])
    def test_quantum_must_be_positive(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--quantum", "0"])
        assert "positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--zones", "--spares", "--quantum"])
    def test_sweep_has_no_fleet_shape_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", flag, "3"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_quantum_rejects_non_numeric(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--quantum", "fast"])
        assert "not a number" in capsys.readouterr().err


class TestRecoveryCli:
    def test_recovery_preset_prints_recovery_rows(self, capsys):
        assert main([
            "chaos", "--preset", "recovery", "--trials", "1", "--seed", "7",
            "--vms", "1", "--recovery-time", "20",
            "--recovery-success-prob", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "in-place recoveries (ok/failed)" in out
        assert "recovered" in out
        assert "hypervisor-crash" in out or "hypervisor-hang" in out

    def test_explicit_policy_without_preset(self, capsys):
        assert main([
            "chaos", "--trials", "1", "--seed", "7", "--vms", "1",
            "--kinds", "hypervisor-crash", "--recovery-time", "20",
            "--recovery-policy", "hybrid",
        ]) == 0
        assert "recovery success rate" in capsys.readouterr().out

    def test_default_campaign_has_no_recovery_rows(self, capsys):
        assert main([
            "chaos", "--trials", "1", "--seed", "7", "--vms", "1",
            "--kinds", "host-crash", "--recovery-time", "20",
        ]) == 0
        assert "in-place recoveries" not in capsys.readouterr().out

    def test_success_prob_above_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--recovery-success-prob", "1.5"])
        assert excinfo.value.code == 2
        assert "probability in [0, 1]" in capsys.readouterr().err

    def test_success_prob_negative_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--recovery-success-prob", "-0.2"])
        assert "probability in [0, 1]" in capsys.readouterr().err

    def test_success_prob_rejects_non_numeric(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--recovery-success-prob", "likely"])
        assert "not a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--recovery-rebuild-min", "--recovery-rebuild-max",
         "--recovery-deadline"],
    )
    def test_negative_rebuild_times_rejected(self, capsys, flag):
        with pytest.raises(SystemExit):
            main(["chaos", flag, "-1"])
        assert "positive number" in capsys.readouterr().err

    def test_unknown_policy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--recovery-policy", "reboot-harder"])
        assert "invalid choice" in capsys.readouterr().err

    def test_inverted_rebuild_bounds_exit(self, capsys):
        assert main([
            "chaos", "--trials", "1", "--recovery-policy", "hybrid",
            "--recovery-rebuild-min", "0.9",
            "--recovery-rebuild-max", "0.3",
        ]) == 2
        assert "rebuild" in capsys.readouterr().err

    def test_fleet_accepts_recovery_policy(self, capsys):
        assert main([
            "fleet", "--zones", "2", "--vms", "4", "--seed", "5",
            "--faults", "2", "--kind", "hypervisor-crash",
            "--recovery-policy", "hybrid",
        ]) == 0
        assert "in-place recoveries" in capsys.readouterr().out


class TestProfileCommand:
    @pytest.mark.parametrize("argv", [
        ["--limit", "3", "chaos", "--trials", "1", "--vms", "1",
         "--recovery-time", "20"],
        ["fleet", "--vms", "4", "--recovery-time", "10"],
    ])
    def test_prints_pstats_and_throughput(self, capsys, argv):
        assert main(["profile", *argv]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        stats = next(
            i for i, line in enumerate(lines) if "function calls" in line
        )
        assert lines[stats - 1].startswith("throughput: ")
        assert "Ordered by: cumulative time" in "\n".join(lines[stats:])

    def test_returns_the_profiled_commands_exit_code(self, capsys):
        assert main(["profile", "plan", "--kvm-hosts", "0"]) == 1
        assert "UNPLACED" in capsys.readouterr().out

    def test_profiled_output_equals_the_plain_run(self, capsys):
        argv = ["replicate", "--memory-gib", "1", "--duration", "5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(["profile", "--sort", "tottime", *argv]) == 0
        profiled = capsys.readouterr().out
        assert profiled.startswith(plain)
        assert "Ordered by: internal time" in profiled

    @pytest.mark.parametrize("argv", [
        ["--preset", "chaos"],
        ["--trials", "2", "chaos"],
        ["profile", "chaos"],
    ])
    def test_old_options_and_self_profiling_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", *argv])
        assert excinfo.value.code == 2
