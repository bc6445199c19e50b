"""Seeded fleet campaigns: end-to-end runs and the determinism contract."""

import math

import pytest

from repro.faults import FaultKind
from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
from repro.hardware.units import MIB
from repro.telemetry import MetricsAggregator


def config(**kwargs):
    spec_kwargs = dict(
        zones=3,
        racks_per_zone=1,
        hosts_per_rack=2,
        spares=3,
        vms=6,
        vm_memory_bytes=128 * MIB,
        quantum=0.5,
        seed=7,
    )
    spec_kwargs.update(kwargs.pop("spec_kwargs", {}))
    defaults = dict(
        spec=FleetSpec(**spec_kwargs),
        settle_time=3.0,
        fault_window=4.0,
        recovery_time=25.0,
        faults=1,
    )
    defaults.update(kwargs)
    return FleetCampaignConfig(**defaults)


class TestConfigValidation:
    def test_needs_at_least_one_fault(self):
        with pytest.raises(ValueError, match="fault"):
            config(faults=0)

    def test_zone_and_rack_outages_cannot_mix(self):
        with pytest.raises(ValueError, match="pick one"):
            config(
                kinds=(FaultKind.ZONE_OUTAGE, FaultKind.RACK_OUTAGE)
            )

    def test_pair_scale_kinds_rejected(self):
        with pytest.raises(ValueError, match="domain/host power"):
            config(kinds=(FaultKind.LINK_PARTITION,))

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    @pytest.mark.parametrize(
        "name", ["settle_time", "fault_window", "recovery_time"]
    )
    def test_negative_or_non_finite_times_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be >= 0 and finite"):
            config(**{name: value})

    def test_empty_kinds_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            config(kinds=())

    def test_kinds_given_by_value_become_fault_kinds(self):
        assert config(kinds=["rack-outage"]).kinds == (FaultKind.RACK_OUTAGE,)


class TestCampaignRun:
    def test_zone_outage_campaign_exercises_the_control_plane(self):
        result = FleetCampaign(config()).run()
        assert result.vms == 6
        assert result.shards >= 3
        assert result.faults_injected == 1
        assert "zone-outage" in result.fault_descriptions[0]
        # The outage took down at least one primary or secondary, so
        # the control plane had work to do...
        assert result.enqueued >= 1
        assert result.admitted >= 1
        # ...and every redundancy loss was resolved one way or another.
        assert result.reprotections + result.dropped_vms >= 1
        assert result.quanta_executed > 0
        assert result.events_processed > 0

    def test_merged_telemetry_spans_fleet_and_shards(self):
        aggregator = MetricsAggregator()
        result = FleetCampaign(config(), subscribers=[aggregator]).run()
        # fleet.quantum lives on the fleet bus, host.failure on shard
        # buses: both arriving proves one subscriber merges calendars.
        assert aggregator.count("fleet.quantum") == result.quanta_executed
        assert aggregator.count("host.failure") >= 1
        assert aggregator.count("fleet.reprotect.enqueued") == result.enqueued

    def test_default_campaign_leaves_every_bus_disabled(self):
        campaign = FleetCampaign(config())
        campaign.run()
        orchestrator = campaign.orchestrator
        assert not orchestrator.fleet_sim.telemetry.enabled
        assert orchestrator.shards
        for shard in orchestrator.shards.values():
            assert not shard.sim.telemetry.enabled

    def test_availability_accounting(self):
        result = FleetCampaign(config()).run()
        assert result.observed_seconds > 0
        assert result.downtime_seconds >= 0
        if result.failovers:
            assert result.downtime_seconds > 0

    def test_summary_rows_render(self):
        result = FleetCampaign(config()).run()
        rows = result.summary_rows()
        assert any("availability" in row["metric"] for row in rows)

    def test_rack_outage_campaign_runs(self):
        result = FleetCampaign(
            config(kinds=(FaultKind.RACK_OUTAGE,))
        ).run()
        assert result.faults_injected == 1
        assert "rack-outage" in result.fault_descriptions[0]


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        cfg = config()
        first = FleetCampaign(cfg).run().fingerprint()
        second = FleetCampaign(cfg).run().fingerprint()
        assert first == second

    def test_different_seed_differs(self):
        base = FleetCampaign(config()).run().fingerprint()
        other = FleetCampaign(
            config(spec_kwargs=dict(seed=8))
        ).run().fingerprint()
        assert base != other

    def test_metrics_are_flat_and_numeric(self):
        metrics = FleetCampaign(config()).run().metrics()
        assert all(isinstance(v, float) for v in metrics.values())
        assert "nines" in metrics and "enqueued" in metrics
