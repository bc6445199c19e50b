"""The serving overlay at fleet scale: per-shard merge, opt-in only."""

import pytest

from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
from repro.hardware.units import MIB
from repro.serving import ServingConfig


def config(**kwargs):
    spec_kwargs = dict(
        zones=3,
        racks_per_zone=1,
        hosts_per_rack=2,
        spares=3,
        vms=6,
        vm_memory_bytes=128 * MIB,
        quantum=0.5,
        seed=11,
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


def serving_config(**kwargs):
    serving = dict(
        users=6_000, rate_per_user=0.02, demand=0.001, slo=0.1, hedge=0.5
    )
    serving.update(kwargs)
    return config(serving=ServingConfig(**serving))


class TestConfigValidation:
    def test_bad_serving_knobs_rejected(self):
        for kwargs in (
            dict(users=-1),
            dict(rate_per_user=0.0),
            dict(demand=-1.0),
            dict(slo=0.0),
            dict(hedge=2.0),
        ):
            with pytest.raises(ValueError):
                serving_config(**kwargs)


class TestFleetServingOverlay:
    def test_opt_in_leaves_the_fleet_fingerprint_untouched(self):
        baseline = FleetCampaign(config()).run()
        served = FleetCampaign(serving_config()).run()
        assert baseline.serving is None
        assert not any(
            key.startswith("serving") for key in baseline.fingerprint()
        )
        core = {
            key: value
            for key, value in served.fingerprint().items()
            if not key.startswith("serving")
        }
        assert core == baseline.fingerprint()

    def test_overlay_spans_every_shard(self):
        result = FleetCampaign(serving_config()).run()
        report = result.serving
        assert report is not None
        assert report.requests > 1_000
        assert report.served + report.lost == report.requests
        # This seed's outage kills hosts: somebody was dark.
        assert report.violations > 0
        metrics = result.metrics()
        assert metrics["serving_requests"] == float(report.requests)
        assert any(
            row["metric"].startswith("serving")
            for row in result.summary_rows()
        )

    def test_same_seed_identical_fingerprint(self):
        first = FleetCampaign(serving_config()).run()
        second = FleetCampaign(serving_config()).run()
        assert first.fingerprint() == second.fingerprint()
