"""Subscribing to a campaign's buses never perturbs the run.

Campaigns enable a bus only for the consumers whose output they read,
so a caller's extra subscriber (an aggregator, a trace writer) turns
publishing on where it was off.  Publishing must stay passive: the
same config yields the same outcome with or without a subscriber.
"""

import pytest

from repro.faults import CampaignConfig, ChaosCampaign, FaultKind
from repro.faults.campaign import CHAOS_PRESETS
from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
from repro.hardware.units import MIB
from repro.integrity import IntegrityConfig
from repro.serving import ServingConfig
from repro.telemetry import MetricsAggregator


def fleet(integrity=False, **kwargs):
    spec = FleetSpec(
        zones=3, racks_per_zone=1, hosts_per_rack=2, spares=3, vms=6,
        vm_memory_bytes=128 * MIB, seed=5,
        integrity=IntegrityConfig() if integrity else None,
    )
    return FleetCampaign, FleetCampaignConfig(
        spec=spec, settle_time=3.0, fault_window=3.0, recovery_time=10.0,
        **kwargs,
    )


def chaos(preset=None):
    overrides = CHAOS_PRESETS[preset] if preset else {}
    return ChaosCampaign, CampaignConfig(
        **{**overrides, "trials": 1, "seed": 3, "recovery_time": 15.0}
    )


CAMPAIGNS = {
    "fleet-default": lambda: fleet(),
    "fleet-serving": lambda: fleet(serving=ServingConfig(users=1_000)),
    "fleet-integrity": lambda: fleet(
        integrity=True,
        faults=3,
        kinds=(
            FaultKind.TRANSLATOR_DRIFT,
            FaultKind.REPLICA_BITROT,
            FaultKind.TORN_APPLY,
        ),
    ),
    "chaos-default": lambda: chaos(),
    "chaos-lossy": lambda: chaos("lossy"),
    "chaos-corruption": lambda: chaos("corruption"),
}


def outcome(result):
    """Everything a run reports that must not depend on subscribers."""
    trials = getattr(result, "trials", None)
    if trials is None:
        return result.fingerprint(), result.metrics()
    return result.fingerprint(), [trial.to_dict() for trial in trials]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_an_extra_subscriber_leaves_the_run_unchanged(name):
    campaign_class, config = CAMPAIGNS[name]()
    aggregator = MetricsAggregator()
    bare = campaign_class(config).run()
    watched = campaign_class(config, subscribers=[aggregator]).run()
    assert aggregator.names()  # the subscriber really saw the run
    assert outcome(watched) == outcome(bare)
