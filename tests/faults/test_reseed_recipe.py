"""A re-seeded engine keeps the full protection level of the campaign.

Both campaigns re-protect a VM after failover by building a fresh HERE
engine on a spare.  It must come from the campaign's own engine
recipe: a re-seed that drops the hardened transport or the integrity
overlay would protect the VM after its first failover without
attestation, over the plain protocol.
"""

import pytest

from repro.faults import CampaignConfig, ChaosCampaign, ReprotectionController
from repro.faults.spec import FaultKind
from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
from repro.integrity import IntegrityConfig


def chaos_reseeds(monkeypatch):
    """Engines chaos re-protection seeded, on a transport+integrity trial."""
    reports = []
    finish = ReprotectionController._finish

    def recording(self, report):
        reports.append(report)
        return finish(self, report)

    monkeypatch.setattr(ReprotectionController, "_finish", recording)
    config = CampaignConfig(
        trials=1, seed=7, vms=2, settle_time=2.0, fault_window=2.0,
        recovery_time=20.0, kinds=(FaultKind.HOST_CRASH,),
        reliable_transport=True, integrity=IntegrityConfig(),
    )
    ChaosCampaign(config).run()
    return [report.engine for report in reports if not report.failed]


def fleet_reseeds(_monkeypatch):
    """Engines the fleet re-seeded after a zone outage, integrity on."""
    spec = FleetSpec(
        zones=3, racks_per_zone=1, hosts_per_rack=2, spares=3, vms=6,
        seed=5, integrity=IntegrityConfig(),
    )
    campaign = FleetCampaign(FleetCampaignConfig(
        spec=spec, settle_time=3.0, fault_window=3.0, recovery_time=20.0,
        faults=1, kinds=(FaultKind.ZONE_OUTAGE,),
    ))
    campaign.run()
    return [
        engine
        for shard in campaign.orchestrator.shards.values()
        for engine in shard.reseed_engines.values()
    ]


@pytest.mark.parametrize(
    "reseeds, wants_transport",
    [(chaos_reseeds, True), (fleet_reseeds, False)],
    ids=["chaos", "fleet"],
)
def test_reseeded_engines_keep_transport_and_integrity(
    monkeypatch, reseeds, wants_transport
):
    engines = reseeds(monkeypatch)
    assert engines, "the fault re-protected no VM"
    for engine in engines:
        assert engine.integrity_monitor is not None, engine.name
        # FleetSpec has no transport knob: fleet engines never run one.
        assert (engine.transport is not None) == wants_transport, engine.name
