"""Silent corruption after a failover lands on the re-seeded replica.

Once a failover has promoted the replica and re-protection has seeded
a fresh backup, the VM's replica is the re-seeded engine's.  A
corruption fault must target that engine's integrity monitor (whose
scrubber audits the live replica) and the integrity tally must read
its ledger; before, both campaigns corrupted the pre-failover engine's
halted replica, and nothing ever detected it.
"""

from repro.faults import CampaignConfig, ChaosCampaign
from repro.faults.spec import FaultKind
from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
from repro.integrity import IntegrityConfig

KINDS = (FaultKind.HOST_CRASH, FaultKind.REPLICA_BITROT, FaultKind.TORN_APPLY)


def test_chaos_corruption_after_failover_is_detected():
    # Two of the four corruptions land after the host crash re-seeded
    # vm-0 onto a spare.
    result = ChaosCampaign(CampaignConfig(
        trials=1, seed=3, vms=1, settle_time=2.0, fault_window=30.0,
        recovery_time=20.0, faults_per_trial=6, kinds=KINDS,
        integrity=IntegrityConfig(), reliable_transport=True,
    )).run()
    assert result.total_reprotections == 1
    tally = result.integrity_tally()
    assert tally.corruptions_injected == 4
    assert tally.corruptions_detected == 4
    assert max(tally.latent_windows) < 1.0


def test_fleet_corruption_after_failover_is_detected():
    spec = FleetSpec(
        zones=3, racks_per_zone=1, hosts_per_rack=2, spares=3, vms=2,
        seed=5, integrity=IntegrityConfig(),
    )
    campaign = FleetCampaign(FleetCampaignConfig(
        spec=spec, settle_time=3.0, fault_window=30.0, recovery_time=20.0,
        faults=8, kinds=KINDS,
    ))
    result = campaign.run()
    assert result.reprotections == 1
    reseeded = [
        engine
        for shard in campaign.orchestrator.shards.values()
        for engine in shard.reseed_engines.values()
    ]
    assert any(engine.integrity_monitor.events for engine in reseeded)
    fingerprint = result.fingerprint()
    assert fingerprint["corruptions"] == 4
    assert fingerprint["corruptions_detected"] == 4
    assert fingerprint["max_latent_window"] < 1.0
