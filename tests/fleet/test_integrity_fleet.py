"""Checkpoint integrity at fleet scale: corruption -> scrub -> repair."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro

from repro.faults import CampaignConfig, ChaosCampaign
from repro.faults.spec import FaultKind
from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
from repro.integrity import IntegrityConfig
from repro.serving import ServingConfig

CORRUPTION = (
    FaultKind.TRANSLATOR_DRIFT,
    FaultKind.REPLICA_BITROT,
    FaultKind.TORN_APPLY,
)


def fleet_config(integrity=True, **kwargs):
    spec = FleetSpec(
        zones=3, racks_per_zone=1, hosts_per_rack=2, spares=3, vms=6,
        seed=5, integrity=IntegrityConfig() if integrity else None,
    )
    defaults = dict(
        spec=spec, settle_time=3.0, fault_window=3.0, recovery_time=10.0,
        faults=3, kinds=CORRUPTION if integrity else (FaultKind.ZONE_OUTAGE,),
    )
    defaults.update(kwargs)
    return FleetCampaignConfig(**defaults)


@pytest.fixture(scope="module")
def result():
    return FleetCampaign(fleet_config()).run()


def _block(on: dict, off: dict) -> set:
    """The fingerprint keys an opt-in feature adds."""
    return set(on) - set(off)


class TestFleetIntegrity:
    def test_every_corruption_detected_and_repaired(self, result):
        assert result.faults_injected == 3
        assert result.integrity.detection_rate == 1.0
        fingerprint = result.fingerprint()
        assert (
            fingerprint["corruptions"],
            fingerprint["corruptions_detected"],
            fingerprint["corruptions_repaired"],
        ) == (5, 5, 5)
        assert fingerprint["integrity_alarms"] == 0
        assert fingerprint["failover_refusals"] == 0
        assert fingerprint["mean_latent_window"] == 0.080682517
        assert result.integrity.scrub_audits == 376
        assert result.failovers == 0 and result.dropped_vms == 0

    def test_same_seed_identical_fingerprint(self, result):
        assert FleetCampaign(fleet_config()).run().fingerprint() == (
            result.fingerprint()
        )

    def test_corruption_kinds_require_the_overlay(self):
        with pytest.raises(ValueError, match="integrity"):
            fleet_config(integrity=False, kinds=CORRUPTION)

    def test_corrupting_a_replica_on_a_down_host_is_a_no_op(self):
        # Seed 3 crashes vm-0001's replica host before four corruptions
        # of that VM; each used to load state into the dead host and
        # abort the campaign with an unhandled HostFailure.
        campaign = FleetCampaign(fleet_config(
            spec=FleetSpec(
                zones=3, racks_per_zone=1, hosts_per_rack=2, spares=3,
                vms=2, seed=3, integrity=IntegrityConfig(),
            ),
            fault_window=30.0, recovery_time=20.0, faults=8,
            kinds=(FaultKind.HOST_CRASH, FaultKind.REPLICA_BITROT,
                   FaultKind.TORN_APPLY),
        ))
        result = campaign.run()
        skipped = [
            fault for fault in campaign.injector.injected
            if "is down, nothing corrupted" in fault.detail
        ]
        assert len(skipped) == 4
        assert all(fault.spec.target == "vm-0001" for fault in skipped)
        assert result.fingerprint()["corruptions"] == 0

    def test_campaign_exits_without_cleanup_errors(self):
        # The same campaign run at module level leaves engine generators
        # suspended; their cleanup at interpreter exit interrupts the
        # scrubbers, which used to import PRIORITY_URGENT on every call
        # and printed "Exception ignored ... sys.meta_path is None".
        script = textwrap.dedent("""
            from repro.faults.spec import FaultKind
            from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
            from repro.integrity import IntegrityConfig

            campaign = FleetCampaign(FleetCampaignConfig(
                spec=FleetSpec(
                    zones=3, racks_per_zone=1, hosts_per_rack=2, spares=3,
                    vms=2, seed=3, integrity=IntegrityConfig(),
                ),
                settle_time=3.0, fault_window=30.0, recovery_time=20.0,
                faults=8,
                kinds=(FaultKind.HOST_CRASH, FaultKind.REPLICA_BITROT,
                       FaultKind.TORN_APPLY),
            ))
            campaign.run()
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stderr == ""


class TestFingerprintKeysMatchChaos:
    def test_integrity_block_keys(self, result):
        off = FleetCampaign(fleet_config(integrity=False)).run()
        chaos = dict(trials=1, vms=2, settle_time=2.0, fault_window=2.0,
                     recovery_time=5.0, kinds=CORRUPTION)
        chaos_on = ChaosCampaign(
            CampaignConfig(integrity=IntegrityConfig(), **chaos)
        ).run()
        chaos_off = ChaosCampaign(CampaignConfig(
            trials=1, vms=2, settle_time=2.0, fault_window=2.0,
            recovery_time=5.0,
        )).run()
        fleet_keys = _block(result.fingerprint(), off.fingerprint())
        chaos_keys = _block(chaos_on.fingerprint(), chaos_off.fingerprint())
        assert fleet_keys and fleet_keys == chaos_keys

    def test_serving_block_keys(self):
        fleet_on = FleetCampaign(
            fleet_config(integrity=False, serving=ServingConfig(users=600))
        ).run()
        fleet_off = FleetCampaign(fleet_config(integrity=False)).run()
        small = dict(trials=1, vms=2, settle_time=2.0, fault_window=2.0,
                     recovery_time=5.0)
        chaos_on = ChaosCampaign(
            CampaignConfig(serving=ServingConfig(users=600), **small)
        ).run()
        chaos_off = ChaosCampaign(CampaignConfig(**small)).run()
        fleet_keys = _block(fleet_on.fingerprint(), fleet_off.fingerprint())
        chaos_keys = _block(chaos_on.fingerprint(), chaos_off.fingerprint())
        assert fleet_keys and fleet_keys == chaos_keys
