"""Golden fault records: what the injectors applied, byte for byte.

Each case runs one fixed-seed campaign and hashes (SHA-256 over
canonical JSON) the ``(kind, target, fired_at, reverted_at, detail)``
of every :class:`~repro.faults.spec.InjectedFault` its injectors
recorded, together with the campaign fingerprint.  The cases cover
the fleet injector's already-dead hypervisor branch, its corruption
dispatch with translator-drift reverts, and a chaos campaign mixing
host, hypervisor (starve included), link, guest and corruption kinds.

Regenerate the digests (only when a change is *meant* to alter what
a campaign injects) with::

    PYTHONPATH=src python tests/faults/test_fault_records_golden.py
"""

import contextlib
import hashlib
import json

import pytest

from repro.faults import FaultKind
from repro.faults import campaign as chaos_campaign
from repro.faults.campaign import CampaignConfig, ChaosCampaign
from repro.fleet import FleetCampaign
from repro.fleet.campaign import FleetCampaignConfig
from repro.fleet.spec import FleetSpec
from repro.integrity.config import IntegrityConfig

K = FaultKind

#: Every chaos kind with a target in a one-VM trial, starve included.
_CHAOS_KINDS = (
    K.HOST_TRANSIENT, K.HYPERVISOR_CRASH, K.HYPERVISOR_HANG,
    K.HYPERVISOR_STARVE, K.GUEST_CRASH, K.LINK_DEGRADE, K.LINK_PARTITION,
    K.LINK_LOSS, K.LATENCY_JITTER, K.TRANSLATOR_DRIFT, K.REPLICA_BITROT,
)


def _fleet(seed, kinds, faults, integrity=False):
    spec = FleetSpec(
        zones=2, vms=4, seed=seed,
        integrity=IntegrityConfig() if integrity else None,
    )
    campaign = FleetCampaign(
        FleetCampaignConfig(spec=spec, kinds=kinds, faults=faults)
    )
    result = campaign.run()
    return [campaign.injector.injected], result.fingerprint()


@contextlib.contextmanager
def _capturing_chaos_injectors():
    """Patch the chaos campaign's injector class to keep every instance."""
    captured = []
    base = chaos_campaign.FaultInjector

    class Capturing(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            captured.append(self)

    chaos_campaign.FaultInjector = Capturing
    try:
        yield captured
    finally:
        chaos_campaign.FaultInjector = base


def _chaos(seed):
    config = CampaignConfig(
        trials=2, seed=seed, vms=1, recovery_time=20, kinds=_CHAOS_KINDS,
        faults_per_trial=6, integrity=IntegrityConfig(),
        reliable_transport=True,
    )
    with _capturing_chaos_injectors() as injectors:
        result = ChaosCampaign(config).run()
    return [injector.injected for injector in injectors], result.fingerprint()


CASES = {
    # The fourth fault crashes an already-crashed hypervisor: "1
    # host(s), 0 shard materialization(s) down".
    "fleet-mixed-seed1": lambda: _fleet(
        1, (K.HOST_CRASH, K.HOST_TRANSIENT, K.HYPERVISOR_CRASH,
            K.HYPERVISOR_HANG), 4,
    ),
    "fleet-integrity-seed5": lambda: _fleet(
        5, (K.TRANSLATOR_DRIFT, K.REPLICA_BITROT, K.TORN_APPLY), 3,
        integrity=True,
    ),
    "chaos-mixed-seed4": lambda: _chaos(4),
}

EXPECTED_SHA256 = {
    "chaos-mixed-seed4": "4240625f6afa8ad1414d86cdf25db8741d5b347af7f8249c195ef6d8f6edf75f",
    "fleet-integrity-seed5": "e3d604e090af173ca338b6a501a10f34f557e02f8d4690c73856f6c46c80f770",
    "fleet-mixed-seed1": "3e9d25e2be14ccd4345fca4ce9aab0e9174e6d5c79a5bc2057d06af04061c260",
}


def records_digest(name):
    injected, fingerprint = CASES[name]()
    payload = {
        "records": [
            [
                [r.spec.kind.value, r.spec.target, r.fired_at,
                 r.reverted_at, r.detail]
                for r in records
            ]
            for records in injected
        ],
        "fingerprint": fingerprint,
    }
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_fault_records_match_golden(name):
    assert records_digest(name) == EXPECTED_SHA256[name]


if __name__ == "__main__":  # pragma: no cover
    for case in sorted(CASES):
        print(f'    "{case}": "{records_digest(case)}",')
