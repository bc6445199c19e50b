"""Golden guest-state payloads: what each hypervisor format writes.

The digest golden in ``tests/integrity/test_digest.py`` pins only the
parsed leaves, so a change to the framing of a payload (key names, the
device records a translation writes, feature ordering) would slip past
it.  This test pins the SHA-256 of the canonical JSON (``sort_keys``)
of, for a fixed-seed Xen guest and a fixed-seed KVM guest:

* the native ``extract_guest_state`` payload;
* its translation to the other format;
* the Xen -> KVM -> Xen round trip;
* the uncached ``parse`` of each native payload;
* the ``canonical_items()`` of the vCPUs a replica loads from each
  translation.

Regenerate ``golden_payloads.json`` (only when a change is *meant* to
alter a payload) with::

    PYTHONPATH=src python tests/hypervisor/test_payload_golden.py
"""

import hashlib
import json
import os
import sys

import pytest

from repro.hardware import GIB, build_testbed
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.replication import StateTranslator
from repro.simkernel import Simulation

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_payloads.json")

CASES = (
    "xen-extract", "kvm-extract", "xen-to-kvm", "kvm-to-xen", "xen-kvm-xen",
    "xen-parse", "kvm-parse", "kvm-replica-vcpus", "xen-replica-vcpus",
)


def _jsonable(value):
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _vcpu_items(vcpus):
    return [list(state.canonical_items()) for state in vcpus]


def payload_digests():
    """Name -> SHA-256 of every pinned payload and loaded state."""
    sim = Simulation(seed=0)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    kvm = KvmHypervisor(sim, testbed.secondary)
    translator = StateTranslator()
    xen_vm = xen.create_vm("gx", vcpus=4, memory_bytes=GIB, seed=11)
    kvm_vm = kvm.create_vm("gk", vcpus=2, memory_bytes=2 * GIB, seed=12)
    StateTranslator.prepare_guest(xen_vm, xen, kvm)
    StateTranslator.prepare_guest(kvm_vm, xen, kvm)

    xen_payload = xen.extract_guest_state(xen_vm)
    kvm_payload = kvm.extract_guest_state(kvm_vm)
    xen_to_kvm = translator.translate(xen_payload, kvm)
    kvm_to_xen = translator.translate(kvm_payload, xen)
    round_trip = translator.translate(xen_to_kvm, xen)

    kvm_replica = kvm.create_vm("gx", vcpus=4, memory_bytes=GIB)
    kvm.load_guest_state(kvm_replica, xen_to_kvm)
    xen_replica = xen.create_vm("gk", vcpus=2, memory_bytes=2 * GIB)
    xen.load_guest_state(xen_replica, kvm_to_xen)

    def parsed(payload):
        state = translator.parse(payload, use_cache=False)
        return [
            _vcpu_items(state.vcpus),
            state.devices,
            sorted(state.features),
            state.memory_pages,
        ]

    return {
        "xen-extract": _sha256(xen_payload),
        "kvm-extract": _sha256(kvm_payload),
        "xen-to-kvm": _sha256(xen_to_kvm),
        "kvm-to-xen": _sha256(kvm_to_xen),
        "xen-kvm-xen": _sha256(round_trip),
        "xen-parse": _sha256(parsed(xen_payload)),
        "kvm-parse": _sha256(parsed(kvm_payload)),
        "kvm-replica-vcpus": _sha256(
            [_vcpu_items(kvm_replica.vcpu_states),
             sorted(kvm_replica.enabled_features)]
        ),
        "xen-replica-vcpus": _sha256(
            [_vcpu_items(xen_replica.vcpu_states),
             sorted(xen_replica.enabled_features)]
        ),
    }


@pytest.fixture(scope="module")
def digests():
    return payload_digests()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", CASES)
def test_payload_matches_golden(name, digests, golden):
    assert digests[name] == golden[name]


def test_golden_covers_every_case(digests, golden):
    assert sorted(digests) == sorted(golden) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
