"""Golden pre-copy results: every ``PrecopyResult`` field, byte for byte.

Each case runs one seeded Xen pre-copy under the memory microbenchmark
(:func:`tests.migration.test_pml_rings.build`) and hashes (SHA-256 over
canonical JSON, floats by ``repr``) each :class:`IterationRecord`,
``remaining_dirty``, ``problematic_total`` and ``ring_overflows``.  The
cases cover per-vCPU ring seeding with roomy rings, rings small enough
to overflow (the shared-bitmap fallback), bitmap-only seeding, and a
guest whose kernel background writes land on vCPU 0 only, so vCPU 0's
ring and dirty row differ from the others'.

Regenerate the digests (only when a change is *meant* to alter what
pre-copy computes) with::

    PYTHONPATH=src python -m tests.migration.test_precopy_golden
"""

import dataclasses
import hashlib
import json

import pytest

from repro.migration import iterative_precopy
from repro.workloads import IdleWorkload
from tests.migration.test_pml_rings import build

CASES = {
    "rings-roomy": dict(pml_capacity=1_000_000, use_per_vcpu_rings=True),
    "rings-overflow": dict(pml_capacity=64, use_per_vcpu_rings=True),
    "bitmap-only": dict(pml_capacity=1_000_000, use_per_vcpu_rings=False),
    "rings-mixed-vcpus": dict(
        pml_capacity=1_000_000, use_per_vcpu_rings=True, idle=True
    ),
}

EXPECTED_SHA256 = {
    "bitmap-only": "dc6631dd69217abb953197eb86f9d5dd03c26f143e0e6ee45b2870b8318a05d4",
    "rings-mixed-vcpus": "69c8a553e9602e6ec25fe4b26a5ed9917b92a7d81b0d2449936e35ed04c93087",
    "rings-overflow": "45eb3cbda6ddf288fb0e3e2202c5d60f25ac3b0e0910d9bd3a82dd4cda69b713",
    "rings-roomy": "fef1d13b2d6a683b0ffd291511c1bae02b8e9657e6318cbfef154bffe1b5c438",
}


def _canonical(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def run_case(name):
    params = CASES[name]
    sim, testbed, xen, vm = build(pml_capacity=params["pml_capacity"])
    if params.get("idle"):
        IdleWorkload(sim, vm).start()
    process = sim.process(
        iterative_precopy(
            sim, xen, vm, testbed.interconnect.forward,
            xen.host.cost_model, threads=4,
            use_per_vcpu_rings=params["use_per_vcpu_rings"],
        )
    )
    return sim.run_until_triggered(process, limit=1e6)


def precopy_digest(name):
    result = run_case(name)
    payload = _canonical({
        "iterations": [dataclasses.asdict(r) for r in result.iterations],
        "remaining_dirty": result.remaining_dirty,
        "problematic_total": result.problematic_total,
        "ring_overflows": result.ring_overflows,
    })
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_precopy_result_matches_golden(name):
    assert precopy_digest(name) == EXPECTED_SHA256[name]


if __name__ == "__main__":  # pragma: no cover
    for case in sorted(CASES):
        print(f'    "{case}": "{precopy_digest(case)}",')
