"""The benchmark's four campaign workloads.

Each workload is one of the committed smoke-benchmark configurations,
re-seeded: the benchmark hands the campaign a seed and nothing else.
All four are closed-loop: one caller runs one campaign at a time and
each campaign builds a fresh ``Simulation``, so every cache starts
empty, as it does for a user.

Imports of ``repro`` and of the config builders in ``benchmarks/``
happen inside :meth:`Workload.campaign`, so a fresh interpreter that
calls it pays exactly the set-up a user pays (``setup_s``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

#: The checkout the benchmark runs in (the parent of ``bench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The seed ``bench/expected/`` digests were recorded at.
REFERENCE_SEED = 2023

#: Layers an opt-in feature owns; a workload that leaves the feature
#: off must make zero calls into them.
INTEGRITY = ("integrity", "replication.pipeline.attest")
SERVING = ("serving",)
FLEET = ("fleet", "simkernel.sharded")


def use_checkout() -> None:
    """Resolve ``repro`` and the config builders to this checkout.

    Nothing is imported (set-up time is measured after this).  Raises
    ``SystemExit`` when the checkout has no ``src/repro`` or
    ``benchmarks/``, or when ``repro`` would resolve somewhere else.
    """
    src = os.path.join(ROOT, "src")
    builders = os.path.join(ROOT, "benchmarks")
    for path in (os.path.join(src, "repro"), builders):
        if not os.path.isdir(path):
            raise SystemExit(f"bench: missing {path}; run from a full checkout")
    sys.path[:0] = [src, builders]
    spec = importlib.util.find_spec("repro")
    if spec is None or not os.path.abspath(spec.origin).startswith(src + os.sep):
        raise SystemExit(f"bench: repro resolves to {spec and spec.origin}, not {src}")


def _chaos(module: str, builder: str) -> Callable[[int], object]:
    def campaign(seed: int):
        from repro.faults.campaign import ChaosCampaign

        config = getattr(importlib.import_module(module), builder)()
        return ChaosCampaign(dataclasses.replace(config, seed=seed))

    return campaign


def _fleet(seed: int):
    from repro.fleet import FleetCampaign
    from test_fleet_smoke import fleet_config

    config = fleet_config()
    spec = dataclasses.replace(config.spec, seed=seed)
    return FleetCampaign(dataclasses.replace(config, spec=spec))


def _serving(seed: int):
    from repro.serving import ServingStudy
    from test_serving_smoke import study_config

    return ServingStudy(dataclasses.replace(study_config(), seed=seed))


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``seed -> campaign object`` with a ``run()`` method.
    campaign: Callable[[int], object]
    #: Host seconds one untraced rep takes on a 2-core x86-64
    #: container, reference kernel and digest included; sizes the run.
    rep_s: float
    #: Layer prefixes that must record zero calls (opt-in features off).
    off_layers: Tuple[str, ...]

    def is_off(self, layer: str) -> bool:
        """True when ``layer`` belongs to a feature this workload leaves off."""
        return any(
            layer == prefix or layer.startswith(prefix + ".")
            for prefix in self.off_layers
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "chaos-membench",
            _chaos("test_perf_smoke", "perf_config"),
            rep_s=0.21,
            off_layers=INTEGRITY + SERVING + FLEET,
        ),
        Workload(
            "fleet-zone-outage",
            _fleet,
            rep_s=1.36,
            off_layers=INTEGRITY + SERVING,
        ),
        Workload(
            "serving-study",
            _serving,
            rep_s=1.42,
            off_layers=INTEGRITY + FLEET,
        ),
        Workload(
            "integrity-scrub",
            _chaos("test_integrity_smoke", "corruption_config"),
            rep_s=0.36,
            off_layers=SERVING + FLEET,
        ),
    )
}


def fingerprint(result) -> dict:
    """The campaign fingerprint (a study returns ``{strategy: outcome}``)."""
    if isinstance(result, dict):
        from repro.serving import study_fingerprint

        return study_fingerprint(result)
    return result.fingerprint()


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    return value


def sim_digest(fingerprint: dict) -> str:
    """SHA-256 of the canonical JSON fingerprint, NaN/inf as strings."""
    canonical = json.dumps(
        _finite(fingerprint), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sub_seeds(seed: int, count: int) -> Tuple[int, ...]:
    """``count`` campaign seeds derived from ``seed``; the first is ``seed``.

    A run spreads its reps over several seeds so that one seed's
    unusually cheap or costly fault schedule does not set the result.
    """
    derived = [seed]
    for index in range(1, count):
        digest = hashlib.sha256(f"{seed}:{index}".encode("ascii")).digest()
        derived.append(int.from_bytes(digest[:4], "big") & 0x7FFFFFFF)
    return tuple(derived)


def expected_path(workload: str, seed: int = REFERENCE_SEED) -> str:
    return os.path.join(
        ROOT, "bench", "expected", f"{workload}-seed{seed}.json"
    )
