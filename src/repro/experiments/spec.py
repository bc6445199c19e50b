"""Declarative experiment descriptions and content fingerprints.

An :class:`ExperimentSpec` describes one trial — which registered
runner executes it (``kind``), with which JSON-serializable parameters,
under which seed, and with what timeout/retry budget.  A
:class:`ParameterGrid` expands a base spec into a trial matrix, one
spec per point of the cartesian product, each with a deterministic
per-trial seed derived from the base seed and the point.

The **fingerprint** is the identity the whole subsystem hangs off: the
SHA-256 of the spec's canonical JSON (sorted keys, compact separators,
non-finite floats normalised).  Two specs with the same kind, params
and seed share a fingerprint — and therefore a cache slot in the
:class:`~repro.experiments.store.ResultStore` — regardless of their
display names.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..simkernel.random import derive_seed


def _sanitize(value: Any) -> Any:
    """Normalise a value for canonical JSON.

    JSON has no Infinity/NaN; canonical form spells them as strings so
    fingerprints stay stable across serializers.  Tuples become lists,
    mappings are passed through (``canonical_json`` sorts the keys).
    """
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, dict):
        return {str(key): _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no non-finite."""
    return json.dumps(
        _sanitize(payload), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )


def fingerprint_of(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one trial."""

    #: Display name (figures, logs).  NOT part of the fingerprint.
    name: str
    #: Registered trial-runner kind (see :mod:`repro.experiments.registry`).
    kind: str
    #: JSON-serializable parameters handed to the runner.
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    #: Wall-clock budget for one attempt; None means unbounded.
    timeout: Optional[float] = None
    #: Extra attempts after a crash/timeout before the trial is failed.
    retries: int = 0

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0: {self.retries}")
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ValueError(
                f"timeout must be positive and finite: {self.timeout}"
            )

    def canonical(self) -> Dict[str, Any]:
        """The fingerprinted identity: kind + params + seed only."""
        return {
            "kind": self.kind,
            "params": _sanitize(dict(self.params)),
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        return fingerprint_of(self.canonical())


@dataclass(frozen=True)
class ParameterGrid:
    """A cartesian sweep over named parameter axes.

    Axes expand in insertion order, the last axis varying fastest —
    the order is part of the sweep's identity only through each
    trial's params, so reordering axes never changes fingerprints.
    """

    axes: Mapping[str, Sequence[Any]]

    def __post_init__(self):
        for axis, values in self.axes.items():
            if len(values) == 0:
                raise ValueError(f"grid axis {axis!r} is empty")

    def __len__(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def points(self) -> List[Dict[str, Any]]:
        """Every point of the product, as a params dict per point."""
        names = list(self.axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*self.axes.values())
        ]

    def expand(self, base: ExperimentSpec) -> List[ExperimentSpec]:
        """One spec per grid point, layered over ``base``.

        Each trial's seed is derived from the base seed and the
        point's canonical JSON, so adding an axis never perturbs the
        seeds of existing points with identical params.
        """
        specs = []
        for point in self.points():
            label = ",".join(f"{key}={point[key]}" for key in point)
            merged = dict(base.params)
            merged.update(point)
            specs.append(replace(
                base,
                name=f"{base.name}/{label}" if label else base.name,
                params=merged,
                seed=derive_seed(base.seed, canonical_json(point)),
            ))
        return specs
