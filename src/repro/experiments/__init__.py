"""``repro.experiments`` — the declarative experiment platform.

Turns the repo's ad-hoc benchmark scripts into sweeps:

* :class:`ExperimentSpec` / :class:`ParameterGrid` — declarative trial
  descriptions that expand into matrices and serialize to canonical
  JSON fingerprints;
* :class:`SweepRunner` — cached, parallel, crash-isolated execution
  with per-trial timeouts/retries and a serial==parallel fingerprint
  contract;
* :class:`ResultStore` / :class:`SweepLog` — the content-addressed
  on-disk result cache and the JSONL perf-trajectory log;
* :class:`RegressionGate` — per-metric delta gating against a stored
  baseline;
* :mod:`~repro.experiments.presets` — the Table-6 setups, the
  registered trial kinds and the ``SWEEP_PRESETS`` table behind
  ``repro sweep``.
"""

from .gate import GateReport, MetricDelta, RegressionGate, Tolerance, load_baseline
from .registry import register_trial, resolve_trial
from .runner import SweepResult, SweepRunner, TrialOutcome
from .spec import (
    ExperimentSpec,
    ParameterGrid,
    canonical_json,
    fingerprint_of,
)
from .store import DEFAULT_CACHE_DIR, ResultStore, SweepLog

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ExperimentSpec",
    "GateReport",
    "MetricDelta",
    "ParameterGrid",
    "RegressionGate",
    "ResultStore",
    "SweepLog",
    "SweepResult",
    "SweepRunner",
    "Tolerance",
    "TrialOutcome",
    "canonical_json",
    "fingerprint_of",
    "load_baseline",
    "register_trial",
    "resolve_trial",
]
