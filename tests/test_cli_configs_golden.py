"""Golden configs: the ``repr`` of the config each ``repro`` command builds.

Each case runs one command in-process with the step that consumes its
config replaced by a capture, so no trial executes:

* ``chaos``     — ``ChaosCampaign.run`` (the ``CampaignConfig``);
* ``fleet``     — ``FleetCampaign.run`` (the ``FleetCampaignConfig``);
* ``serve``     — ``ServingStudy.run_strategy`` (the ``StudyConfig``);
* ``replicate`` — ``ProtectedDeployment.__init__`` (the
  ``DeploymentSpec``).

The cases cover every command at default flags, every chaos preset,
the precedence of explicit flags over a preset, and one argv per
command that sets every config-backed flag to a non-default value.
The captured ``repr`` must equal ``tests/golden_cli/configs.json``.

Regenerate the file (only when a change is *meant* to alter what a
command builds) with::

    PYTHONPATH=src python tests/test_cli_configs_golden.py
"""

import json
import os
import sys

import pytest

from repro.cli import main
from repro.cluster import ProtectedDeployment
from repro.faults import ChaosCampaign
from repro.fleet import FleetCampaign
from repro.serving import ServingStudy

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden_cli", "configs.json"
)

_SERVING = [
    "--serving-users", "1000", "--serving-rate-per-user", "0.03",
    "--serving-demand", "0.001", "--serving-slo", "0.3",
    "--serving-hedge", "0.1",
]
_INTEGRITY = [
    "--integrity", "--scrub-interval", "0.5", "--scrub-bandwidth-gib", "1.5",
    "--promote-suspect-replicas",
]

CASES = {
    "chaos-default": ["chaos"],
    "chaos-preset-default": ["chaos", "--preset", "default"],
    "chaos-preset-lossy": ["chaos", "--preset", "lossy"],
    "chaos-preset-recovery": ["chaos", "--preset", "recovery"],
    "chaos-preset-corruption": ["chaos", "--preset", "corruption"],
    # A raised --miss-threshold lifts the lossy preset's tolerance.
    "chaos-lossy-miss-threshold": [
        "chaos", "--preset", "lossy", "--miss-threshold", "20",
    ],
    # Explicit flags win over the preset's entry.
    "chaos-recovery-overridden": [
        "chaos", "--preset", "recovery", "--recovery-policy",
        "recover-in-place", "--kinds", "hypervisor-hang",
    ],
    "chaos-corruption-scrub": [
        "chaos", "--preset", "corruption", "--scrub-interval", "0.5",
    ],
    "chaos-every-flag": [
        "chaos", "--preset", "lossy", "--trials", "2", "--seed", "9",
        "--vms", "3", "--faults", "2", "--detector", "phi",
        "--kinds", "host-crash, link-partition", "--miss-threshold", "4",
        "--degraded-miss-threshold", "9", "--recovery-time", "33",
        "--recovery-policy", "hybrid", "--recovery-success-prob", "0.5",
        "--recovery-rebuild-min", "0.2", "--recovery-rebuild-max", "0.6",
        "--recovery-deadline", "3", *_SERVING, *_INTEGRITY,
    ],
    "fleet-default": ["fleet"],
    "fleet-every-flag": [
        "fleet", "--zones", "4", "--racks", "3", "--hosts-per-rack", "4",
        "--spares", "5", "--vms", "10", "--vm-memory-mib", "128.5",
        "--quantum", "0.25", "--seed", "3", "--faults", "2",
        "--kind", "rack-outage", "--settle-time", "4",
        "--fault-window", "6", "--recovery-time", "20",
        "--anti-affinity", "rack", "--max-vms-per-link", "2",
        "--recovery-policy", "hybrid", *_SERVING, *_INTEGRITY,
    ],
    "serve-default": ["serve"],
    "serve-every-flag": [
        "serve", "--strategy", "here", "--users", "1000",
        "--rate-per-user", "0.05", "--demand", "0.001", "--slo", "0.5",
        "--hedge", "0.2", "--duration", "10", "--crash-at", "4",
        "--seed", "2",
    ],
    "replicate-default": ["replicate"],
    "replicate-every-flag": [
        "replicate", "--engine", "remus", "--period", "2",
        "--comparison-interval", "0.05", "--degradation", "0.1",
        "--memory-gib", "2.5", "--load", "0.5", "--duration", "30",
        "--seed", "4",
    ],
    "replicate-colo": ["replicate", "--engine", "colo"],
    # A non-positive period means "no T_max" (infinity).
    "replicate-unbounded-period": [
        "replicate", "--period", "0", "--degradation", "0.1",
    ],
}


class _Captured(Exception):
    """Raised by a patched consumer once it holds the config."""

    def __init__(self, config):
        super().__init__(type(config).__name__)
        self.config = config


def _capture_self_config(self, *args, **kwargs):
    raise _Captured(self.config)


def _capture_spec(self, spec):
    raise _Captured(spec)


def patch_consumers(monkeypatch):
    monkeypatch.setattr(ChaosCampaign, "run", _capture_self_config)
    monkeypatch.setattr(FleetCampaign, "run", _capture_self_config)
    monkeypatch.setattr(ServingStudy, "run_strategy", _capture_self_config)
    monkeypatch.setattr(ProtectedDeployment, "__init__", _capture_spec)


@pytest.fixture
def capture(monkeypatch):
    patch_consumers(monkeypatch)


def captured_repr(argv):
    """``repr`` of the config ``repro <argv>`` hands to its consumer."""
    try:
        main(list(argv))
    except _Captured as captured:
        return repr(captured.config)
    raise AssertionError(f"{argv} never reached its config consumer")


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_matches_golden(capture, name):
    assert captured_repr(CASES[name]) == load_golden()[name]


if __name__ == "__main__":  # pragma: no cover
    patcher = pytest.MonkeyPatch()
    patch_consumers(patcher)
    try:
        golden = {name: captured_repr(argv) for name, argv in CASES.items()}
    finally:
        patcher.undo()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)", file=sys.stderr)
