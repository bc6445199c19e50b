"""Golden sweep specs: every ``repro sweep`` preset at default flags.

Each case runs ``repro sweep --preset <name>`` in-process with
:meth:`repro.experiments.SweepRunner.run` replaced by a capture, so no
trial executes.  The captured specs' ``(name, kind, fingerprint)``
triples must equal the committed ``tests/golden_cli/sweep-specs.json``;
a spec's fingerprint covers its kind, params and seed, so any drift in
a preset's defaults shows up here.

Regenerate the file (only when a change is *meant* to alter a preset)
with::

    PYTHONPATH=src python tests/test_sweep_presets_golden.py
"""

import json
import os
import sys
import tempfile

import pytest

from repro.cli import main
from repro.experiments import SweepRunner

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden_cli", "sweep-specs.json"
)

PRESETS = ("chaos", "lossy", "corruption", "fleet", "serving", "ycsb", "table6")


class _Captured(Exception):
    """Raised by the patched runner once it holds the specs."""

    def __init__(self, specs):
        super().__init__(len(specs))
        self.specs = list(specs)


def _capture(self, specs):
    raise _Captured(specs)


def captured_specs(argv, cache_dir):
    """The specs ``repro sweep <argv>`` hands to its runner."""
    original = SweepRunner.run
    SweepRunner.run = _capture
    try:
        main(["sweep", *argv, "--cache-dir", str(cache_dir)])
    except _Captured as captured:
        return captured.specs
    finally:
        SweepRunner.run = original
    raise AssertionError(f"sweep {argv} never reached SweepRunner.run")


def spec_triples(preset, cache_dir):
    return [
        [spec.name, spec.kind, spec.fingerprint()]
        for spec in captured_specs(["--preset", preset], cache_dir)
    ]


@pytest.mark.parametrize("preset", PRESETS)
def test_default_sweep_specs_match_golden(preset, tmp_path):
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert spec_triples(preset, tmp_path) == expected[preset]


if __name__ == "__main__":  # pragma: no cover
    with tempfile.TemporaryDirectory() as scratch:
        golden = {preset: spec_triples(preset, scratch) for preset in PRESETS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
