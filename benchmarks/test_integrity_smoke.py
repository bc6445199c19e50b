"""Integrity-campaign smoke: silent corruption -> scrub -> repair.

A deterministic corruption campaign through the chaos harness: seeded
translator-drift / replica-bitrot / torn-apply faults against engines
running the full integrity overlay (epoch attestation, background
scrubbing, repair escalation).  Two contracts are pinned:

* **Acceptance** — the scrubber detects >= 95% of injected corruption
  before any failover promotes it, and the repair ladder restores
  protection without tripping the terminal alarm.
* **Regression gate** — the campaign's integrity metrics must match the
  committed ``BENCH_integrity.json``.  The detection rate is gated
  one-sidedly (``at-least``): improving detection never fails CI, while
  any drop below the committed floor does.  Everything else is a
  deterministic simulation statistic gated bidirectionally.  Refresh
  with ``REPRO_BENCH_WRITE=1`` after an acknowledged behaviour change.
"""

import json
import os

from repro.analysis import latent_corruption_window, render_table
from repro.experiments import RegressionGate, Tolerance, load_baseline
from repro.faults import CampaignConfig, ChaosCampaign, FaultKind
from repro.integrity import IntegrityConfig

from harness import BENCH_SEED, print_header

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_integrity.json"
)


def corruption_config():
    return CampaignConfig(
        trials=2,
        seed=BENCH_SEED,
        vms=2,
        faults_per_trial=2,
        settle_time=3.0,
        fault_window=3.0,
        recovery_time=20.0,
        kinds=(
            FaultKind.TRANSLATOR_DRIFT,
            FaultKind.REPLICA_BITROT,
            FaultKind.TORN_APPLY,
        ),
        integrity=IntegrityConfig(),
    )


def run_campaign():
    return ChaosCampaign(corruption_config()).run()


def integrity_metrics(result):
    """The flat metric block gated against the committed baseline."""
    tally = result.integrity_tally()
    return {
        "corruptions": float(tally.corruptions_injected),
        "corruptions_detected": float(tally.corruptions_detected),
        "corruptions_repaired": float(tally.corruptions_repaired),
        "detection_rate": tally.detection_rate,
        "mean_latent_window": tally.mean_latent_window,
        "max_latent_window": tally.max_latent_window,
        "integrity_alarms": float(tally.integrity_alarms),
        "failover_refusals": float(tally.failover_refusals),
        "repair_page_refetches": float(tally.repair_page_refetches),
        "repair_resyncs": float(tally.repair_resyncs),
        "repair_reseeds": float(tally.repair_reseeds),
    }


def test_integrity_campaign_smoke(capsys):
    result = run_campaign()

    with capsys.disabled():
        print_header("Integrity smoke: silent corruption -> scrub -> repair")
        print(render_table(result.summary_rows()))
        report = latent_corruption_window(result)
        print(render_table(report.rows()))

    # The acceptance bar: essentially every seeded corruption caught
    # by the scrubber before a failover could promote it.
    tally = result.integrity_tally()
    assert tally.corruptions_injected >= 4
    assert tally.detection_rate >= 0.95
    # Protection restored through the ladder, not the alarm.
    assert tally.corruptions_repaired > 0
    assert tally.integrity_alarms == 0
    # The latent window is measured and bounded by the scrub cadence
    # (plus the repair work ahead of each detection in the queue).
    window = latent_corruption_window(result)
    assert window.count == tally.corruptions_injected
    assert 0.0 < window.mean_seconds < 5.0

    # The determinism contract.
    assert run_campaign().fingerprint() == result.fingerprint()


def test_integrity_metrics_match_committed_baseline(capsys):
    result = run_campaign()
    current = integrity_metrics(result)

    if os.environ.get("REPRO_BENCH_WRITE"):
        payload = {
            "benchmark": "integrity-smoke",
            "seed": BENCH_SEED,
            "fingerprint_keys": sorted(result.fingerprint()),
            "metrics": current,
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")

    # The committed payload pins the fingerprint's shape too.
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    assert sorted(result.fingerprint()) == committed["fingerprint_keys"]

    baseline = load_baseline(BASELINE_PATH)
    gate = RegressionGate(
        # Deterministic simulation: any drift beyond round-off is a
        # behaviour change somebody must acknowledge...
        tolerance=Tolerance(relative=1e-9, absolute=1e-6),
        per_metric={
            # ...except the detection rate, which is a floor: better
            # detection passes, any regression below the committed
            # rate fails.
            "detection_rate": Tolerance(
                relative=0.0, absolute=1e-9, direction="at-least"
            ),
        },
    )
    report = gate.compare(baseline, current)

    with capsys.disabled():
        print_header("Integrity smoke: regression gate vs BENCH_integrity.json")
        print(render_table(report.summary_rows()))

    assert report.passed, [d.metric for d in report.regressions]
