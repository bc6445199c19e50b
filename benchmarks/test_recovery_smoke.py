"""Recovery-policy smoke: failover vs recover-in-place vs hybrid.

Three same-seed chaos campaigns over the microreboot-recoverable fault
class (hypervisor crash/hang), one per
:class:`~repro.recovery.RecoveryPolicy`.  Because the fault schedules
are seed-identical, the columns differ only by policy, pinning the
paper-level claims of the recovery study:

* **Dominance** — hybrid strictly beats pure failover on the mean
  unprotected window: a successful microreboot never tears down the
  replica, so redundancy is restored incrementally instead of via a
  full re-seed.
* **No dropped VMs under hybrid** — the failover fallback caps the
  downside that pure recover-in-place pays in full.
* **Regression gate** — flat metrics must match the committed
  ``BENCH_recovery.json`` baseline.  Deterministic statistics gate
  exactly; the hybrid recovery-success rate and availability nines
  gate as *at-least* floors (doing better than the baseline is not a
  regression).  Refresh with ``REPRO_BENCH_WRITE=1`` after an
  acknowledged behaviour change.
"""

import json
import os

from repro.analysis import policy_comparison_rows, render_table
from repro.experiments import RegressionGate, Tolerance, load_baseline
from repro.faults import CampaignConfig, ChaosCampaign, FaultKind

from harness import BENCH_SEED, print_header

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_recovery.json"
)

POLICIES = ("failover", "recover-in-place", "hybrid")


def run_campaign(policy):
    config = CampaignConfig(
        trials=3,
        seed=BENCH_SEED,
        vms=2,
        kvm_hosts=2,
        settle_time=3.0,
        fault_window=3.0,
        recovery_time=30.0,
        kinds=(FaultKind.HYPERVISOR_CRASH, FaultKind.HYPERVISOR_HANG),
        recovery_policy=policy,
    )
    return ChaosCampaign(config).run()


def run_study():
    return {policy: run_campaign(policy) for policy in POLICIES}


def flat_metrics(results):
    """One flat mapping across the three campaigns for the gate."""
    metrics = {}
    for policy, result in results.items():
        key = policy.replace("-", "_")
        metrics[f"{key}.mean_unprotected_window"] = (
            result.mean_unprotected_window
        )
        metrics[f"{key}.failovers"] = result.total_failovers
        metrics[f"{key}.recoveries"] = result.total_recoveries
        metrics[f"{key}.failed_recoveries"] = result.total_failed_recoveries
        metrics[f"{key}.dropped_vms"] = result.total_dropped_vms
        metrics[f"{key}.pooled_nines"] = result.pooled_nines
    metrics["hybrid.recovery_success_rate"] = results[
        "hybrid"
    ].recovery_success_rate
    return metrics


def test_recovery_policy_study(capsys):
    results = run_study()

    with capsys.disabled():
        print_header(
            "Recovery smoke: failover vs recover-in-place vs hybrid"
        )
        print(render_table(policy_comparison_rows(results)))

    failover, pure, hybrid = (results[p] for p in POLICIES)

    # Every policy saw the same seeded fault schedule.
    schedules = {
        tuple(tuple(trial.faults) for trial in result.trials)
        for result in results.values()
    }
    assert len(schedules) == 1

    # The recovery path actually fired where armed — and only there.
    assert failover.total_recovery_attempts == 0
    assert pure.total_recovery_attempts > 0
    assert hybrid.total_recovery_attempts > 0
    assert hybrid.total_recoveries > 0

    # Hybrid's fallback ladder: nothing dropped, ever.
    assert hybrid.total_dropped_vms == 0
    # Pure recover-in-place drops a VM exactly when a rebuild fails.
    assert pure.total_dropped_vms == pure.total_failed_recoveries

    # The headline: hybrid strictly dominates pure failover on the
    # mean unprotected window.
    assert (
        hybrid.mean_unprotected_window < failover.mean_unprotected_window
    )

    # Determinism: the hybrid fingerprint reproduces bit-identically.
    assert run_campaign("hybrid").fingerprint() == hybrid.fingerprint()


def test_recovery_metrics_match_committed_baseline(capsys):
    results = run_study()
    current = flat_metrics(results)

    if os.environ.get("REPRO_BENCH_WRITE"):
        payload = {
            "benchmark": "recovery-smoke",
            "seed": BENCH_SEED,
            "fingerprints": {
                policy: result.fingerprint()
                for policy, result in results.items()
            },
            "metrics": current,
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")

    # The committed fingerprint blocks are the live ones, key for key.
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        assert {
            policy: result.fingerprint() for policy, result in results.items()
        } == json.load(handle)["fingerprints"]

    baseline = load_baseline(BASELINE_PATH)
    gate = RegressionGate(
        # Deterministic simulation: anything beyond float round-off is
        # a behaviour change somebody must acknowledge...
        tolerance=Tolerance(relative=1e-9, absolute=1e-6),
        per_metric={
            # ...except the two "goodness" floors, which only gate
            # downwards: a higher success rate or more nines is fine.
            "hybrid.recovery_success_rate": Tolerance(
                relative=1e-9, absolute=1e-6, direction="at-least"
            ),
            "hybrid.pooled_nines": Tolerance(
                relative=1e-9, absolute=1e-6, direction="at-least"
            ),
        },
    )
    report = gate.compare(baseline, current)

    with capsys.disabled():
        print_header("Recovery smoke: regression gate vs BENCH_recovery.json")
        print(render_table(report.summary_rows()))

    assert report.passed, [d.metric for d in report.regressions]
