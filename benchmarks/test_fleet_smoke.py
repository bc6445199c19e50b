"""Fleet-campaign smoke: 200 VMs across 24 hosts and 3 zones.

The fleet-scale counterpart of ``test_chaos_smoke.py``: one seeded
zone-outage campaign through the :mod:`repro.fleet` control plane —
shard-per-pair materialization, fan-out fault injection, fleet-wide
re-protection queue under admission control, feedback controller.

Two contracts are pinned here:

* **Determinism** — the campaign fingerprint (placement, outage draw,
  queue admissions, per-VM unprotected windows) is bit-identical
  across two runs of the same seed.
* **Regression gate** — the campaign's flat metrics must match the
  committed ``BENCH_fleet.json`` baseline within tolerance.  Refresh
  the baseline with ``REPRO_BENCH_WRITE=1`` after an acknowledged
  behaviour change.  The baseline's top-level ``shards_per_second``
  (shard-quanta advanced per wall-clock second) is informational
  only: wall-clock throughput depends on the machine, so it is kept
  out of the gated ``metrics`` block.
"""

import json
import os
import time

from repro.analysis import render_table
from repro.experiments import RegressionGate, Tolerance, load_baseline
from repro.fleet import FleetCampaign, FleetCampaignConfig, FleetSpec
from repro.hardware.units import MIB
from repro.telemetry import MetricsAggregator

from harness import BENCH_SEED, print_header

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_fleet.json"
)


def fleet_config():
    # 3 zones x 2 racks x 3 hosts = 18 grid hosts, plus 6 spares: 24.
    spec = FleetSpec(
        zones=3,
        racks_per_zone=2,
        hosts_per_rack=3,
        spares=6,
        vms=200,
        vm_memory_bytes=64 * MIB,
        quantum=0.5,
        seed=BENCH_SEED,
    )
    return FleetCampaignConfig(
        spec=spec,
        settle_time=3.0,
        fault_window=3.0,
        recovery_time=20.0,
    )


def run_campaign(subscribers=()):
    """One timed campaign: (result, shard-quanta per wall second)."""
    start = time.perf_counter()
    result = FleetCampaign(fleet_config(), subscribers=subscribers).run()
    elapsed = time.perf_counter() - start
    shards_per_second = result.shards * result.quanta_executed / elapsed
    return result, shards_per_second


def test_fleet_campaign_smoke(capsys):
    aggregator = MetricsAggregator()
    result, shards_per_second = run_campaign(subscribers=[aggregator])

    with capsys.disabled():
        print_header("Fleet smoke: zone outage over 200 VMs / 24 hosts")
        print(render_table(result.summary_rows()))
        print(f"throughput: {shards_per_second:,.0f} shard-quanta/s")

    # The demanded scale actually materialized.
    spec = result.config.spec
    assert result.vms >= 200
    assert result.hosts == 24
    assert result.zones == 3
    assert result.shards >= spec.grid_xen_hosts >= 12

    # The outage bit: failovers happened, every orphaned VM was
    # re-protected through the queue, nothing was dropped.
    assert result.faults_injected >= 1
    assert result.failovers > 0
    assert result.failed_failovers == 0
    assert result.reprotections == result.enqueued > 0
    assert result.dropped_vms == 0

    # The queue drained *under admission control*: every request was
    # eventually admitted, yet the drain was throttled (deferrals
    # happened, and the backlog far exceeded the admission ceiling).
    assert result.admitted == result.enqueued
    assert result.deferred > 0
    assert result.max_queue_depth > result.final_admission_limit

    # Cross-shard telemetry merged into one subscribed aggregator.
    assert aggregator.count("fleet.quantum") == result.quanta_executed
    assert aggregator.count("host.failure") >= 1

    # Determinism: a second run, with no subscriber, reproduces the
    # fingerprint exactly.
    rerun, _ = run_campaign()
    assert rerun.fingerprint() == result.fingerprint()


def test_fleet_metrics_match_committed_baseline(capsys):
    result, shards_per_second = run_campaign()
    current = result.metrics()

    if os.environ.get("REPRO_BENCH_WRITE"):
        payload = {
            "benchmark": "fleet-smoke",
            "seed": BENCH_SEED,
            "fingerprint": result.fingerprint(),
            "shards_per_second": round(shards_per_second, 1),
            "metrics": current,
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")

    # The committed fingerprint block is the live one, key for key.
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        assert result.fingerprint() == json.load(handle)["fingerprint"]

    baseline = load_baseline(BASELINE_PATH)
    gate = RegressionGate(
        # The simulation is deterministic: everything but float
        # round-off is a behaviour change somebody must acknowledge.
        tolerance=Tolerance(relative=1e-9, absolute=1e-6),
    )
    report = gate.compare(baseline, current)

    with capsys.disabled():
        print_header("Fleet smoke: regression gate vs BENCH_fleet.json")
        print(render_table(report.summary_rows()))

    assert report.passed, [d.metric for d in report.regressions]
    # The gate passes a metric the baseline lacks as "new", unchecked:
    # every gated metric must be in the committed block.
    assert not [d.metric for d in report.deltas if d.verdict == "new"]
