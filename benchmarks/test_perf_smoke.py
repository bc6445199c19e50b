"""Perf smoke: the committed host-throughput trajectory of the simulator.

Every other benchmark pins *simulated* statistics; this one pins how
fast the host chews through them.  It times the heaviest chaos-campaign
configuration in the suite (4x 8 GiB / 8-vCPU VMs under a memory
microbenchmark, two faults, heterogeneous failover) and compares
VM-steps/sec against ``BENCH_perf.json``:

* ``pre_refactor`` — the frozen measurement taken on this machine
  immediately **before** the checkpoint hot path was vectorized
  (scalar dirty-page loops, per-chunk transport passes, binary-heap
  calendar, no serialisation memo).  It is never refreshed; it is the
  denominator of the committed speedup trajectory.
* ``current`` — the measurement refreshed by ``REPRO_BENCH_WRITE=1``
  alongside the rest of the payload.  The committed speedup
  (``current`` vs ``pre_refactor``) must stay >= 3x, and the live run
  must reproduce it within a generous one-sided margin.

Gating is split by what a different machine may legitimately change:

* deterministic campaign statistics (events, checkpoints, failovers,
  MTTR, availability) are gated **both ways** at float-round-off
  tolerance — any drift is a behaviour change, not machine noise;
* ``best_steps_per_sec`` is gated **one-sidedly** (``at-least``) with
  a wide margin: faster machines and real optimisations always pass,
  only a substantial throughput collapse fails;
* raw wall-clock seconds are reported but never gated.
"""

import json
import os
import time

from repro.analysis import render_table
from repro.experiments import RegressionGate, Tolerance, load_baseline
from repro.faults.campaign import CampaignConfig, ChaosCampaign
from repro.faults.spec import FaultKind
from repro.hardware.units import GIB
from repro.profiling import throughput_line

from harness import print_header

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_perf.json"
)

#: Seed of the frozen pre-refactor measurement; changing it would
#: invalidate the committed trajectory, so it is pinned independently
#: of the shared benchmark seed.
PERF_SEED = 2023

#: Timed repetitions; the best run is the throughput figure (least
#: scheduler interference) and the median is reported alongside.
TIMED_RUNS = 5

#: The committed speedup the vectorization work must hold.
REQUIRED_SPEEDUP = 3.0


def perf_config() -> CampaignConfig:
    """The hot-path-heavy campaign: big VMs, real workload, failovers."""
    return CampaignConfig(
        trials=2,
        seed=PERF_SEED,
        vms=4,
        kvm_hosts=3,
        vm_memory_bytes=8 * GIB,
        vm_vcpus=8,
        settle_time=3.0,
        fault_window=3.0,
        recovery_time=40.0,
        kinds=(FaultKind.HOST_CRASH, FaultKind.HYPERVISOR_CRASH),
        workload="membench",
        workload_load=0.8,
        reliable_transport=True,
    )


def run_timed():
    """Run the campaign ``TIMED_RUNS`` times; returns (result, walls)."""
    walls = []
    result = None
    for _ in range(TIMED_RUNS):
        start = time.perf_counter()
        result = ChaosCampaign(perf_config()).run()
        walls.append(time.perf_counter() - start)
    return result, sorted(walls)


def gated_metrics(result, best_steps_per_sec: float) -> dict:
    """The flat metric block committed to ``BENCH_perf.json``."""
    metrics = {
        name: float(value)
        for name, value in result.fingerprint().items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    metrics["events_processed"] = float(result.total_events_processed)
    metrics["checkpoints"] = float(result.total_checkpoints)
    metrics["best_steps_per_sec"] = round(best_steps_per_sec, 1)
    return metrics


def test_perf_trajectory_holds(capsys):
    result, walls = run_timed()
    events = result.total_events_processed
    best_wall, median_wall = walls[0], walls[TIMED_RUNS // 2]
    best_rate = events / best_wall
    median_rate = events / median_wall
    current = gated_metrics(result, best_rate)

    if os.environ.get("REPRO_BENCH_WRITE"):
        payload = {
            "benchmark": "perf-smoke",
            "seed": PERF_SEED,
            "timed_runs": TIMED_RUNS,
            "fingerprint": result.fingerprint(),
            # Frozen denominator: measured before the hot-path
            # vectorization, never refreshed (see module docstring).
            "pre_refactor": {
                "best_steps_per_sec": 18936.0,
                "median_steps_per_sec": 17610.0,
                "best_wall_s": 0.559,
            },
            "current": {
                "best_steps_per_sec": round(best_rate, 1),
                "median_steps_per_sec": round(median_rate, 1),
                "best_wall_s": round(best_wall, 4),
            },
            "metrics": current,
        }
        if os.path.exists(BASELINE_PATH):
            # Keep the frozen denominator across refreshes.
            with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
                payload["pre_refactor"] = json.load(handle)["pre_refactor"]
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")

    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    pre = committed["pre_refactor"]
    post = committed["current"]
    # The committed fingerprint block is the live one, key for key.
    assert result.fingerprint() == committed["fingerprint"]

    with capsys.disabled():
        print_header("Perf smoke: chaos-campaign host throughput")
        print(throughput_line(events, best_wall))
        rows = [
            {"metric": "pre-refactor best steps/sec",
             "value": f"{pre['best_steps_per_sec']:,.0f}"},
            {"metric": "committed best steps/sec",
             "value": f"{post['best_steps_per_sec']:,.0f}"},
            {"metric": "committed speedup",
             "value": f"{post['best_steps_per_sec'] / pre['best_steps_per_sec']:.2f}x"},
            {"metric": "this run best / median steps/sec",
             "value": f"{best_rate:,.0f} / {median_rate:,.0f}"},
            {"metric": "this run best wall (s)",
             "value": f"{best_wall:.3f}"},
        ]
        print(render_table(rows))

    # The committed trajectory: the vectorized hot path is >= 3x the
    # frozen pre-refactor measurement taken on the same machine.
    committed_speedup = post["best_steps_per_sec"] / pre["best_steps_per_sec"]
    assert committed_speedup >= REQUIRED_SPEEDUP, (
        f"committed speedup {committed_speedup:.2f}x fell below "
        f"{REQUIRED_SPEEDUP}x — refresh BENCH_perf.json only after "
        "restoring the hot-path throughput"
    )

    # The live run backs the committed figure up: the deterministic
    # statistics exactly, the throughput one-sidedly.
    baseline = load_baseline(BASELINE_PATH)
    gate = RegressionGate(
        tolerance=Tolerance(relative=1e-9, absolute=1e-6),
        per_metric={
            "best_steps_per_sec": Tolerance(
                relative=0.40, direction="at-least"
            ),
        },
    )
    report = gate.compare(baseline, current)

    with capsys.disabled():
        print_header("Perf smoke: regression gate vs BENCH_perf.json")
        print(render_table(report.summary_rows()))

    assert report.passed, [d.metric for d in report.regressions]
    # The gate passes a metric the baseline lacks as "new", unchecked:
    # every gated metric must be in the committed block.
    assert not [d.metric for d in report.deltas if d.verdict == "new"]


def test_perf_config_is_deterministic():
    """Same seed => identical campaign fingerprint (the timed config)."""
    first = ChaosCampaign(perf_config()).run()
    second = ChaosCampaign(perf_config()).run()
    assert first.fingerprint() == second.fingerprint()
    assert first.total_events_processed == second.total_events_processed
    assert first.total_checkpoints == second.total_checkpoints
