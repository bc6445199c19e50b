"""Serving smoke: user-visible tail latency under every strategy.

One :class:`~repro.serving.ServingStudy` — the same 1000 req/s
open-loop population and the same primary-hypervisor crash, served
under all five fault-tolerance strategies — pinning the claims the
serving subsystem exists to make:

* **The tail tells the strategies apart.**  COLO's hot standby keeps
  the p999 an order of magnitude below HERE's activation blackout;
  Remus's output commit pays for its loss-free failover with a fat
  p50 (every response waits for a checkpoint ack); the unreplicated
  baseline answers fastest and loses by far the most requests; a
  successful microreboot converts losses into stalls.
* **Hedging buys tail.**  Cloning requests to the replica measurably
  improves the p999 of at least one strategy and rescues requests
  that died with the primary.
* **Determinism** — the study fingerprint is bit-identical across two
  runs of the same seed.
* **Regression gate** — flat metrics must match the committed
  ``BENCH_serving.json``.  Deterministic numbers gate exactly; each
  strategy's p999 and SLO-violation rate gate *at-most* (serving
  users better than the baseline is not a regression).  Refresh with
  ``REPRO_BENCH_WRITE=1`` after an acknowledged behaviour change.
"""

import json
import os

from repro.analysis import (
    hedging_improvement_pct,
    render_table,
    strategy_comparison_rows,
)
from repro.experiments import RegressionGate, Tolerance, load_baseline
from repro.serving import (
    STRATEGIES,
    ServingConfig,
    ServingStudy,
    StudyConfig,
    study_fingerprint,
)

from harness import BENCH_SEED, print_header

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_serving.json"
)


def study_config():
    return StudyConfig(
        serving=ServingConfig(
            users=50_000,
            rate_per_user=0.02,
            demand=0.0005,
            slo=0.25,
            hedge=0.8,
        ),
        seed=BENCH_SEED,
        duration=12.0,
        crash_at=6.0,
    )


def run_study():
    return ServingStudy(study_config()).run()


def flat_metrics(outcomes):
    """``<strategy>.<metric>`` dict for the regression gate."""
    flat = {}
    for strategy, outcome in outcomes.items():
        for name, value in outcome.report.to_metrics().items():
            flat[f"{strategy}.{name}"] = value
        if outcome.hedged_report is not None:
            flat[f"{strategy}.hedged_p999"] = outcome.hedged_report.p999
            flat[f"{strategy}.hedged_lost"] = float(
                outcome.hedged_report.lost
            )
            flat[f"{strategy}.hedged_rescued"] = float(
                outcome.hedged_report.rescued
            )
    return flat


def test_serving_study_shape_and_determinism(capsys):
    outcomes = run_study()

    with capsys.disabled():
        print_header(
            "Serving smoke: one crash, five strategies, 1000 req/s"
        )
        print(render_table(
            strategy_comparison_rows(outcomes, order=STRATEGIES)
        ))

    assert set(outcomes) == set(STRATEGIES)
    reports = {name: outcome.report for name, outcome in outcomes.items()}
    for name, report in reports.items():
        assert report.requests > 1_000, name
        assert report.served + report.lost == report.requests, name

    # The unreplicated baseline loses far more than any replicated
    # strategy: its users are dark for detection + a cold restart.
    replicated_losses = max(
        report.lost for name, report in reports.items() if name != "failover"
    )
    assert reports["failover"].lost > 5 * replicated_losses

    # COLO's hot standby keeps the tail an order of magnitude below
    # HERE's activation blackout.
    assert reports["colo"].p999 * 5 < reports["here"].p999

    # Remus's output commit fattens the median: every response waits
    # for the next checkpoint ack, HERE's dynamic period does not add
    # a comparable floor.
    assert reports["remus"].p50 > 2 * reports["here"].p50

    # A successful microreboot preserves guests: requests stall
    # instead of dying with the primary.
    assert reports["hybrid-recovery"].lost < reports["here"].lost

    # Hedging measurably improves the p999 of at least one strategy
    # and rescues primary-lost requests.
    improvements = {
        name: hedging_improvement_pct(
            outcome.report.p999, outcome.hedged_report.p999
        )
        for name, outcome in outcomes.items()
        if outcome.hedged_report is not None
    }
    assert max(improvements.values()) > 1.0, improvements
    assert sum(
        outcome.hedged_report.rescued
        for outcome in outcomes.values()
        if outcome.hedged_report is not None
    ) > 0

    # Determinism: a second run reproduces the fingerprint exactly.
    assert study_fingerprint(run_study()) == study_fingerprint(outcomes)


def test_serving_metrics_match_committed_baseline(capsys):
    outcomes = run_study()
    current = flat_metrics(outcomes)

    if os.environ.get("REPRO_BENCH_WRITE"):
        payload = {
            "benchmark": "serving-smoke",
            "seed": BENCH_SEED,
            "fingerprint": study_fingerprint(outcomes),
            "metrics": current,
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")

    # The committed fingerprint block is the live one, key for key.
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        committed = json.load(handle)["fingerprint"]
    assert study_fingerprint(outcomes) == committed

    baseline = load_baseline(BASELINE_PATH)
    gate = RegressionGate(
        # Deterministic simulation: anything beyond float round-off is
        # a behaviour change somebody must acknowledge...
        tolerance=Tolerance(relative=1e-9, absolute=1e-6),
        per_metric={
            # ...except the user-facing ceilings, which only gate
            # upwards: a shorter tail or fewer violations is fine.
            f"{strategy}.{metric}": Tolerance(
                relative=1e-9, absolute=1e-6, direction="at-most"
            )
            for strategy in STRATEGIES
            for metric in ("p999", "violation_rate")
        },
    )
    report = gate.compare(baseline, current)

    with capsys.disabled():
        print_header("Serving smoke: regression gate vs BENCH_serving.json")
        print(render_table(report.summary_rows()))

    assert report.passed, [d.metric for d in report.regressions]
