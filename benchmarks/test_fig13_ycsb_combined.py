"""Fig. 13: YCSB under HERE with *both* a degradation target and T_max.

Configurations: HERE(3 s, 40 %) and HERE(5 s, 30 %).

Paper shape: the desired degradation prevails over T_max — with
periods of 3 s and 5 s alone the observed degradations are below 40 %
and 30 % respectively (Fig. 11), so the controller tightens the period
until the degradation budget is spent: observed ~48–53 % for the
(3 s, 40 %) setting and ~33–38 % for (5 s, 30 %).
"""

import pytest

from repro.analysis import render_bars
from repro.experiments.presets import run_throughput_trial

from harness import print_header

CONFIGS = ["Xen", "HERE(3sec,40%)", "HERE(5sec,30%)"]
WORKLOADS = ["a", "b", "c", "d", "e", "f"]


def run_matrix():
    rows = []
    for mix in WORKLOADS:
        for config in CONFIGS:
            metrics, _ = run_throughput_trial({
                "setup": config, "workload": "ycsb",
                "workload_kwargs": {"mix": mix},
                "duration": 150.0,
            })
            rows.append(
                {
                    "workload": mix,
                    "config": config,
                    "kops": metrics["throughput_ops_s"] / 1000.0,
                    "slowdown_pct": metrics["slowdown_pct"],
                    "mean_period_s": metrics.get("mean_period_s", 0.0),
                }
            )
    return rows


def test_fig13_ycsb_degradation_plus_tmax(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    print_header("Fig. 13: YCSB under HERE with defined degradation AND T_max")
    for mix in WORKLOADS:
        subset = [row for row in rows if row["workload"] == mix]
        print(
            render_bars(
                subset, "config", "kops",
                annotation_key="slowdown_pct",
                title=f"\nWorkload {mix} (kops/s, slowdown % in parens):",
            )
        )

    cell = {(row["workload"], row["config"]): row for row in rows}
    for mix in WORKLOADS:
        d40 = cell[(mix, "HERE(3sec,40%)")]
        d30 = cell[(mix, "HERE(5sec,30%)")]
        # Shape: the 40 % budget costs more than the 30 % budget.
        assert d40["slowdown_pct"] > d30["slowdown_pct"]
        # Shape: D prevails over T_max — the controller shrinks the
        # period below the ceiling to consume the budget.
        assert d40["mean_period_s"] < 3.0 + 1e-9
        assert d30["mean_period_s"] < 5.0 + 1e-9
        # Shape: observed degradations in the paper's reported bands
        # (generously widened): 48-53 % and 33-38 %.
        assert 28.0 < d40["slowdown_pct"] < 62.0
        assert 18.0 < d30["slowdown_pct"] < 48.0
