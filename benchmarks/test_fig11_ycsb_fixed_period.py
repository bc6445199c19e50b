"""Fig. 11: YCSB A–F under Remus and HERE at equal fixed periods.

Configurations: unreplicated Xen baseline; HERE with T pinned to 3 s
and 5 s (D = 0 %); Remus with T = 3 s and 5 s.

Paper shapes (numbers above the bars are slowdown %):

* Remus costs roughly 34–52 % across the six workloads at T = 3 s;
* HERE costs clearly less at the same period (e.g. workload A: 32 %
  vs Remus's 52 % at 3 s; 28 % vs 45 % at 5 s);
* the longer period degrades less for both systems.
"""

import pytest

from repro.analysis import render_bars, render_table
from repro.experiments.presets import run_throughput_trial
from repro.workloads import CORE_WORKLOADS

from harness import print_header

CONFIGS = ["Xen", "HERE(3Sec,0%)", "HERE(5Sec,0%)", "Remus3Sec", "Remus5Sec"]
WORKLOADS = ["a", "b", "c", "d", "e", "f"]


def run_matrix():
    rows = []
    for mix in WORKLOADS:
        for config in CONFIGS:
            metrics = run_throughput_trial({
                "setup": config, "workload": "ycsb",
                "workload_kwargs": {"mix": mix},
            })
            rows.append(
                {
                    "workload": mix,
                    "config": config,
                    "kops": metrics["throughput_ops_s"] / 1000.0,
                    "slowdown_pct": metrics["slowdown_pct"],
                }
            )
    return rows


def test_fig11_ycsb_fixed_period(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    print_header("Fig. 11: YCSB throughput, Remus vs HERE at equal periods")
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
        # Baseline suffers no slowdown.
        assert abs(cell[(mix, "Xen")]["slowdown_pct"]) < 2.0
        # HERE beats Remus at the same period, on every workload.
        assert (
            cell[(mix, "HERE(3Sec,0%)")]["slowdown_pct"]
            < cell[(mix, "Remus3Sec")]["slowdown_pct"]
        )
        assert (
            cell[(mix, "HERE(5Sec,0%)")]["slowdown_pct"]
            < cell[(mix, "Remus5Sec")]["slowdown_pct"]
        )
        # Everything replicated costs something real.
        assert cell[(mix, "HERE(5Sec,0%)")]["slowdown_pct"] > 5.0

    # The paper's workload-A anchor points: Remus ~52/45 %, HERE ~32/28 %.
    assert 40.0 < cell[("a", "Remus3Sec")]["slowdown_pct"] < 65.0
    assert 25.0 < cell[("a", "HERE(3Sec,0%)")]["slowdown_pct"] < 45.0
    assert (
        cell[("a", "Remus5Sec")]["slowdown_pct"]
        < cell[("a", "Remus3Sec")]["slowdown_pct"]
    )
