"""Fig. 15: SPEC CPU 2006 under HERE with a defined degradation.

Configurations: D = 20 %, 30 %, 40 %, T_max = ∞.

Paper shapes: the lower targets are respected well (observed 20–24 at
D = 20 %, 30–38 at D = 30 %); the 40 % target overshoots (43–51)
because very frequent checkpoints add scheduling and cache costs.
"""

import pytest

from repro.analysis import render_bars
from repro.experiments.presets import run_throughput_trial

from harness import print_header

CONFIGS = ["Xen", "HERE(inf,20%)", "HERE(inf,30%)", "HERE(inf,40%)"]
BENCHMARKS = ["gcc", "cactuBSSN", "namd", "lbm"]


def run_matrix():
    rows = []
    for spec_benchmark in BENCHMARKS:
        for config in CONFIGS:
            metrics, _ = run_throughput_trial({
                "setup": config, "workload": "spec",
                "workload_kwargs": {"benchmark": spec_benchmark},
                "duration": 150.0,
            })
            rows.append(
                {
                    "benchmark": spec_benchmark,
                    "config": config,
                    "rate_ops_s": metrics["throughput_ops_s"],
                    "slowdown_pct": metrics["slowdown_pct"],
                }
            )
    return rows


def test_fig15_spec_defined_degradation(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    print_header("Fig. 15: SPEC CPU 2006 under HERE with defined degradation")
    for spec_benchmark in BENCHMARKS:
        subset = [row for row in rows if row["benchmark"] == spec_benchmark]
        print(
            render_bars(
                subset, "config", "rate_ops_s",
                annotation_key="slowdown_pct",
                title=f"\n{spec_benchmark} (rate ops/s, slowdown % in parens):",
            )
        )

    cell = {(row["benchmark"], row["config"]): row for row in rows}
    for spec_benchmark in BENCHMARKS:
        observed = {
            "20": cell[(spec_benchmark, "HERE(inf,20%)")]["slowdown_pct"],
            "30": cell[(spec_benchmark, "HERE(inf,30%)")]["slowdown_pct"],
            "40": cell[(spec_benchmark, "HERE(inf,40%)")]["slowdown_pct"],
        }
        # Shape: ordered by target.
        assert observed["20"] < observed["30"] < observed["40"]
        # Shape: lower targets respected within a modest margin.
        assert observed["20"] < 30.0
        assert observed["30"] < 40.0
        # Shape: every setting produces real overhead.
        assert observed["20"] > 8.0
