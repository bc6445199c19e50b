"""Fig. 14: SPEC CPU 2006 under Remus and HERE at equal fixed periods.

Benchmarks: gcc, cactuBSSN, namd, lbm.  Configurations as in Fig. 11.

Paper shapes (slowdown % at T = 3 s): Remus ~20–35 %, HERE ~12–24 %;
cactuBSSN (the dirtiest benchmark) suffers most under both systems.
"""

import pytest

from repro.analysis import render_bars
from repro.experiments.presets import run_throughput_trial

from harness import print_header

CONFIGS = ["Xen", "HERE(3Sec,0%)", "HERE(5Sec,0%)", "Remus3Sec", "Remus5Sec"]
BENCHMARKS = ["gcc", "cactuBSSN", "namd", "lbm"]


def run_matrix():
    rows = []
    for spec_benchmark in BENCHMARKS:
        for config in CONFIGS:
            metrics = run_throughput_trial({
                "setup": config, "workload": "spec",
                "workload_kwargs": {"benchmark": spec_benchmark},
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


def test_fig14_spec_fixed_period(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    print_header("Fig. 14: SPEC CPU 2006, Remus vs HERE at equal periods")
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
        # HERE beats Remus at equal periods.
        assert (
            cell[(spec_benchmark, "HERE(3Sec,0%)")]["slowdown_pct"]
            < cell[(spec_benchmark, "Remus3Sec")]["slowdown_pct"]
        )
        assert (
            cell[(spec_benchmark, "HERE(5Sec,0%)")]["slowdown_pct"]
            < cell[(spec_benchmark, "Remus5Sec")]["slowdown_pct"]
        )
        # SPEC overheads sit well below the YCSB ones (CPU-bound guests
        # dirty less memory): Remus at most ~40 %.
        assert cell[(spec_benchmark, "Remus3Sec")]["slowdown_pct"] < 45.0

    # cactuBSSN is the most affected benchmark under Remus (paper: 35 %).
    remus3 = {
        b: cell[(b, "Remus3Sec")]["slowdown_pct"] for b in BENCHMARKS
    }
    assert max(remus3, key=remus3.get) == "cactuBSSN"
    assert 25.0 < remus3["cactuBSSN"] < 45.0
    assert 15.0 < remus3["gcc"] < 35.0
