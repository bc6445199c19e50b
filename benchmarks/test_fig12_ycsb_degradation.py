"""Fig. 12: YCSB under HERE with a *defined degradation* (T_max = ∞).

Configurations: D = 20 %, 30 %, 40 % with no period ceiling.

Paper shapes:

* for the smaller targets (20 %, 30 %) the observed slowdown lands
  close to the configured value;
* the 40 % target is harder to respect — checkpointing that often adds
  scheduling/cache costs, so observed degradation overshoots (the
  paper reports ~48–54 % observed for the 40 % setting).
"""

import pytest

from repro.analysis import render_bars
from repro.experiments.presets import run_throughput_trial

from harness import print_header

CONFIGS = ["Xen", "HERE(inf,20%)", "HERE(inf,30%)", "HERE(inf,40%)"]
TARGETS = {"HERE(inf,20%)": 20.0, "HERE(inf,30%)": 30.0, "HERE(inf,40%)": 40.0}
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
                }
            )
    return rows


def test_fig12_ycsb_defined_degradation(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    print_header("Fig. 12: YCSB under HERE with defined degradation")
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
        observed = {
            config: cell[(mix, config)]["slowdown_pct"] for config in TARGETS
        }
        # Shape: higher targets cost more throughput, in order.
        assert (
            observed["HERE(inf,20%)"]
            < observed["HERE(inf,30%)"]
            < observed["HERE(inf,40%)"]
        )
        # Shape: the 20 % and 30 % targets are respected within a
        # modest margin (the paper's observed values: 21-26 and 33-38).
        assert observed["HERE(inf,20%)"] < 30.0
        assert observed["HERE(inf,30%)"] < 40.0
        # Shape: every target produces real degradation (the engine is
        # actually checkpointing aggressively).
        assert observed["HERE(inf,20%)"] > 8.0
