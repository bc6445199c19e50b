"""Fig. 8: checkpoint transfer times and degradations, Remus vs HERE.

Configuration per the paper: fixed replication period T = 8 s, VM
memory swept 1–20 GB, and a 30 % memory-load microbenchmark for the
"loaded" panels.

Paper shapes:

* (a) idle: transfer time grows with memory *size* (bitmap scan);
  HERE up to ~70 % lower than Remus;
* (b) loaded: transfer time dominated by dirty pages; HERE ~49 % lower;
* (c) idle degradations: well below 1 % for both systems;
* (d) loaded degradations: substantial for Remus, clearly lower for HERE.
"""

import pytest

from repro.analysis import improvement_pct, render_table
from repro.experiments.presets import run_checkpoint_trial

from harness import ReplicationSetup, print_header

SIZES_GIB = [1, 2, 4, 8, 16, 20]
REMUS_8S = ReplicationSetup("Remus(T=8s)", "remus", period=8.0)
HERE_8S = ReplicationSetup("HERE(T=8s)", "here", period=8.0)


def checkpoint_point(setup, size, load):
    metrics, _ = run_checkpoint_trial(
        {"setup": setup, "memory_gib": size, "load": load}
    )
    return metrics


def run_panel(load):
    rows = []
    for size in SIZES_GIB:
        remus = checkpoint_point(REMUS_8S, size, load)
        here = checkpoint_point(HERE_8S, size, load)
        rows.append(
            {
                "memory_gib": size,
                "remus_transfer_s": remus["mean_transfer_s"],
                "here_transfer_s": here["mean_transfer_s"],
                "gain_pct": improvement_pct(
                    remus["mean_transfer_s"], here["mean_transfer_s"]
                ),
                "remus_deg_pct": remus["mean_degradation"] * 100,
                "here_deg_pct": here["mean_degradation"] * 100,
            }
        )
    return rows


def test_fig8_idle_checkpoint_transfer(benchmark):
    rows = benchmark.pedantic(run_panel, args=(0.0,), rounds=1, iterations=1)
    print_header("Fig. 8a/8c: idle VM checkpoint transfer + degradation, T=8s")
    print(render_table(rows))

    # (a) transfer time grows with memory size for both systems.
    assert [r["remus_transfer_s"] for r in rows] == sorted(
        r["remus_transfer_s"] for r in rows
    )
    # HERE's multithreaded scan cuts idle transfer strongly (paper: up
    # to ~70 % lower); the gain grows with memory size.
    gains = [r["gain_pct"] for r in rows]
    assert gains[-1] == max(gains)
    assert 55.0 <= gains[-1] <= 75.0
    # (c) idle degradation is below 1 % everywhere.
    assert all(r["remus_deg_pct"] < 1.0 for r in rows)
    assert all(r["here_deg_pct"] < 1.0 for r in rows)


def test_fig8_loaded_checkpoint_transfer(benchmark):
    rows = benchmark.pedantic(run_panel, args=(0.3,), rounds=1, iterations=1)
    print_header(
        "Fig. 8b/8d: 30% memory-load checkpoint transfer + degradation, T=8s"
    )
    print(render_table(rows))

    # (b) loaded transfers are orders of magnitude above idle ones and
    # HERE stays ~49 % below Remus across sizes.
    for row in rows:
        assert row["remus_transfer_s"] > 1.0
        assert 40.0 <= row["gain_pct"] <= 58.0
    # (d) loaded degradation is significant for Remus, lower for HERE.
    big = [r for r in rows if r["memory_gib"] >= 8]
    assert all(r["remus_deg_pct"] > 20.0 for r in big)
    assert all(r["here_deg_pct"] < r["remus_deg_pct"] * 0.75 for r in rows)
