"""Shared machinery for the experiment benchmarks.

Each ``benchmarks/test_*.py`` file regenerates one table or figure of
the paper: it runs the corresponding experiment on the simulated
testbed, prints the same rows/series the paper reports, and asserts the
*qualitative shape* (who wins, by roughly what factor, where crossovers
fall).  Absolute values are not expected to match the paper's hardware;
EXPERIMENTS.md records paper-vs-measured for every experiment.

The Table-6 replication setups, the benchmark seed and the trial
runners behind each measurement (``run_throughput_trial`` for a bar of
Figs. 11–16, ``run_checkpoint_trial`` for a point of Fig. 8) live in
:mod:`repro.experiments.presets` — the same definitions drive ``repro
sweep``.  The setups and the seed are re-exported here.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from repro.experiments.presets import (  # noqa: F401  (re-exports)
    BENCH_SEED,
    TABLE6,
    ReplicationSetup,
)


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
