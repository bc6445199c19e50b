"""YCSB sweep smoke: Fig. 10-13 series through the sweep orchestrator.

Runs a trimmed Fig. 11-style YCSB-A column (unprotected Xen, HERE with a
5 s epoch, Remus with a 5 s epoch) through ``SweepRunner`` instead of
calling ``run_throughput_trial`` in-process as the Fig. 11 benchmark
does: every trial is fingerprinted, executed in a worker process, cached
content-addressed, and folded into an aggregate fingerprint that must
not depend on worker count.  The asserted shape is
the paper's throughput story -- protection costs throughput, and HERE's
dirty-rate-aware checkpointing keeps well ahead of Remus at the same
epoch length.
"""

from repro.analysis import render_table
from repro.experiments import ResultStore, SweepRunner
from repro.experiments.presets import ycsb_sweep

from harness import print_header

SETUPS = ("Xen", "HERE(5Sec,0%)", "Remus5Sec")


def build_specs():
    return ycsb_sweep(
        setups=SETUPS, mixes=("a",), duration=20.0, memory_gib=1.0
    )


def test_ycsb_sweep_smoke(tmp_path, capsys):
    specs = build_specs()
    store = ResultStore(str(tmp_path / "cache"))
    serial = SweepRunner(jobs=1, store=store).run(specs)
    assert all(outcome.ok for outcome in serial.outcomes)

    with capsys.disabled():
        print_header("YCSB-A sweep: Xen vs HERE(5s) vs Remus(5s)")
        print(render_table(serial.summary_rows()))

    throughput = {
        outcome.spec.params["setup"]: outcome.metrics["throughput_ops_s"]
        for outcome in serial.outcomes
    }
    # Protection costs throughput; HERE stays well ahead of Remus at the
    # same epoch length (Fig. 11).
    assert throughput["Xen"] > throughput["HERE(5Sec,0%)"]
    assert throughput["HERE(5Sec,0%)"] > 1.2 * throughput["Remus5Sec"]

    # A warm cache answers the identical sweep without re-running.
    cached = SweepRunner(jobs=1, store=store).run(specs)
    assert cached.cache_hits == len(specs)
    assert cached.cache_misses == 0

    # Worker count must not leak into the results.
    parallel = SweepRunner(jobs=2).run(specs)
    assert parallel.aggregate_fingerprint() == serial.aggregate_fingerprint()
