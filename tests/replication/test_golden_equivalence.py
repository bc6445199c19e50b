"""Golden equivalence: the stage pipeline reproduces the monolith exactly.

The checkpoint path was decomposed from one ~200-line method into the
stage pipeline of :mod:`repro.replication.pipeline`.  The refactor's
contract is *bit-for-bit behaviour*: a fixed-seed run must produce the
identical :class:`ReplicationStats` — every per-checkpoint field — and
the identical telemetry trace (ignoring the pipeline's own
``pipeline.stage`` spans, which are new) as the pre-refactor code.

The ``GOLDEN`` constants below were recorded by running this module as
a script against the pre-refactor engine (commit ``aff47d5``)::

    PYTHONPATH=src python tests/replication/test_golden_equivalence.py

Re-run the same command to regenerate them if behaviour is changed
*deliberately*; a failing test otherwise means the pipeline drifted
from the monolith's semantics.
"""

import hashlib

from repro.hardware import GIB, build_testbed
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.replication import XBRLE, EngineRecipe, here_engine, remus_engine
from repro.simkernel import Simulation
from repro.telemetry import Recorder
from repro.workloads import MemoryMicrobenchmark

GOLDEN_SEED = 20260806
RUN_FOR = 25.0


def _build(kind):
    sim = Simulation(seed=GOLDEN_SEED)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    if kind == "remus":
        secondary = XenHypervisor(sim, testbed.secondary)
        engine = remus_engine(
            sim, xen, secondary, testbed.interconnect, period=2.0
        )
    elif kind == "here":
        secondary = KvmHypervisor(sim, testbed.secondary)
        engine = here_engine(
            sim, xen, secondary, testbed.interconnect,
            EngineRecipe(
                target_degradation=0.3, t_max=5.0, sigma=0.25,
                initial_period=0.5,
            ),
        )
    else:  # here-compressed: exercises the CompressStage path
        secondary = KvmHypervisor(sim, testbed.secondary)
        engine = here_engine(
            sim, xen, secondary, testbed.interconnect,
            EngineRecipe(target_degradation=0.0, t_max=3.0),
        )
        engine.config.compression = XBRLE
    vm = xen.create_vm("golden", vcpus=4, memory_bytes=1 * GIB)
    vm.start()
    MemoryMicrobenchmark(sim, vm, load=0.25).start()
    return sim, engine


def _canonical_record(record):
    attrs = tuple(sorted(record.attrs.items()))
    if hasattr(record, "started_at"):  # span
        return ("span", record.name, record.started_at, record.ended_at, attrs)
    return (
        type(record).__name__,
        record.name,
        record.time,
        record.value,
        attrs,
    )


def run_scenario(kind):
    """Run one fixed-seed scenario; returns its comparable summary."""
    sim, engine = _build(kind)
    recorder = Recorder()
    sim.telemetry.subscribe(recorder)
    engine.start("golden")
    sim.run_until_triggered(engine.ready)
    sim.run(until=sim.now + RUN_FOR)
    engine.halt("golden run complete")
    sim.run(until=sim.now + 1.0)
    stats = engine.stats
    checkpoint_rows = tuple(
        (
            c.epoch,
            c.started_at,
            c.period_used,
            c.pause_duration,
            c.transfer_duration,
            c.dirty_pages,
            c.bytes_sent,
            c.acked_at,
            c.packets_released,
        )
        for c in stats.checkpoints
    )
    stats_blob = repr(
        (
            stats.vm_name,
            stats.engine,
            stats.started_at,
            stats.seeding_duration,
            stats.seeding_downtime,
            stats.stopped_at,
            stats.stop_reason,
            checkpoint_rows,
        )
    )
    # The trace digest ignores the pipeline's own per-stage spans: the
    # refactor *adds* pipeline.stage records but must leave every
    # pre-existing record — names, times, attributes and their relative
    # order — untouched.  Span/parent ids are excluded (new spans shift
    # the id sequence without changing any behaviour).  The serving
    # overlay later added the output-commit lifecycle counters under the
    # same additive contract, so they are excluded on the same grounds.
    additive = ("devices.protection_started", "devices.protection_ended")
    trace_blob = repr(
        [
            _canonical_record(record)
            for record in recorder.records
            if not record.name.startswith("pipeline.")
            and record.name not in additive
        ]
    )
    return {
        "checkpoints": stats.checkpoint_count,
        "last_acked_epoch": engine.last_acked_epoch,
        "total_bytes": sum(c.bytes_sent for c in stats.checkpoints),
        "stats_digest": hashlib.sha256(stats_blob.encode()).hexdigest(),
        "trace_digest": hashlib.sha256(trace_blob.encode()).hexdigest(),
    }


#: Recorded on the pre-refactor monolithic engine (see module docstring).
GOLDEN = {
    "remus": {
        "checkpoints": 8,
        "last_acked_epoch": 8,
        "total_bytes": 502193089.9760217,
        "stats_digest": (
            "f4e1eddce4f52ae48ec4ce85e9a63b63295a03c9943f160798bf21778f0b0b16"
        ),
        "trace_digest": (
            "c7f86ef98536421a0fea820a07bf76f283af836867c8b64410447cc4dae791e6"
        ),
    },
    "here": {
        "checkpoints": 50,
        "last_acked_epoch": 50,
        "total_bytes": 646166570.1101519,
        "stats_digest": (
            "48883cf3da633ce06b7ca588a92d170de0a6acf520aec40a0551bbba67996755"
        ),
        "trace_digest": (
            "46c86c98d2faa305344b5ad12c4c58e59389fb0fb00492e502a5249dbe480c7a"
        ),
    },
    "here-compressed": {
        "checkpoints": 6,
        "last_acked_epoch": 6,
        "total_bytes": 176888227.061051,
        "stats_digest": (
            "1e0fac059c23aab890a29af76c039a5151ad701599523fec31fa56936252c409"
        ),
        "trace_digest": (
            "2244c09b71b8a4dff4aee2292564f746fef40cb61426ed9a851f60b8923b8842"
        ),
    },
}


class TestGoldenEquivalence:
    def test_remus_matches_pre_refactor_run(self):
        assert run_scenario("remus") == GOLDEN["remus"]

    def test_here_matches_pre_refactor_run(self):
        assert run_scenario("here") == GOLDEN["here"]

    def test_here_compressed_matches_pre_refactor_run(self):
        assert run_scenario("here-compressed") == GOLDEN["here-compressed"]


if __name__ == "__main__":
    import pprint

    pprint.pprint({kind: run_scenario(kind) for kind in GOLDEN})
