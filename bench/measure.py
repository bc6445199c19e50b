"""One benchmark subprocess: raw samples for one workload, as JSON.

``bench/run.py`` starts this script in a fresh single-threaded
interpreter and turns what it prints into metrics.  Three modes:

* ``--setup``: time importing ``repro``, building the config and
  constructing the campaign object, once;
* default: one traced, untimed warm-up campaign, then ``--passes``
  untraced timed passes over ``--seeds``;
* ``--trace``: calibrate the tracer, a traced warm-up, then for each
  of ``--seeds``, ``--passes`` pairs of an untraced and a traced rep.

Every campaign is bracketed by reference-kernel timings; the last line
printed is one JSON object of samples.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from tracer import CALL, RESUME, SPAWN, Tracer
from workloads import WORKLOADS, fingerprint, sim_digest, use_checkout


def _setup(workload, seed: int) -> dict:
    start = time.perf_counter_ns()
    workload.campaign(seed)
    setup_ns = time.perf_counter_ns() - start
    from refkernel import time_reference

    return {"setup_ns": setup_ns, "ref_ns": min(time_reference() for _ in range(3))}


class Sampler:
    """Runs campaigns between reference-kernel timings."""

    def __init__(self, workload, tracer):
        from refkernel import time_reference

        self.workload = workload
        self.tracer = tracer
        self._time_reference = time_reference
        self._ref_ns = time_reference()
        self.reps = []

    def rep(self, seed: int, traced: bool) -> None:
        """Run one campaign and append its sample to :attr:`reps`."""
        sample = {"seed": seed, "traced": traced}
        try:
            if traced:
                self.tracer.reset()
                with self.tracer.installed():
                    result, wall_ns = self.tracer.measure(
                        lambda: self.workload.campaign(seed).run()
                    )
            else:
                start = time.perf_counter_ns()
                result = self.workload.campaign(seed).run()
                wall_ns = time.perf_counter_ns() - start
            sample["digest"] = sim_digest(fingerprint(result))
        except Exception:
            sample["error"] = traceback.format_exc()
            print(sample["error"], file=sys.stderr)
            wall_ns = 0
        after = self._time_reference()
        sample["wall_ns"] = wall_ns
        # The kernel right after a rep is also the one right before the
        # next; the faster of the two is the one a neighbour disturbed less.
        sample["ref_ns"] = min(self._ref_ns, after)
        self._ref_ns = after
        if traced and "error" not in sample:
            sample["layers"] = self._layers()
            # Opt-in features left off must not run at all.
            sample["off_layer_calls"] = {
                layer: own[CALL] + own[RESUME]
                for layer, (_, own, _) in sample["layers"]["raw"].items()
                if own[CALL] + own[RESUME] and self.workload.is_off(layer)
            }
        self.reps.append(sample)

    def _layers(self) -> dict:
        tracer = self.tracer
        instances = tracer.instances
        return {
            "raw": tracer.raw(),
            "events": tracer.events,
            "checkpoints": tracer.spawns("replication.pipeline.commit-release"),
            "retransmits": sum(
                t.retransmits for t in instances.get("CheckpointTransport", ())
            ),
            "records": sum(len(r) for r in instances.get("Recorder", ())),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True,
                        type=lambda text: [int(s) for s in text.split(",")])
    parser.add_argument("--passes", type=int, default=1)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    use_checkout()
    workload = WORKLOADS[args.workload]
    if args.setup:
        print(json.dumps(_setup(workload, args.seeds[0])))
        return 0

    tracer = Tracer()
    unit_cost = None
    if args.trace:
        from refkernel import time_reference

        before = time_reference()
        tracer.calibrate()
        ref_ns = min(before, time_reference())
        # In reference-kernel units, like every other host time.
        unit_cost = [
            [inner / ref_ns, outer / ref_ns]
            for inner, outer in (tracer.cost[kind] for kind in (CALL, RESUME, SPAWN))
        ]
    sampler = Sampler(workload, tracer)
    # Warm-up: absorbs lazy import-time set-up; traced, so every run
    # also checks the traced digest and the opt-in layers.
    sampler.rep(args.seeds[0], traced=True)
    warmup = sampler.reps.pop()
    if args.trace:
        # Untraced and traced reps of a seed side by side, so machine
        # drift between them does not read as tracer overhead.
        for seed in args.seeds:
            for _ in range(args.passes):
                sampler.rep(seed, traced=False)
                sampler.rep(seed, traced=True)
    else:
        for _ in range(args.passes):
            for seed in args.seeds:
                sampler.rep(seed, traced=False)
    print(json.dumps({
        "warmup": warmup,
        "reps": sampler.reps,
        "unit_cost": unit_cost,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
