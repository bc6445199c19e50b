"""Outside-in per-layer host-time tracer.

The tracer times calls into each layer's public functions without
touching ``src/``: it replaces class attributes (or the module global a
caller resolves at call time) with timing wrappers, and uninstalls by
putting the original objects back.  Generator functions and process
bodies are wrapped in a :class:`GeneratorProxy` that times every
resumption, so a stage that yields to the calendar is charged only for
the host time it actually runs.

Self time is a span's duration minus the durations of the wrapped spans
it encloses, kept on a stack of (layer, child ns, start ns) entries.
The wrappers cost host time themselves; :meth:`Tracer.calibrate`
measures that cost per timed call, per proxied resumption and per
proxied spawn, split into the part a span records as its own self time
(inner) and the part its enclosing span absorbs (outer), and
:func:`calibrated_ns` subtracts both.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import types
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: Entry kinds: a timed plain call, a proxied generator resumption, and
#: the untimed creation of a proxied generator (its cost lands in the
#: enclosing span).
CALL, RESUME, SPAWN = 0, 1, 2

#: Checkpoint pipeline stages, by ``Stage.name``.
STAGES = (
    "pause", "capture-dirty", "compress", "transfer", "extract-state",
    "attest", "translate", "ship-state", "await-ack", "resume",
    "commit-release",
)

#: Layers a process body is attributed to, by the module that defines
#: the generator function (``repro.`` prefix dropped, longest match).
PROCESS_LAYERS = (
    "workloads", "replication.engine", "replication.heartbeat",
    "replication.failover", "replication.transport", "faults", "fleet",
    "integrity.scrub",
)

UNATTRIBUTED = "unattributed"

#: Every layer, in report order.
LAYERS = (
    ("simkernel", "simkernel.sharded")
    + PROCESS_LAYERS
    + tuple(f"replication.pipeline.{stage}" for stage in STAGES)
    + (
        "vm", "replication.translator", "hardware.link", "telemetry.bus",
        "telemetry.metrics", "telemetry.recorder", "integrity.digest",
        "integrity.repair", "serving.arrivals", "serving.queue",
        "serving.timeline", UNATTRIBUTED,
    )
)

#: ``(module, class or None for a module global, attributes, layer)``.
FUNCTION_TARGETS = (
    ("repro.simkernel.sharded", "ShardedSimulation", ("step_quantum",),
     "simkernel.sharded"),
    ("repro.vm.machine", "VirtualMachine", ("touch_spread",), "vm"),
    ("repro.replication.transport", "CheckpointTransport",
     ("chunk_rounds", "commit_epoch", "discard_epoch"),
     "replication.transport"),
    ("repro.replication.translator", "StateTranslator",
     ("parse", "build", "translate"), "replication.translator"),
    ("repro.hardware.link", "Link",
     ("transfer", "message", "draw_chunk_outcomes"), "hardware.link"),
    ("repro.telemetry.bus", "TelemetryBus", ("publish",), "telemetry.bus"),
    ("repro.telemetry.metrics", "MetricsAggregator", ("__call__",),
     "telemetry.metrics"),
    ("repro.telemetry.recorder", "Recorder",
     ("spans", "counters", "gauges", "counter_total", "children_of"),
     "telemetry.recorder"),
    # AttestStage imports attest_state from its module at call time;
    # the monitor bound semantic_root at import time.
    ("repro.integrity.digest", None, ("attest_state",), "integrity.digest"),
    ("repro.integrity.monitor", None, ("semantic_root",), "integrity.digest"),
    ("repro.integrity.repair", "IntegrityRepairController", ("repair",),
     "integrity.repair"),
    ("repro.integrity.monitor", "IntegrityMonitor", ("audit",),
     "integrity.repair"),
    ("repro.serving.arrivals", "PoissonArrivals", ("sample",),
     "serving.arrivals"),
    ("repro.serving.arrivals", "TraceArrivals", ("sample",),
     "serving.arrivals"),
    ("repro.serving.model", None, ("ps_complete",), "serving.queue"),
    ("repro.serving.timeline", "ServiceTimeline",
     ("from_recorder", "deliver"), "serving.timeline"),
    ("repro.fleet.queue", "ReprotectionQueue", ("push", "drain"), "fleet"),
    ("repro.fleet.orchestrator", "FleetOrchestrator", ("observe",), "fleet"),
)


class LayerStat:
    """Raw accumulators of one layer."""

    __slots__ = ("self_ns", "own", "child")

    def __init__(self):
        self.self_ns = 0
        #: Entries of this layer, by kind.
        self.own = [0, 0, 0]
        #: Entries of wrapped layers directly enclosed by this one.
        self.child = [0, 0, 0]

    @property
    def calls(self) -> int:
        return self.own[CALL] + self.own[RESUME]


class GeneratorProxy:
    """A generator stand-in that times each resumption of ``generator``.

    It forwards ``send``/``throw``/``close``, iteration and ``__name__``,
    and lets ``StopIteration`` (with the return value) propagate, so it
    works under ``yield from`` and as a simulation process body.
    """

    __slots__ = (
        "_generator", "_stat", "_tracer", "_layers", "_children", "_starts",
        "_clock",
    )

    def __init__(self, generator, tracer: "Tracer", stat: LayerStat):
        self._generator = generator
        self._stat = stat
        self._tracer = tracer
        self._layers = tracer._layers
        self._children = tracer._children
        self._starts = tracer._starts
        self._clock = tracer._clock

    @property
    def __name__(self):
        return self._generator.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        # Tracer._enter/_leave inlined: this is the hottest wrapper.
        stat, layers, children, starts = (
            self._stat, self._layers, self._children, self._starts,
        )
        layers.append(stat)
        children.append(0)
        starts.append(self._clock())
        try:
            return self._generator.send(value)
        finally:
            span = self._clock() - starts.pop()
            layers.pop()
            stat.self_ns += span - children.pop()
            stat.own[1] += 1  # RESUME
            children[-1] += span
            layers[-1].child[1] += 1

    def throw(self, *args):
        self._tracer._enter(self._stat)
        try:
            return self._generator.throw(*args)
        finally:
            self._tracer._leave(RESUME)

    def close(self):
        self._generator.close()


def process_layer(generator) -> str:
    """The layer a process body belongs to, from its defining module."""
    frame = getattr(generator, "gi_frame", None)
    module = frame.f_globals.get("__name__", "") if frame is not None else ""
    if module.startswith("repro."):
        module = module[len("repro."):]
    while module:
        if module in PROCESS_LAYERS:
            return module
        module = module.rpartition(".")[0]
    return UNATTRIBUTED


class Tracer:
    """Per-layer self time and entry counts for one process.

    ``clock`` is any ``() -> int`` nanosecond counter, injectable so
    tests can drive the self-time arithmetic deterministically.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        # The span stack as three parallel lists, so entering a span
        # allocates no container the garbage collector would track.
        self._layers: List[LayerStat] = []
        self._children: List[int] = []
        self._starts: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        #: Per-entry cost in ns: ``{kind: (inner, outer)}``; zero until
        #: :meth:`calibrate` runs.
        self.cost: Dict[int, Tuple[float, float]] = {
            CALL: (0.0, 0.0), RESUME: (0.0, 0.0), SPAWN: (0.0, 0.0),
        }
        self.stats: Dict[str, LayerStat] = {}
        self.reset()

    # -- accumulation ---------------------------------------------------------
    def reset(self) -> None:
        """Forget everything measured so far (patches stay installed).

        Installed wrappers hold their :class:`LayerStat` objects, so the
        stats are zeroed in place rather than replaced.
        """
        for stat in self.stats.values():
            stat.__init__()
        #: Calendar events processed inside wrapped ``Simulation.run``s.
        self.events = 0
        #: Instances created while installed, by class name.
        self.instances: Dict[str, list] = {}

    def stat(self, layer: str) -> LayerStat:
        stat = self.stats.get(layer)
        if stat is None:
            stat = self.stats[layer] = LayerStat()
        return stat

    def _enter(self, stat: LayerStat) -> None:
        self._layers.append(stat)
        self._children.append(0)
        self._starts.append(self._clock())

    def _leave(self, kind: int) -> None:
        now = self._clock()
        span = now - self._starts.pop()
        stat = self._layers.pop()
        stat.self_ns += span - self._children.pop()
        stat.own[kind] += 1
        self._children[-1] += span
        self._layers[-1].child[kind] += 1

    def _spawned(self, stat: LayerStat) -> None:
        stat.own[SPAWN] += 1
        self._layers[-1].child[SPAWN] += 1

    def measure(self, fn: Callable[[], object]):
        """Run ``fn()`` as the root span; returns ``(result, wall_ns)``.

        Host time inside the root but outside every wrapped span is
        charged to :data:`UNATTRIBUTED`.
        """
        self._enter(self.stat(UNATTRIBUTED))
        start = self._starts[-1]
        try:
            result = fn()
        finally:
            now = self._clock()
            self._starts.pop()
            stat = self._layers.pop()
            stat.self_ns += now - start - self._children.pop()
        return result, now - start

    # -- wrappers -------------------------------------------------------------
    def _timed(self, func, layer: str):
        stat, clock = self.stat(layer), self._clock
        layers, children, starts = self._layers, self._children, self._starts

        @functools.wraps(func)
        def timed(*args, **kwargs):
            # _enter/_leave inlined, as in GeneratorProxy.send.
            layers.append(stat)
            children.append(0)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                span = clock() - starts.pop()
                layers.pop()
                stat.self_ns += span - children.pop()
                stat.own[0] += 1  # CALL
                children[-1] += span
                layers[-1].child[0] += 1

        return timed

    def _proxied(self, func, layer: str):
        stat = self.stat(layer)

        @functools.wraps(func)
        def proxied(*args, **kwargs):
            self._spawned(stat)
            return GeneratorProxy(func(*args, **kwargs), self, stat)

        return proxied

    def _wrap(self, func, layer: str):
        if inspect.isgeneratorfunction(func):
            return self._proxied(func, layer)
        return self._timed(func, layer)

    def _kernel_run(self, func):
        """``Simulation.run``-style wrapper that also counts events."""
        stat, enter, leave = self.stat("simkernel"), self._enter, self._leave

        @functools.wraps(func)
        def run(sim, *args, **kwargs):
            before = sim.events_processed
            enter(stat)
            try:
                return func(sim, *args, **kwargs)
            finally:
                leave(CALL)
                self.events += sim.events_processed - before

        return run

    def _process(self, func):
        """``Simulation.process`` wrapper proxying the body by module."""

        @functools.wraps(func)
        def process(sim, generator, *args, **kwargs):
            if not isinstance(generator, GeneratorProxy):
                stat = self.stat(process_layer(generator))
                self._spawned(stat)
                generator = GeneratorProxy(generator, self, stat)
            return func(sim, generator, *args, **kwargs)

        return process

    def _collect(self, func, bucket: str):
        """``__init__`` wrapper remembering every instance created."""

        @functools.wraps(func)
        def __init__(obj, *args, **kwargs):
            func(obj, *args, **kwargs)
            self.instances.setdefault(bucket, []).append(obj)

        return __init__

    # -- installation ---------------------------------------------------------
    def _patch(self, owner, name: str, factory) -> None:
        original = owner.__dict__[name]
        if isinstance(original, (classmethod, staticmethod)):
            patched = type(original)(factory(original.__func__))
        else:
            patched = factory(original)
        self._saved.append((owner, name, original))
        setattr(owner, name, patched)

    def install(self) -> None:
        """Patch every layer boundary listed in this module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        from repro.replication import pipeline
        from repro.replication.transport import CheckpointTransport
        from repro.simkernel.core import Simulation
        from repro.telemetry.recorder import Recorder

        try:
            self._patch(Simulation, "run", self._kernel_run)
            self._patch(Simulation, "run_until_triggered", self._kernel_run)
            self._patch(Simulation, "process", self._process)
            for module_name, owner_name, names, layer in FUNCTION_TARGETS:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(
                    module, owner_name
                )
                for name in names:
                    self._patch(
                        owner, name,
                        functools.partial(self._wrap, layer=layer),
                    )
            for stage in vars(pipeline).values():
                if (
                    isinstance(stage, type)
                    and issubclass(stage, pipeline.Stage)
                    and stage is not pipeline.Stage
                    and "run" in stage.__dict__
                ):
                    self._patch(
                        stage, "run",
                        functools.partial(
                            self._wrap,
                            layer=f"replication.pipeline.{stage.name}",
                        ),
                    )
            for cls in (Recorder, CheckpointTransport):
                self._patch(
                    cls, "__init__",
                    functools.partial(self._collect, bucket=cls.__name__),
                )
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every patched attribute back, by identity."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every installed patch."""
        return list(self._saved)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- calibration ------------------------------------------------------------
    def calibrate(self, entries: int = 20_000, rounds: int = 5) -> None:
        """Measure the tracer's own cost per entry kind (median of rounds)."""
        samples = {CALL: [], RESUME: [], SPAWN: []}
        for _ in range(rounds):
            for kind, pair in self._calibration_round(entries).items():
                samples[kind].append(pair)
        self.cost = {
            kind: (
                statistics.median(inner for inner, _ in pairs),
                statistics.median(outer for _, outer in pairs),
            )
            for kind, pairs in samples.items()
        }

    def _calibration_round(self, n: int) -> Dict[int, Tuple[float, float]]:
        """One round: the same loop bare and traced, per entry kind.

        The shapes are the common ones in the simulator: a method call
        with one argument, a ``send`` into a suspended generator, and a
        method call that creates a generator.
        """
        clock = self._clock
        probe = Tracer(clock)
        stat = probe.stat("calibration")

        class Target:
            def call(self, value):
                return value

            def spawn(self, value):
                yield value

        def body():
            value = None
            while True:
                value = yield value

        def timed_loop(call) -> int:
            start = clock()
            for value in range(n):
                call(value)
            return clock() - start

        def loop(call) -> int:
            # A fresh copy of the loop's code object per measurement:
            # the interpreter specialises each call site for the callee
            # it sees, and a site warmed on the bare callee would make
            # the traced one look slower (or faster) than it is.
            fresh = types.FunctionType(
                timed_loop.__code__.replace(), timed_loop.__globals__,
                closure=timed_loop.__closure__,
            )
            return fresh(call)

        def traced(call) -> Tuple[int, int]:
            stat.self_ns = 0
            _, wall = probe.measure(lambda: loop(call))
            return wall, stat.self_ns

        target = Target()
        result = {}
        bare = loop(target.call)
        Target.call = probe._timed(Target.call, "calibration")
        result[CALL] = self._split(*traced(target.call), bare, n)

        generator = body()
        next(generator)
        bare = loop(generator.send)
        proxy = GeneratorProxy(body(), probe, stat)
        proxy._generator.send(None)
        result[RESUME] = self._split(*traced(proxy.send), bare, n)

        bare = loop(target.spawn)
        Target.spawn = probe._proxied(Target.spawn, "calibration")
        wall, _ = traced(target.spawn)
        result[SPAWN] = (0.0, max(0.0, (wall - bare) / n))
        return result

    @staticmethod
    def _split(wall: int, inner: int, bare: int, n: int):
        total = max(0.0, (wall - bare) / n)
        own = min(total, max(0.0, (inner - bare) / n))
        return own, total - own

    # -- report -----------------------------------------------------------------
    def raw(self) -> Dict[str, Tuple[int, List[int], List[int]]]:
        """``{layer: (self ns, own entries, child entries)}``, every layer."""
        report = {}
        for layer in LAYERS:
            stat = self.stats.get(layer) or LayerStat()
            report[layer] = (stat.self_ns, list(stat.own), list(stat.child))
        return report

    def layer_report(self) -> Dict[str, Tuple[float, int]]:
        """``{layer: (calibrated self ns, calls)}`` under :attr:`cost`."""
        return {
            layer: (calibrated_ns(row, self.cost), row[1][CALL] + row[1][RESUME])
            for layer, row in self.raw().items()
        }

    def spawns(self, layer: str) -> int:
        """How many proxied generators ``layer`` created."""
        stat = self.stats.get(layer)
        return stat.own[SPAWN] if stat is not None else 0


def calibrated_ns(row, cost) -> float:
    """A :meth:`Tracer.raw` row's self time minus the tracer's own cost.

    ``cost[kind]`` is ``(inner, outer)``: a layer pays the inner cost of
    its own entries and the outer cost of its direct children's.
    """
    self_ns, own, child = row
    return self_ns - sum(
        own[kind] * cost[kind][0] + child[kind] * cost[kind][1]
        for kind in (CALL, RESUME, SPAWN)
    )
