"""Parallel sweep execution with crash isolation and caching.

:class:`SweepRunner` executes a list of
:class:`~repro.experiments.spec.ExperimentSpec` trials:

* **cache first** — trials whose fingerprint is already in the
  :class:`~repro.experiments.store.ResultStore` are reused, not rerun;
* **serial or parallel** — ``jobs=1`` runs in-process; ``jobs>1``
  spawns one worker *process per trial* (at most ``jobs`` live at a
  time), so a dying worker fails exactly one trial, never the sweep;
* **deterministic** — each trial's randomness comes from the seed in
  its spec, so execution order and parallelism cannot change results:
  the sweep's :meth:`SweepResult.aggregate_fingerprint` is identical
  for ``jobs=1`` and ``jobs=N``;
* **bounded** — per-trial wall-clock timeout; crashed or timed-out
  attempts are retried up to ``spec.retries`` times, then recorded as
  a failed outcome (deterministic in-trial exceptions are never
  retried — the same code on the same seed would fail the same way).

Per-process (not per-sweep) workers cost a fork each, but keep the
failure domain one trial wide and make the timeout kill surgical.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .registry import resolve_trial
from .spec import ExperimentSpec, fingerprint_of
from .store import ResultStore, SweepLog

#: How often the scheduler scans live workers for results/deaths.
_POLL_INTERVAL = 0.01


def _normalize_result(result: Any) -> Tuple[Dict[str, Any], List[dict]]:
    """Split a runner's return into (metrics, telemetry rows)."""
    if isinstance(result, tuple) and len(result) == 2:
        metrics, telemetry = result
        return dict(metrics), list(telemetry)
    if isinstance(result, dict):
        return dict(result), []
    raise TypeError(
        f"trial runner must return a metrics dict or (metrics, telemetry); "
        f"got {type(result).__name__}"
    )


def _execute_trial(spec_payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one trial attempt; shared by inline and worker execution."""
    started = time.perf_counter()
    try:
        runner = resolve_trial(spec_payload["kind"])
        params = dict(spec_payload["params"])
        params.setdefault("seed", spec_payload["seed"])
        metrics, telemetry = _normalize_result(runner(params))
    except Exception as error:
        # The formatted traceback travels with the failure record:
        # worker processes die with the exception, so this string is
        # the only surviving evidence of *where* the trial blew up.
        return {
            "status": "failed",
            "error": f"{type(error).__name__}: {error}",
            "traceback": traceback.format_exc(),
            "wall_clock": time.perf_counter() - started,
        }
    return {
        "status": "ok",
        "metrics": metrics,
        "telemetry": telemetry,
        "wall_clock": time.perf_counter() - started,
    }


def _trial_worker(spec_payload: Dict[str, Any], conn) -> None:
    """Subprocess entry point: run one trial, ship the result back."""
    try:
        result = _execute_trial(spec_payload)
        conn.send(result)
    except BaseException as error:  # the pipe itself failed — report raw
        try:
            conn.send({
                "status": "failed",
                "error": f"{type(error).__name__}: {error}",
                "traceback": traceback.format_exc(),
                "wall_clock": 0.0,
            })
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class TrialOutcome:
    """What happened to one spec in one sweep."""

    spec: ExperimentSpec
    fingerprint: str
    #: "ok" | "failed" (exception or dead worker) | "timeout"
    status: str
    metrics: Dict[str, Any] = field(default_factory=dict)
    telemetry: List[dict] = field(default_factory=list)
    error: Optional[str] = None
    #: The trial's formatted traceback, when it failed with an
    #: exception (None for dead workers and timeouts — there is no
    #: Python frame to report).
    traceback: Optional[str] = None
    #: Seconds the trial itself took (original run for cached results).
    wall_clock: float = 0.0
    cached: bool = False
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record(self) -> Dict[str, Any]:
        """The JSONL sweep-log entry for this outcome."""
        return {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "cached": self.cached,
            "attempts": self.attempts,
            "wall_clock_s": self.wall_clock,
            "error": self.error,
            "traceback": self.traceback,
            "metrics": self.metrics,
            "telemetry": self.telemetry,
        }


def _flatten_metrics(metrics: Dict[str, Any], prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a (possibly nested) metrics dict, dotted keys."""
    flat: Dict[str, float] = {}
    for key, value in metrics.items():
        name = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            flat[name] = float(value)
        elif isinstance(value, dict):
            flat.update(_flatten_metrics(value, prefix=f"{name}."))
    return flat


@dataclass
class SweepResult:
    """All outcomes of one sweep, in spec order, plus aggregates."""

    outcomes: List[TrialOutcome]
    jobs: int = 1
    #: Wall-clock of the whole sweep (cache lookups included).
    wall_clock: float = 0.0

    @property
    def ok_outcomes(self) -> List[TrialOutcome]:
        return [outcome for outcome in self.outcomes if outcome.ok]

    @property
    def failed_outcomes(self) -> List[TrialOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def cache_misses(self) -> int:
        return len(self.outcomes) - self.cache_hits

    @property
    def serial_estimate(self) -> float:
        """Estimated serial wall-clock: the sum of per-trial clocks."""
        return sum(outcome.wall_clock for outcome in self.outcomes)

    @property
    def speedup(self) -> float:
        """Serial estimate over actual sweep wall-clock.

        Only meaningful when most trials actually executed; with a
        warm cache the sweep barely runs anything and the ratio
        reflects cache throughput, not parallelism.
        """
        if self.wall_clock <= 0:
            return float("nan")
        return self.serial_estimate / self.wall_clock

    def aggregate_fingerprint(self) -> str:
        """Content fingerprint of the whole sweep's results.

        Sorted by trial fingerprint so scheduling order, parallelism
        and cache state cannot change it: the serial-vs-parallel
        equality contract is ``jobs=1`` and ``jobs=N`` producing a
        byte-identical digest on the same specs.
        """
        entries = sorted(
            (
                {
                    "fingerprint": outcome.fingerprint,
                    "status": outcome.status,
                    "metrics": outcome.metrics if outcome.ok else None,
                }
                for outcome in self.outcomes
            ),
            key=lambda entry: entry["fingerprint"],
        )
        return fingerprint_of(entries)

    def metric_summary(self) -> Dict[str, float]:
        """Mean of every numeric metric over successful trials."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for outcome in self.ok_outcomes:
            for name, value in _flatten_metrics(outcome.metrics).items():
                sums[name] = sums.get(name, 0.0) + value
                counts[name] = counts.get(name, 0) + 1
        return {name: sums[name] / counts[name] for name in sorted(sums)}

    def to_bench(self, name: str = "sweep") -> Dict[str, Any]:
        """The ``BENCH_sweep.json`` payload."""
        return {
            "sweep": name,
            "jobs": self.jobs,
            "trials_total": len(self.outcomes),
            "trials_ok": len(self.ok_outcomes),
            "trials_failed": len(self.failed_outcomes),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "aggregate_fingerprint": self.aggregate_fingerprint(),
            "wall_clock_s": self.wall_clock,
            "serial_estimate_s": self.serial_estimate,
            "speedup": self.speedup,
            "metrics": self.metric_summary(),
            "trials": [
                {
                    "name": outcome.spec.name,
                    "fingerprint": outcome.fingerprint,
                    "status": outcome.status,
                    "cached": outcome.cached,
                    "attempts": outcome.attempts,
                    "wall_clock_s": outcome.wall_clock,
                    "error": outcome.error,
                }
                for outcome in self.outcomes
            ],
        }

    def summary_rows(self) -> List[dict]:
        return [
            {"metric": "trials", "value": len(self.outcomes)},
            {"metric": "ok / failed",
             "value": f"{len(self.ok_outcomes)}/{len(self.failed_outcomes)}"},
            {"metric": "cache hits / misses",
             "value": f"{self.cache_hits}/{self.cache_misses}"},
            {"metric": "jobs", "value": self.jobs},
            {"metric": "sweep wall-clock (s)", "value": self.wall_clock},
            {"metric": "serial estimate (s)", "value": self.serial_estimate},
            {"metric": "speedup", "value": self.speedup},
            {"metric": "aggregate fingerprint",
             "value": self.aggregate_fingerprint()[:16]},
        ]


class _LiveAttempt:
    """Bookkeeping for one in-flight worker process."""

    __slots__ = ("process", "conn", "started", "deadline", "attempts")

    def __init__(self, process, conn, started, deadline, attempts):
        self.process = process
        self.conn = conn
        self.started = started
        self.deadline = deadline
        self.attempts = attempts


class SweepRunner:
    """Executes a trial matrix against the cache and a worker pool."""

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        use_cache: bool = True,
        log: Optional[SweepLog] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self.store = store
        self.use_cache = use_cache and store is not None
        self.log = log
        methods = multiprocessing.get_all_start_methods()
        # fork keeps in-memory registrations (tests, notebooks) visible
        # to workers; fall back to the platform default elsewhere.
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    # -- public API ---------------------------------------------------------
    def run(self, specs: Sequence[ExperimentSpec]) -> SweepResult:
        started = time.perf_counter()
        outcomes: List[Optional[TrialOutcome]] = [None] * len(specs)

        to_run: List[int] = []
        for index, spec in enumerate(specs):
            fingerprint = spec.fingerprint()
            cached = self.store.load(fingerprint) if self.use_cache else None
            if cached is not None:
                outcomes[index] = TrialOutcome(
                    spec=spec,
                    fingerprint=fingerprint,
                    status="ok",
                    metrics=cached.get("metrics", {}),
                    telemetry=cached.get("telemetry", []),
                    wall_clock=cached.get("wall_clock", 0.0),
                    cached=True,
                    attempts=0,
                )
            else:
                to_run.append(index)

        if self.jobs == 1:
            for index in to_run:
                outcomes[index] = self._run_inline(specs[index])
        elif to_run:
            self._run_pool(specs, to_run, outcomes)

        result = SweepResult(
            outcomes=[outcome for outcome in outcomes if outcome is not None],
            jobs=self.jobs,
            wall_clock=time.perf_counter() - started,
        )
        for outcome in result.outcomes:
            if outcome.ok and not outcome.cached and self.store is not None:
                self.store.save(outcome.fingerprint, {
                    "fingerprint": outcome.fingerprint,
                    "spec": outcome.spec.canonical(),
                    "name": outcome.spec.name,
                    "status": "ok",
                    "metrics": outcome.metrics,
                    "telemetry": outcome.telemetry,
                    "wall_clock": outcome.wall_clock,
                })
            if self.log is not None:
                self.log.append(outcome.record())
        return result

    # -- serial path --------------------------------------------------------
    def _run_inline(self, spec: ExperimentSpec) -> TrialOutcome:
        payload = self._payload(spec)
        result = _execute_trial(payload)
        return self._outcome_from_result(spec, result, attempts=1)

    # -- parallel path ------------------------------------------------------
    def _run_pool(
        self,
        specs: Sequence[ExperimentSpec],
        to_run: List[int],
        outcomes: List[Optional[TrialOutcome]],
    ) -> None:
        pending = deque(to_run)
        attempts: Dict[int, int] = {index: 0 for index in to_run}
        live: Dict[int, _LiveAttempt] = {}

        while pending or live:
            while pending and len(live) < self.jobs:
                index = pending.popleft()
                attempts[index] += 1
                live[index] = self._spawn(specs[index], attempts[index])

            finished: List[int] = []
            for index, attempt in live.items():
                spec = specs[index]
                now = time.perf_counter()
                if attempt.conn.poll():
                    try:
                        result = attempt.conn.recv()
                    except (EOFError, OSError):
                        result = None
                    attempt.process.join()
                    attempt.conn.close()
                    finished.append(index)
                    if result is None:
                        self._record_or_retry(
                            spec, index, attempt, "failed",
                            now - attempt.started, pending, outcomes,
                        )
                    else:
                        outcomes[index] = self._outcome_from_result(
                            spec, result, attempts=attempt.attempts
                        )
                elif not attempt.process.is_alive():
                    attempt.process.join()
                    attempt.conn.close()
                    finished.append(index)
                    self._record_or_retry(
                        spec, index, attempt, "failed",
                        now - attempt.started, pending, outcomes,
                    )
                elif attempt.deadline is not None and now > attempt.deadline:
                    attempt.process.terminate()
                    attempt.process.join()
                    attempt.conn.close()
                    finished.append(index)
                    self._record_or_retry(
                        spec, index, attempt, "timeout",
                        now - attempt.started, pending, outcomes,
                    )
            for index in finished:
                del live[index]
            if live and not finished:
                time.sleep(_POLL_INTERVAL)

    def _spawn(self, spec: ExperimentSpec, attempt_number: int) -> _LiveAttempt:
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_trial_worker,
            args=(self._payload(spec), child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        started = time.perf_counter()
        deadline = started + spec.timeout if spec.timeout is not None else None
        return _LiveAttempt(process, parent_conn, started, deadline, attempt_number)

    def _record_or_retry(
        self, spec, index, attempt, status, elapsed, pending, outcomes
    ) -> None:
        """Requeue a crashed/timed-out trial or record its failure."""
        if attempt.attempts <= spec.retries:
            pending.append(index)
            return
        word = "timed out" if status == "timeout" else "crashed"
        outcomes[index] = TrialOutcome(
            spec=spec,
            fingerprint=spec.fingerprint(),
            status=status,
            error=f"worker {word} after {attempt.attempts} attempt(s)",
            wall_clock=elapsed,
            attempts=attempt.attempts,
        )

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _payload(spec: ExperimentSpec) -> Dict[str, Any]:
        return {"kind": spec.kind, "params": dict(spec.params), "seed": spec.seed}

    @staticmethod
    def _outcome_from_result(
        spec: ExperimentSpec, result: Dict[str, Any], attempts: int
    ) -> TrialOutcome:
        if result.get("status") == "ok":
            return TrialOutcome(
                spec=spec,
                fingerprint=spec.fingerprint(),
                status="ok",
                metrics=result.get("metrics", {}),
                telemetry=result.get("telemetry", []),
                wall_clock=result.get("wall_clock", 0.0),
                attempts=attempts,
            )
        return TrialOutcome(
            spec=spec,
            fingerprint=spec.fingerprint(),
            status="failed",
            error=result.get("error"),
            traceback=result.get("traceback"),
            wall_clock=result.get("wall_clock", 0.0),
            attempts=attempts,
        )
