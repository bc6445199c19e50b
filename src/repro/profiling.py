"""Opt-in host-side profiling: where does the wall-clock go?

Everything in this repository is measured in *simulated* seconds; this
module is the one place that deliberately looks at the *host* clock.
It never touches the telemetry bus, so profiling a run cannot change
the work being measured.

:func:`profile_call` runs any callable under cProfile and returns its
result with the formatted top-N stats; ``repro profile <command>``
runs any other CLI command in it.  For host time split by layer, run
``python3 bench/run.py --trace 1``.

:func:`throughput` and :func:`throughput_line` turn (events, wall
seconds) pairs into the one-line ``steps/sec`` figures the CLI prints
after campaign runs and the perf smoke benchmark commits to
``BENCH_perf.json``.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Callable, Tuple


def profile_call(
    fn: Callable[[], Any],
    sort: str = "cumulative",
    limit: int = 25,
) -> Tuple[Any, str]:
    """Run ``fn()`` under cProfile; return ``(result, stats_text)``.

    ``sort`` is any :mod:`pstats` sort key (``cumulative``,
    ``tottime``, ...); ``limit`` caps the printed rows.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)
    return result, buffer.getvalue()


def throughput(events: float, wall_seconds: float) -> float:
    """Events per host second; 0.0 when the wall interval is empty."""
    if wall_seconds <= 0:
        return 0.0
    return events / wall_seconds


def throughput_line(events: float, wall_seconds: float) -> str:
    """The CLI's one-line throughput summary for a finished run."""
    rate = throughput(events, wall_seconds)
    return (
        f"throughput: {events:,.0f} sim-events in {wall_seconds:.2f}s "
        f"wall — {rate:,.0f} steps/sec"
    )
