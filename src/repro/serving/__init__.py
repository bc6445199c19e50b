"""User-visible serving: aggregate traffic, tail latency, SLO accounting.

The subsystem the roadmap's "millions of users" north star asks for —
an open-loop population served by every protected VM, measured as
p50/p99/p999 and SLO violations under checkpoint pauses, output-commit
buffering, degradation suspends, failover blackouts and microreboot
stalls.  It is a strictly opt-in **overlay**: arrivals and the
processor-sharing queue replay against telemetry the simulation
already emits, adding no events and no draws to any existing stream —
a campaign with serving disabled is bit-identical with or without this
package imported.

Layers:

* :mod:`~repro.serving.arrivals`  — batched Poisson / trace arrivals;
* :mod:`~repro.serving.queue`     — exact processor sharing under a
  piecewise capacity profile;
* :mod:`~repro.serving.timeline`  — bus telemetry -> per-VM capacity
  profile, egress events and replica windows;
* :mod:`~repro.serving.model`     — the overlay: hedging, SLOs, the
  mergeable latency histogram;
* :mod:`~repro.serving.study`     — the five-way strategy comparison
  (``repro serve``).
"""

from ..telemetry.histogram import LatencyHistogram, LatencySamples
from .arrivals import PoissonArrivals, TraceArrivals
from .model import (
    ServingConfig,
    ServingReport,
    overlay_report,
    serve_timeline,
)
from .queue import CapacitySegment, ps_complete, segments_from_windows
from .study import (
    STRATEGIES,
    ServingStudy,
    StrategyOutcome,
    StudyConfig,
    study_fingerprint,
)
from .timeline import ServiceTimeline

__all__ = [
    "CapacitySegment",
    "LatencyHistogram",
    "LatencySamples",
    "PoissonArrivals",
    "STRATEGIES",
    "ServiceTimeline",
    "ServingConfig",
    "ServingReport",
    "ServingStudy",
    "StrategyOutcome",
    "StudyConfig",
    "TraceArrivals",
    "overlay_report",
    "ps_complete",
    "segments_from_windows",
    "serve_timeline",
    "study_fingerprint",
]
