"""Adaptive phi-accrual failure detection.

A drop-in alternative to the fixed-threshold
:class:`~repro.replication.heartbeat.HeartbeatMonitor` (Hayashibara et
al., "The phi accrual failure detector", SRDS 2004): instead of
counting consecutive missed probes, the detector models the
inter-arrival time of *successful* probes as a normal distribution and
declares failure when the suspicion level

    phi(t) = -log10( P(a probe would arrive later than t) )

crosses a threshold.  On a quiet link phi grows quickly after the mean
inter-arrival time, so detection adapts to the observed probe rhythm
rather than a hand-tuned miss count; a noisy (degraded) link widens
the learned distribution and automatically becomes more tolerant.

The detector is a suspicion rule, not a second prober: it subclasses
``HeartbeatMonitor`` and so shares its one probe loop, lifecycle,
attack path, failure reasons and ``heartbeat.*`` records.  It
overrides only the verdict on each resolved probe and
``detection_latency_bound``, so
:class:`~repro.replication.failover.FailoverController` accepts either.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Optional, Tuple

from ..hardware.host import Host
from ..hardware.link import LinkPair
from ..hypervisor.base import Hypervisor
from ..replication.heartbeat import Evidence, HeartbeatMonitor

_SQRT2 = math.sqrt(2.0)


def phi_from_normal(elapsed: float, mean: float, std: float) -> float:
    """Suspicion level for ``elapsed`` under Normal(mean, std).

    ``P_later = 1 - CDF(elapsed) = 0.5 * erfc((elapsed - mean) / (std * sqrt(2)))``
    and ``phi = -log10(P_later)``, capped to stay finite when erfc
    underflows to zero.
    """
    p_later = 0.5 * math.erfc((elapsed - mean) / (std * _SQRT2))
    if p_later <= 0.0:
        return float("inf")
    return -math.log10(p_later)


class PhiAccrualDetector(HeartbeatMonitor):
    """Secondary-side adaptive prober of the primary host/hypervisor.

    The miss-counter attributes it inherits (``miss_threshold``,
    ``degraded_miss_threshold``, ``loss_signal``, ``consecutive_misses``,
    ``degraded_probes``) do not apply: this rule never reads or updates
    them, so they keep their defaults.
    """

    _failure_event_name = "phi-failure"
    _process_name = "phi-detector"

    def __init__(
        self,
        sim,
        primary_host: Host,
        primary_hypervisor: Hypervisor,
        link: LinkPair,
        interval: float = 0.03,
        threshold: float = 8.0,
        window: int = 32,
        probe_timeout: Optional[float] = None,
        min_std: Optional[float] = None,
    ):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive: {threshold}")
        if window < 2:
            raise ValueError(f"window must hold >= 2 samples: {window}")
        super().__init__(
            sim,
            primary_host,
            primary_hypervisor,
            link,
            interval=interval,
            probe_timeout=probe_timeout,
        )
        self.threshold = threshold
        #: Floor on the learned std — a perfectly regular simulated
        #: rhythm would otherwise collapse the distribution and make
        #: phi explode on the first microsecond of jitter.
        self.min_std = min_std if min_std is not None else interval * 0.1
        self._samples: deque = deque(maxlen=window)

    # -- the distribution ---------------------------------------------------
    def _distribution(self) -> Tuple[float, float]:
        """``(mean, std)`` of the window, in one pass for each."""
        samples = self._samples
        if not samples:
            # No history yet: assume the configured rhythm.
            return self.interval + self.link.round_trip_latency(), self.min_std
        mean = sum(samples) / len(samples)
        if len(samples) < 2:
            return mean, self.min_std
        variance = sum((s - mean) ** 2 for s in samples) / len(samples)
        return mean, max(math.sqrt(variance), self.min_std)

    @property
    def mean(self) -> float:
        return self._distribution()[0]

    @property
    def std(self) -> float:
        return self._distribution()[1]

    def phi(self, elapsed: float) -> float:
        """Current suspicion level for a silence of ``elapsed`` seconds."""
        return phi_from_normal(elapsed, *self._distribution())

    @property
    def detection_latency_bound(self) -> float:
        """Worst-case failure-to-detection time under the *current*
        distribution: the silence at which phi crosses the threshold,
        plus one full probe cycle (suspicion is only evaluated when a
        probe resolves) and the probe timeout."""
        silence = self._silence_for_threshold()
        return silence + self.interval + self.probe_timeout

    def _silence_for_threshold(self) -> float:
        """Smallest silence with ``phi(silence) >= threshold`` (bisection
        on the monotone phi curve)."""
        mean, std = self._distribution()
        low = mean
        high = mean + std
        while phi_from_normal(high, mean, std) < self.threshold:
            high += std * 2
        for _ in range(60):
            mid = (low + high) / 2
            if phi_from_normal(mid, mean, std) >= self.threshold:
                high = mid
            else:
                low = mid
        return high

    # -- the suspicion rule -------------------------------------------------
    @property
    def _probe_attrs(self) -> Dict[str, float]:
        """Each probe record carries the suspicion level before the
        verdict (an answer's silence joins the window only after)."""
        return {"phi": round(self.phi(self.sim.now - self.last_success_at), 3)}

    def _verdict(self, alive: bool) -> Optional[Evidence]:
        """Learn an answered probe's silence; suspect an unanswered one
        once phi reaches the threshold."""
        now = self.sim.now
        elapsed = now - self.last_success_at
        if alive:
            self._samples.append(elapsed)
            self.last_success_at = now
            return None
        suspicion = self.phi(elapsed)
        if suspicion < self.threshold:
            return None
        return f" (phi={suspicion:.1f})", {"phi": round(suspicion, 3)}
