"""Open-loop arrival processes at millions-of-users scale.

The population is parameterized as ``users × req/s/user`` but sampled
in the **aggregate**: a Poisson process with rate ``users * rate``
draws one batch count for the whole window and spreads it with one
sorted-uniform draw, so a million users cost the same as ten — there
are no per-user objects anywhere (this is the "arrival batching" the
roadmap calls for).  Trace-driven arrivals replay recorded per-tick
request counts the same way: one uniform spread per tick.

All randomness flows through a caller-supplied
``numpy.random.Generator``, seeded from the simulation's derived-seed
tree, so the same seed reproduces the same arrival vector bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class PoissonArrivals:
    """A homogeneous Poisson arrival process of ``users`` open-loop users."""

    users: int
    rate_per_user: float

    def __post_init__(self):
        if self.users < 1:
            raise ValueError(f"need at least one user: {self.users}")
        if self.rate_per_user <= 0:
            raise ValueError(
                f"per-user request rate must be positive: {self.rate_per_user}"
            )

    @property
    def aggregate_rate(self) -> float:
        """Total request rate in req/s across the population."""
        return self.users * self.rate_per_user

    def scaled(self, fraction: float) -> "PoissonArrivals":
        """The same process carrying ``fraction`` of the population.

        Used to split one population across the VMs of a trial (or the
        shards of a fleet): thinning a Poisson process is a Poisson
        process.  At least one user always remains.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1]: {fraction}")
        return PoissonArrivals(
            users=max(1, round(self.users * fraction)),
            rate_per_user=self.rate_per_user,
        )

    def sample(
        self, start: float, end: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sorted arrival times over ``[start, end)`` — one batch draw."""
        if end <= start:
            raise ValueError(f"empty arrival window: [{start}, {end})")
        count = int(rng.poisson(self.aggregate_rate * (end - start)))
        times = start + rng.random(count) * (end - start)
        times.sort()
        return times


@dataclass(frozen=True)
class TraceArrivals:
    """Trace-driven arrivals: recorded request counts per fixed tick.

    ``counts[i]`` requests land uniformly inside tick ``i`` (width
    ``tick``, offset from the window start).  The trace loops if the
    serving window outlasts it.
    """

    counts: Tuple[int, ...]
    tick: float = 1.0

    def __post_init__(self):
        if not self.counts:
            raise ValueError("an arrival trace needs at least one tick")
        if any(count < 0 for count in self.counts):
            raise ValueError("trace counts must be >= 0")
        if self.tick <= 0:
            raise ValueError(f"tick width must be positive: {self.tick}")

    @property
    def aggregate_rate(self) -> float:
        """Mean request rate over one pass of the trace."""
        return sum(self.counts) / (len(self.counts) * self.tick)

    def scaled(self, fraction: float) -> "TraceArrivals":
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1]: {fraction}")
        return TraceArrivals(
            counts=tuple(
                int(round(count * fraction)) for count in self.counts
            ),
            tick=self.tick,
        )

    def sample(
        self, start: float, end: float, rng: np.random.Generator
    ) -> np.ndarray:
        if end <= start:
            raise ValueError(f"empty arrival window: [{start}, {end})")
        ticks = len(self.counts)
        chunks = []
        index = 0
        tick_start = start
        while tick_start < end:
            tick_end = min(tick_start + self.tick, end)
            count = self.counts[index % ticks]
            # Partial final tick: thin the count proportionally.
            if tick_end - tick_start < self.tick:
                count = int(
                    rng.binomial(count, (tick_end - tick_start) / self.tick)
                )
            if count:
                times = tick_start + rng.random(count) * (
                    tick_end - tick_start
                )
                times.sort()
                chunks.append(times)
            index += 1
            tick_start += self.tick
        if not chunks:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(chunks)

