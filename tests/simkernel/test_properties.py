"""Property-based tests of kernel invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import (
    Simulation,
    ZipfianGenerator,
    largest_remainder_allocation,
)

import random


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=200, deadline=None)
def test_events_always_processed_in_time_order(delays):
    """The calendar never goes backwards, whatever the schedule."""
    sim = Simulation()
    observed = []
    for delay in delays:
        sim.timeout(delay).callbacks.append(
            lambda event: observed.append(sim.now)
        )
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_simultaneous_events_keep_creation_order(delays):
    """Equal timestamps resolve FIFO — the determinism guarantee."""
    sim = Simulation()
    observed = []
    for index, delay in enumerate(delays):
        sim.timeout(delay).callbacks.append(
            lambda event, i=index: observed.append(i)
        )
    sim.run()
    expected = [i for i, _d in sorted(enumerate(delays), key=lambda p: (p[1], p[0]))]
    assert observed == expected


@given(
    total=st.integers(min_value=0, max_value=10_000),
    weights=st.lists(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=300, deadline=None)
def test_largest_remainder_always_sums_to_total(total, weights):
    if sum(weights) == 0:
        weights = [w + 1.0 for w in weights]
    parts = largest_remainder_allocation(total, weights)
    assert sum(parts) == total
    assert all(part >= 0 for part in parts)
    # No part exceeds its ceiling quota by more than one unit.
    weight_sum = sum(weights)
    for part, weight in zip(parts, weights):
        quota = total * weight / weight_sum
        assert part <= quota + 1


@given(
    item_count=st.integers(min_value=1, max_value=100_000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_zipfian_never_leaves_range(item_count, seed):
    generator = ZipfianGenerator(item_count, rng=random.Random(seed))
    for _ in range(100):
        assert 0 <= generator.next() < item_count
