"""Batched open-loop arrival processes: determinism and shape."""

import numpy as np
import pytest

from repro.serving import PoissonArrivals, TraceArrivals


class TestPoissonArrivals:
    def test_aggregate_rate(self):
        process = PoissonArrivals(users=1_000_000, rate_per_user=0.01)
        assert process.aggregate_rate == pytest.approx(10_000.0)

    def test_sample_is_sorted_inside_the_window(self):
        process = PoissonArrivals(users=10_000, rate_per_user=0.01)
        times = process.sample(5.0, 7.0, np.random.default_rng(1))
        assert times.size > 0
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 5.0 and times[-1] < 7.0

    def test_same_seed_same_arrivals(self):
        process = PoissonArrivals(users=50_000, rate_per_user=0.02)
        first = process.sample(0.0, 3.0, np.random.default_rng(9))
        second = process.sample(0.0, 3.0, np.random.default_rng(9))
        np.testing.assert_array_equal(first, second)

    def test_millions_of_users_stay_cheap(self):
        # Aggregate batching: the population size only scales the
        # Poisson mean, never the object count.
        process = PoissonArrivals(users=5_000_000, rate_per_user=0.001)
        times = process.sample(0.0, 0.1, np.random.default_rng(3))
        assert times.size == pytest.approx(500.0, rel=0.25)

    def test_scaled_thins_the_population(self):
        process = PoissonArrivals(users=100, rate_per_user=0.5)
        half = process.scaled(0.5)
        assert half.users == 50
        assert half.rate_per_user == 0.5
        assert process.scaled(1e-9).users == 1  # never empty

    def test_validation(self):
        with pytest.raises(ValueError, match="user"):
            PoissonArrivals(users=0, rate_per_user=0.1)
        with pytest.raises(ValueError, match="rate"):
            PoissonArrivals(users=1, rate_per_user=0.0)
        process = PoissonArrivals(users=1, rate_per_user=0.1)
        with pytest.raises(ValueError, match="fraction"):
            process.scaled(0.0)
        with pytest.raises(ValueError, match="window"):
            process.sample(2.0, 2.0, np.random.default_rng(0))


class TestTraceArrivals:
    def test_counts_replay_per_tick(self):
        trace = TraceArrivals(counts=(3, 0, 5), tick=1.0)
        times = trace.sample(0.0, 3.0, np.random.default_rng(4))
        assert times.size == 8
        assert np.count_nonzero((times >= 0.0) & (times < 1.0)) == 3
        assert np.count_nonzero((times >= 1.0) & (times < 2.0)) == 0
        assert np.count_nonzero((times >= 2.0) & (times < 3.0)) == 5

    def test_trace_loops_past_its_end(self):
        trace = TraceArrivals(counts=(2,), tick=1.0)
        times = trace.sample(0.0, 4.0, np.random.default_rng(5))
        assert times.size == 8

    def test_partial_tick_thins_proportionally(self):
        trace = TraceArrivals(counts=(1000,), tick=1.0)
        times = trace.sample(0.0, 0.5, np.random.default_rng(6))
        assert 0 < times.size < 1000
        assert times.size == pytest.approx(500, rel=0.2)

    def test_aggregate_rate_and_scaling(self):
        trace = TraceArrivals(counts=(10, 30), tick=2.0)
        assert trace.aggregate_rate == pytest.approx(10.0)
        assert trace.scaled(0.5).counts == (5, 15)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            TraceArrivals(counts=())
        with pytest.raises(ValueError, match=">= 0"):
            TraceArrivals(counts=(1, -2))
        with pytest.raises(ValueError, match="tick"):
            TraceArrivals(counts=(1,), tick=0.0)
