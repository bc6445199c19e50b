"""The exact processor-sharing solver vs two references and a formula.

``ps_complete`` collapses the PS dynamics onto Kleinrock's virtual
time.  Three checks pin it:

* ``ps_reference`` tracks each request's *remaining work* directly
  (no virtual time), so agreement is a genuine cross-check of the
  dynamics, not of a shared formula;
* ``ps_oracle`` is the earlier vectorised kernel (bulk drains popped
  by one ``np.cumsum``); the scalar kernel must match it byte for byte,
  which is what keeps every serving fingerprint unchanged;
* M/G/1-PS insensitivity gives the mean sojourn time in closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving import (
    CapacitySegment,
    ps_complete,
    segments_from_windows,
)
from repro.serving.queue import _CHUNK, validate_segments


def ps_reference(arrivals, demand, segments):
    """Event-driven egalitarian PS tracking remaining work per request."""
    n = len(arrivals)
    completions = [math.nan] * n
    remaining = {}  # index -> remaining demand
    nxt = 0
    for segment in segments:
        if segment.lost:
            remaining.clear()
            while nxt < n and arrivals[nxt] < segment.end:
                nxt += 1
            continue
        t = segment.start
        while True:
            next_arrival = (
                arrivals[nxt]
                if nxt < n and arrivals[nxt] < segment.end
                else None
            )
            candidates = [segment.end]
            if next_arrival is not None:
                candidates.append(next_arrival)
            if remaining and segment.capacity > 0:
                rate = segment.capacity / len(remaining)
                candidates.append(t + min(remaining.values()) / rate)
            target = min(candidates)
            if remaining and segment.capacity > 0:
                served = (target - t) * segment.capacity / len(remaining)
                for index in remaining:
                    remaining[index] -= served
            t = target
            for index in sorted(remaining):
                if remaining[index] <= 1e-12 * demand:
                    completions[index] = t
                    del remaining[index]
            if next_arrival is not None and t == next_arrival:
                remaining[nxt] = demand
                nxt += 1
            elif t >= segment.end:
                break
    return np.asarray(completions)


def ps_oracle(arrivals, demand, segments):
    """The vectorised kernel the scalar one replaced, kept verbatim."""
    if demand <= 0:
        raise ValueError(f"per-request demand must be positive: {demand}")
    validate_segments(segments)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    n = arrivals.size
    completions = np.full(n, math.nan)
    if n == 0:
        return completions
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrivals must be sorted ascending")
    if arrivals[0] < segments[0].start or arrivals[-1] > segments[-1].end:
        raise ValueError("arrivals outside the segment span")

    theta = np.empty(n, dtype=np.float64)  # virtual completion thresholds
    head = 0  # oldest unfinished request
    tail = 0  # next slot to fill
    virtual = 0.0
    now = segments[0].start
    arrival_list = arrivals.tolist()
    next_arrival_index = 0

    for segment in segments:
        now = segment.start
        if segment.lost:
            # Blackout: everything in flight dies, arrivals bounce.
            head = tail
            while (
                next_arrival_index < n
                and arrival_list[next_arrival_index] < segment.end
            ):
                theta[tail] = math.inf  # lost: never completes
                head = tail = tail + 1
                next_arrival_index += 1
            now = segment.end
            continue
        capacity = segment.capacity
        while True:
            at_arrival = (
                next_arrival_index < n
                and arrival_list[next_arrival_index] < segment.end
            )
            boundary = (
                arrival_list[next_arrival_index]
                if at_arrival
                else segment.end
            )
            # Pop every completion due before the boundary.  The head
            # check is scalar (the common no-completion case); runs of
            # completions fall through to the vectorized cumsum.
            while head < tail and capacity > 0.0:
                backlog = tail - head
                head_time = now + (theta[head] - virtual) * backlog / capacity
                if head_time > boundary:
                    break
                chunk = min(backlog, _CHUNK)
                deltas = np.diff(theta[head : head + chunk], prepend=virtual)
                times = now + np.cumsum(
                    deltas * (backlog - np.arange(chunk))
                ) / capacity
                popped = int(np.searchsorted(times, boundary, side="right"))
                if popped == 0:
                    break
                completions[head : head + popped] = times[:popped]
                now = float(times[popped - 1])
                virtual = float(theta[head + popped - 1])
                head += popped
            if at_arrival:
                if head < tail and capacity > 0.0:
                    virtual += (boundary - now) * capacity / (tail - head)
                now = boundary
                theta[tail] = virtual + demand
                tail += 1
                next_arrival_index += 1
            else:
                if head < tail and capacity > 0.0:
                    virtual += (boundary - now) * capacity / (tail - head)
                now = boundary
                break
    return completions


#: (capacity, lost) of a generated segment: running at four speeds
#: (0.3 makes ``1 / capacity`` inexact), paused, blacked out.
SEGMENT_KINDS = (
    (1.0, False), (0.5, False), (2.0, False), (0.3, False),
    (0.0, False), (0.0, True),
)


@st.composite
def queue_cases(draw):
    """Sorted arrivals, a demand and a contiguous capacity profile.

    One case in ten is a *burst*: the first segment is a pause that
    queues more than ``_CHUNK`` requests and the second drains them,
    so the drain crosses the round cap.
    """
    horizon = draw(st.floats(1.0, 20.0))
    cuts = draw(
        st.lists(
            st.floats(0.0, horizon, exclude_min=True, exclude_max=True),
            max_size=6,
            unique=True,
        )
    )
    points = [0.0, *sorted(cuts), horizon]
    kinds = [
        draw(st.sampled_from(SEGMENT_KINDS)) for _ in range(len(points) - 1)
    ]
    burst = len(points) > 2 and draw(st.integers(0, 9)) == 0
    if burst:
        kinds[0] = (0.0, False)
        kinds[1] = (draw(st.sampled_from((0.5, 1.0, 2.0))), False)
    segments = [
        CapacitySegment(lo, hi, capacity=capacity, lost=lost)
        for lo, hi, (capacity, lost) in zip(points, points[1:], kinds)
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from((40, 0, 1, 2, 5, 300, 2000)))
    arrivals = rng.uniform(0.0, horizon, size)
    if draw(st.booleans()):
        # Coarse times: simultaneous arrivals and arrivals on segment
        # boundaries.
        arrivals = np.minimum(np.round(arrivals, 1), horizon)
    if burst:
        extra = _CHUNK + draw(st.integers(1, 400))
        arrivals = np.concatenate(
            [arrivals, rng.uniform(0.0, points[1], extra)]
        )
        demand = draw(st.sampled_from((1e-5, 1e-4, 5e-4)))
    else:
        demand = draw(st.sampled_from((0.003, 1e-4, 0.001, 0.01, 0.05, 0.3, 1.0)))
    return np.sort(arrivals), demand, segments


#: A long pause queues 10,000 requests with equal thresholds; the drain
#: pops them at one instant in a capped round plus a remainder.
LONG_PAUSE = (
    np.sort(np.random.default_rng(11).uniform(0.0, 2.0, 10_000)),
    0.0005,
    [CapacitySegment(0.0, 2.0, capacity=0.0), CapacitySegment(2.0, 10.0)],
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(queue_cases())
@example(LONG_PAUSE)
def test_scalar_kernel_matches_vectorised_oracle_byte_for_byte(case):
    arrivals, demand, segments = case
    expected = ps_oracle(arrivals, demand, segments)
    assert ps_complete(arrivals, demand, segments).tobytes() == (
        expected.tobytes()
    )


def test_long_pause_drain_crosses_the_round_cap():
    arrivals, demand, segments = LONG_PAUSE
    completions = ps_complete(arrivals, demand, segments)
    # Every queued request has the same threshold: PS finishes them
    # together, 10,000 x 0.0005 s of work after the resume.
    assert arrivals.size > _CHUNK
    assert completions[0] == pytest.approx(7.0)
    assert np.ptp(completions) < 1e-9


def test_mean_sojourn_matches_mg1_ps_closed_form():
    """M/G/1-PS is insensitive to the demand distribution: the mean
    sojourn time is d / (1 - rho).  A FIFO server would give the
    M/D/1 value d + rho d / (2 (1 - rho)) = 1.5 d, far outside the
    tolerance."""
    demand, rho = 1.0, 0.5
    rng = np.random.default_rng(7)
    arrivals = np.cumsum(rng.exponential(demand / rho, 50_000))
    segments = [CapacitySegment(0.0, float(arrivals[-1]) + 100.0)]
    sojourn = ps_complete(arrivals, demand, segments) - arrivals
    assert not np.isnan(sojourn).any()
    assert sojourn.mean() == pytest.approx(demand / (1 - rho), rel=0.03)


def assert_matches_reference(arrivals, demand, segments):
    arrivals = np.asarray(arrivals, dtype=np.float64)
    np.testing.assert_allclose(
        ps_complete(arrivals, demand, segments),
        ps_reference(arrivals.tolist(), demand, segments),
        rtol=1e-9,
        atol=1e-9,
        equal_nan=True,
    )


FULL = [CapacitySegment(0.0, 10.0)]


class TestPsComplete:
    def test_lone_request_takes_its_demand(self):
        completions = ps_complete(np.array([1.0]), 0.5, FULL)
        assert completions[0] == pytest.approx(1.5)

    def test_two_overlapping_requests_share_the_server(self):
        # Second arrives while the first runs: both slow to rate 1/2.
        completions = ps_complete(np.array([0.0, 0.5]), 1.0, FULL)
        # First: 0.5s alone + 1.0s shared = done at 1.5; second
        # finishes its remaining 0.5 alone after that.
        assert completions[0] == pytest.approx(1.5)
        assert completions[1] == pytest.approx(2.0)

    def test_random_load_matches_reference(self):
        rng = np.random.default_rng(42)
        arrivals = np.sort(rng.uniform(0.0, 8.0, size=200))
        assert_matches_reference(arrivals, 0.05, FULL)

    def test_pause_stalls_and_drains_in_bulk(self):
        segments = segments_from_windows(
            0.0, 10.0, pauses=[(2.0, 4.0)]
        )
        rng = np.random.default_rng(7)
        arrivals = np.sort(rng.uniform(0.0, 9.0, size=150))
        completions = ps_complete(arrivals, 0.02, segments)
        assert not np.any(np.isnan(completions))
        # Nothing completes inside the pause.
        assert not np.any((completions > 2.0) & (completions < 4.0))
        assert_matches_reference(arrivals, 0.02, segments)

    def test_request_arriving_during_pause_waits_for_resume(self):
        segments = segments_from_windows(0.0, 10.0, pauses=[(2.0, 4.0)])
        completions = ps_complete(np.array([3.0]), 0.5, segments)
        assert completions[0] == pytest.approx(4.5)

    def test_blackout_loses_in_flight_and_bouncing_requests(self):
        segments = segments_from_windows(
            0.0, 10.0, blackouts=[(2.0, 4.0)]
        )
        # 1.9 still in flight at 2.0; 3.0 bounces; 5.0 is fine.
        arrivals = np.array([1.9, 3.0, 5.0])
        completions = ps_complete(arrivals, 0.5, segments)
        assert math.isnan(completions[0])
        assert math.isnan(completions[1])
        assert completions[2] == pytest.approx(5.5)
        assert_matches_reference(arrivals, 0.5, segments)

    def test_mixed_pause_and_blackout_matches_reference(self):
        segments = segments_from_windows(
            0.0,
            20.0,
            pauses=[(3.0, 3.5), (11.0, 12.0)],
            blackouts=[(6.0, 8.0)],
        )
        rng = np.random.default_rng(2023)
        arrivals = np.sort(rng.uniform(0.0, 19.0, size=300))
        assert_matches_reference(arrivals, 0.03, segments)

    def test_unfinished_at_horizon_is_lost(self):
        completions = ps_complete(
            np.array([9.9]), 0.5, [CapacitySegment(0.0, 10.0)]
        )
        assert math.isnan(completions[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="demand"):
            ps_complete(np.array([1.0]), 0.0, FULL)
        with pytest.raises(ValueError, match="sorted"):
            ps_complete(np.array([2.0, 1.0]), 0.1, FULL)
        with pytest.raises(ValueError, match="outside"):
            ps_complete(np.array([11.0]), 0.1, FULL)
        assert ps_complete(np.array([]), 0.1, FULL).size == 0

    @pytest.mark.parametrize("demand", [math.nan, math.inf])
    def test_non_finite_demand_rejected(self, demand):
        with pytest.raises(ValueError, match="demand"):
            ps_complete(np.array([1.0]), demand, FULL)

    @pytest.mark.parametrize(
        "arrivals", [[math.nan], [1.0, math.nan], [math.nan, 2.0, 3.0]]
    )
    def test_nan_arrivals_rejected(self, arrivals):
        with pytest.raises(ValueError, match="NaN"):
            ps_complete(np.array(arrivals), 0.1, FULL)


class TestSegments:
    def test_segment_validation(self):
        with pytest.raises(ValueError, match="ends before"):
            CapacitySegment(2.0, 1.0)
        with pytest.raises(ValueError, match="capacity"):
            CapacitySegment(0.0, 1.0, capacity=-0.5)

    @pytest.mark.parametrize(
        "start, end, capacity",
        [
            (math.nan, 1.0, 1.0),
            (0.0, math.nan, 1.0),
            (0.0, math.inf, 1.0),
            (-math.inf, 1.0, 1.0),
            (0.0, 1.0, math.nan),
            (0.0, 1.0, math.inf),
        ],
    )
    def test_non_finite_segment_rejected(self, start, end, capacity):
        with pytest.raises(ValueError, match="finite"):
            CapacitySegment(start, end, capacity=capacity)

    def test_segments_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            validate_segments(
                [CapacitySegment(0.0, 1.0), CapacitySegment(2.0, 3.0)]
            )
        with pytest.raises(ValueError, match="at least one"):
            validate_segments([])

    def test_windows_build_a_contiguous_profile(self):
        segments = segments_from_windows(
            0.0, 10.0, pauses=[(2.0, 3.0)], blackouts=[(5.0, 6.0)]
        )
        validate_segments(segments)
        assert segments[0].start == 0.0
        assert segments[-1].end == 10.0
        by_kind = {
            (segment.capacity, segment.lost) for segment in segments
        }
        assert (1.0, False) in by_kind  # running
        assert (0.0, False) in by_kind  # paused
        assert (0.0, True) in by_kind  # lost

    def test_blackout_wins_over_overlapping_pause(self):
        segments = segments_from_windows(
            0.0, 10.0, pauses=[(2.0, 6.0)], blackouts=[(4.0, 5.0)]
        )
        middle = [s for s in segments if s.start == 4.0]
        assert middle and middle[0].lost

    def test_windows_clip_to_horizon(self):
        segments = segments_from_windows(
            0.0, 10.0, pauses=[(-5.0, 1.0), (9.0, 20.0)]
        )
        validate_segments(segments)
        assert segments[0] == CapacitySegment(0.0, 1.0, capacity=0.0)
        assert segments[-1] == CapacitySegment(9.0, 10.0, capacity=0.0)

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            segments_from_windows(5.0, 5.0)
