"""Property-based tests of kernel invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import (
    Interrupt,
    Simulation,
    StopSimulation,
    ZipfianGenerator,
    largest_remainder_allocation,
)

import random

INF = float("inf")


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


# -- dispatch equivalence ----------------------------------------------------
#
# ``run`` and ``run_until_triggered`` drain whole buckets in one loop;
# the reference below moves the calendar with nothing but ``peek`` and
# ``step``, one event at a time.  Schedules tie many events on the same
# instant, and their callbacks push zero-delay events, start processes
# (urgent), interrupt processes (urgent) and stop the run, so every way
# a bucket can be extended, preempted or cut short mid-drain is covered.

#: Few distinct delays, so most events share a (time, priority) bucket.
_TIED = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0])

_DISPATCH_SCHEDULES = st.fixed_dictionaries(
    {
        "timeouts": st.lists(
            st.tuples(
                _TIED,
                st.sampled_from(["log", "zero", "spawn", "interrupt", "stop"]),
                _TIED,
            ),
            min_size=1,
            max_size=25,
        ),
        "sleepers": st.lists(_TIED, max_size=3),
        "horizons": st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]), max_size=4
        ).map(sorted),
        "finale": st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=0, max_value=24),
                st.sampled_from([0.0, 0.5, 1.0, 2.0, INF]),
            ),
        ),
    }
)


def _build(sim, schedule, log):
    """Schedule ``schedule`` on ``sim``; return its timeouts in order."""

    def sleeper(name, period):
        for _ in range(3):
            try:
                yield sim.timeout(period)
                log.append((sim.now, name, "woke"))
            except Interrupt as interrupt:
                log.append((sim.now, name, f"interrupted by {interrupt.cause}"))

    def child(label, delay):
        log.append((sim.now, label, "child start"))
        yield sim.timeout(delay)
        log.append((sim.now, label, "child end"))

    sleepers = [
        sim.process(sleeper(f"sleeper{i}", period), name=f"sleeper{i}")
        for i, period in enumerate(schedule["sleepers"])
    ]

    def action(label, kind, arg):
        def callback(_event):
            log.append((sim.now, label, kind))
            if kind == "zero":
                follow = sim.timeout(0.0)
                follow.name = f"{label}/zero"
                follow.callbacks.append(
                    lambda event: log.append((sim.now, event.name, "fired"))
                )
            elif kind == "spawn":
                sim.process(child(label, arg), name=f"{label}/child")
            elif kind == "interrupt":
                for process in sleepers:
                    if process.is_alive:
                        process.interrupt(label)
                        break
            elif kind == "stop":
                sim.stop(label)

        return callback

    timeouts = []
    for index, (delay, kind, arg) in enumerate(schedule["timeouts"]):
        timeout = sim.timeout(delay)
        timeout.name = f"t{index}"
        timeout.callbacks.append(action(timeout.name, kind, arg))
        timeouts.append(timeout)
    return timeouts


def _reference_run(sim, until):
    """``run(until)`` moved by ``peek``/``step`` alone (clock not advanced)."""
    try:
        while sim.peek() != INF and sim.peek() <= until:
            sim.step()
    except StopSimulation as stop:
        return stop.value
    return None


def _reference_until(sim, event, limit):
    """``run_until_triggered`` moved by ``peek``/``step`` alone."""
    if not event.processed:
        event.callbacks.append(lambda _evt: None)
    while not event.processed:
        if sim.peek() == INF or sim.peek() > limit:
            raise RuntimeError(f"{event!r} cannot trigger before {limit}")
        sim.step()
    return event.value


def _drive(schedule, reference):
    """Run ``schedule`` to exhaustion; return everything observable."""
    sim = Simulation(seed=3)
    sim.telemetry.trace_kernel_events = True
    records = []
    sim.telemetry.subscribe(records.append)
    log = []
    timeouts = _build(sim, schedule, log)
    run = (lambda until: _reference_run(sim, until)) if reference else (
        lambda until: sim.run(until=None if until == INF else until)
    )
    until_triggered = (
        (lambda event, limit: _reference_until(sim, event, limit))
        if reference
        else sim.run_until_triggered
    )
    outcomes = []
    for horizon in schedule["horizons"] + [None]:
        if horizon is None and schedule["finale"] is not None:
            index, limit = schedule["finale"]
            target = timeouts[index % len(timeouts)]
            while True:
                try:
                    outcomes.append(("until", until_triggered(target, limit)))
                except RuntimeError as error:
                    outcomes.append(("cannot trigger", str(error)))
                except StopSimulation as stop:
                    outcomes.append(("stopped", stop.value))
                    continue
                break
        while True:
            stopped = run(INF if horizon is None else horizon)
            outcomes.append(("run", horizon, stopped))
            if stopped is None:
                break
    return {
        "log": log,
        "outcomes": outcomes,
        "events_processed": sim.events_processed,
        "records": [record.as_dict() for record in records],
    }


@given(schedule=_DISPATCH_SCHEDULES)
@settings(max_examples=300, deadline=None)
def test_dispatch_loop_matches_one_event_steps(schedule):
    """Bucket draining changes nothing observable: the same events fire
    in the same order, counted once each, with the same ``sim.event``
    records, however the run is split into horizons."""
    assert _drive(schedule, reference=False) == _drive(schedule, reference=True)
