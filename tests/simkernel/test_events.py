"""Event lifecycle and condition-event tests."""

import pytest

from repro.simkernel import (
    AllOf,
    AnyOf,
    EventAlreadyTriggered,
    Simulation,
)


@pytest.fixture
def sim():
    return Simulation(seed=0)


class TestEventLifecycle:
    def test_new_event_is_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed
        assert event.ok is None

    def test_value_unavailable_until_triggered(self, sim):
        event = sim.event()
        with pytest.raises(AttributeError):
            _ = event.value

    def test_succeed_sets_value(self, sim):
        event = sim.event()
        event.succeed(41)
        assert event.triggered
        assert event.ok is True
        assert event.value == 41

    def test_none_is_a_legitimate_value(self, sim):
        event = sim.event()
        event.succeed(None)
        assert event.triggered
        assert event.value is None

    def test_fail_stores_exception(self, sim):
        event = sim.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert event.ok is False
        assert event.value is error

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_double_succeed_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(EventAlreadyTriggered):
            event.succeed(2)

    def test_succeed_after_fail_rejected(self, sim):
        event = sim.event()
        event.fail(ValueError("x"))
        with pytest.raises(EventAlreadyTriggered):
            event.succeed(1)

    def test_callbacks_run_when_processed(self, sim):
        event = sim.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["payload"]


class TestTimeout:
    def test_timeout_fires_after_delay(self, sim):
        fired = []
        event = sim.timeout(2.5, value="done")
        event.callbacks.append(lambda e: fired.append((sim.now, e.value)))
        sim.run()
        assert fired == [(2.5, "done")]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_at_current_time(self, sim):
        fired = []
        sim.timeout(0.0).callbacks.append(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]


class TestConditions:
    def test_all_of_waits_for_every_child(self, sim):
        def proc():
            result = yield sim.all_of(
                [sim.timeout(1, "a"), sim.timeout(3, "b"), sim.timeout(2, "c")]
            )
            return (sim.now, sorted(result.values()))

        p = sim.process(proc())
        sim.run()
        assert p.value == (3, ["a", "b", "c"])

    def test_any_of_fires_on_first_child(self, sim):
        def proc():
            result = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
            return (sim.now, list(result.values()))

        p = sim.process(proc())
        sim.run()
        assert p.value == (1, ["fast"])

    def test_empty_all_of_is_vacuously_true(self, sim):
        condition = sim.all_of([])
        assert condition.triggered
        assert condition.value == {}

    def test_failing_child_fails_condition(self, sim):
        def failer():
            yield sim.timeout(1)
            raise RuntimeError("child died")

        def waiter():
            child = sim.process(failer())
            try:
                yield sim.all_of([child, sim.timeout(10)])
            except RuntimeError as error:
                return ("caught", str(error), sim.now)

        p = sim.process(waiter())
        sim.run()
        assert p.value == ("caught", "child died", 1)

    def test_condition_over_already_processed_events(self, sim):
        def proc():
            early = sim.timeout(1, "early")
            yield sim.timeout(5)
            # ``early`` has long been processed; waiting must not hang.
            result = yield sim.all_of([early, sim.timeout(1, "late")])
            return sorted(result.values())

        p = sim.process(proc())
        sim.run()
        assert p.value == ["early", "late"]

    def test_cross_simulation_condition_rejected(self, sim):
        other = Simulation()
        with pytest.raises(ValueError):
            AllOf(sim, [sim.timeout(1), other.timeout(1)])

    def test_any_of_value_snapshot_excludes_later_children(self, sim):
        def proc():
            result = yield sim.any_of([sim.timeout(1, "a"), sim.timeout(2, "b")])
            return len(result)

        p = sim.process(proc())
        sim.run()
        assert p.value == 1


class TestRepr:
    def test_event_repr_reflects_state(self, sim):
        event = sim.event(name="probe")
        assert "pending" in repr(event)
        event.succeed()
        assert "ok" in repr(event)

    def test_failed_repr(self, sim):
        event = sim.event()
        event.fail(ValueError("nope"))
        assert "failed" in repr(event)
        event.callbacks.append(lambda e: None)
        sim.run()
