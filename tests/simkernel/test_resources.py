"""The Gate synchronisation primitive."""

import pytest

from repro.simkernel import Gate, Simulation


@pytest.fixture
def sim():
    return Simulation(seed=0)


class TestGate:
    def test_wait_on_open_gate_is_immediate(self, sim):
        gate = Gate(sim, is_open=True)
        assert gate.wait_open().triggered

    def test_wait_on_closed_gate_blocks(self, sim):
        gate = Gate(sim, is_open=False)
        event = gate.wait_open()
        assert not event.triggered
        gate.open()
        assert event.triggered

    def test_reopen_releases_all_waiters(self, sim):
        gate = Gate(sim, is_open=False)
        waiters = [gate.wait_open() for _ in range(5)]
        gate.open()
        assert all(w.triggered for w in waiters)

    def test_gate_is_reusable(self, sim):
        gate = Gate(sim, is_open=True)
        gate.close()
        waiter = gate.wait_open()
        assert not waiter.triggered
        gate.open()
        assert waiter.triggered
        gate.close()
        assert not gate.wait_open().triggered

    def test_double_open_is_idempotent(self, sim):
        gate = Gate(sim, is_open=False)
        waiter = gate.wait_open()
        gate.open()
        gate.open()
        assert waiter.triggered
