"""Property-based equivalence pins for the vectorized hot paths.

The vectorization work (dirty-log batching, batched link outcome
draws) promises **bit-for-bit** agreement with the scalar code it
replaced — that promise is what keeps every committed benchmark
fingerprint valid.  These properties attack the promise with randomised
inputs instead of hand-picked cases:

* ``unique_pages_batch`` must agree elementwise with the scalar
  occupancy formula, including the fractional-touch clamp;
* ``Link.draw_chunk_outcomes`` must consume the impairment
  stream exactly like the historical per-chunk branch loop and return
  the same verdicts;
* ``DirtyLog.record_uniform_spread`` must leave the shared and
  per-vCPU state bit-identical to the per-vCPU ``record_uniform``
  loop it replaced, under arbitrary interleavings — including the
  deferred steady spread, whose pending segment every read and every
  other write must store first;
* the unchecked occupancy core must agree with ``unique_pages_batch``,
  and ``DirtySnapshot.problematic_pages`` and the pre-copy ring drain,
  which price a row or ring equal to the previous one once, must
  equal their per-row and per-ring reference loops.
"""

from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.hardware.link import Link
from repro.hardware.nic import Nic
from repro.migration.precopy import _drain_vcpu_rings
from repro.replication.transport import remerge_dirty
from repro.simkernel import Simulation
from repro.vm.dirty import (
    DirtyLog,
    DirtySnapshot,
    _unique_pages_core,
    unique_pages,
    unique_pages_batch,
)


touch_counts = st.one_of(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0),  # fractional: the clamp
    st.integers(min_value=0, max_value=10**9).map(float),
    st.just(0.0),
)


class TestUniquePagesBatchAgreesWithScalar:
    @settings(max_examples=200, deadline=None)
    @given(
        chunk_pages=st.integers(min_value=1, max_value=1 << 20),
        touches=st.lists(touch_counts, min_size=0, max_size=50),
    )
    def test_elementwise_bit_identical(self, chunk_pages, touches):
        batched = unique_pages_batch(chunk_pages, np.array(touches))
        scalar = [unique_pages(chunk_pages, k) for k in touches]
        assert batched.shape == (len(touches),)
        for got, expected in zip(batched.tolist(), scalar):
            # Exact equality, not approx: both must run the same
            # IEEE-754 operations.
            assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(
        chunk_pages=st.integers(min_value=1, max_value=1 << 20),
        touches=st.lists(touch_counts, min_size=0, max_size=50),
    )
    def test_unchecked_core_bit_identical(self, chunk_pages, touches):
        array = np.array(touches, dtype=np.float64)
        core = _unique_pages_core(chunk_pages, array)
        batched = unique_pages_batch(chunk_pages, array)
        assert core.tobytes() == batched.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(touches=st.lists(touch_counts, min_size=1, max_size=20))
    def test_never_exceeds_touches_or_chunk(self, touches):
        chunk_pages = 512
        batched = unique_pages_batch(chunk_pages, np.array(touches))
        assert (batched <= np.array(touches)).all()
        assert (batched <= chunk_pages).all()
        assert (batched >= 0).all()


def _scalar_outcome_loop(rng, count, loss_rate, corrupt_rate):
    """The historical per-chunk branch loop, verbatim semantics."""
    outcomes = []
    for _ in range(count):
        draw = rng.random()
        if draw < loss_rate:
            outcomes.append("lost")
        elif draw < loss_rate + corrupt_rate:
            outcomes.append("corrupt")
        else:
            outcomes.append("ok")
    return outcomes


class TestDrawChunkOutcomesMatchesScalarLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        count=st.integers(min_value=1, max_value=200),
        loss_rate=st.floats(min_value=0.0, max_value=1.0),
        corrupt_share=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_same_stream_same_verdicts(
        self, seed, count, loss_rate, corrupt_share
    ):
        corrupt_rate = (1.0 - loss_rate) * corrupt_share
        nic = Nic(name="eth0", bandwidth_bps=10e9)

        sim = Simulation(seed=seed)
        link = Link(sim, nic, name="wire")
        link.impair(loss_rate=loss_rate, corrupt_rate=corrupt_rate)
        batched = link.draw_chunk_outcomes(count)

        # Reference: identical named stream on a twin simulation, run
        # through the historical scalar branches.
        twin = Simulation(seed=seed)
        rng = twin.random.stream("link.impair.wire")
        expected = _scalar_outcome_loop(rng, count, loss_rate, corrupt_rate)

        assert batched == expected
        # Identical stream consumption: the next draw agrees too.
        if loss_rate > 0.0 or corrupt_rate > 0.0:
            assert link._impairment_rng().random() == rng.random()

    def test_unimpaired_link_consumes_no_randomness(self):
        sim = Simulation(seed=7)
        link = Link(sim, Nic(name="eth0", bandwidth_bps=10e9),
                           name="clean")
        assert link.draw_chunk_outcomes(32) == ["ok"] * 32
        twin = Simulation(seed=7)
        assert (
            sim.random.stream("link.impair.clean").random()
            == twin.random.stream("link.impair.clean").random()
        )


#: One dirty-log operation: either a uniform spread over all vCPUs or
#: a single-vCPU uniform record, with a random in-range chunk window.
def _operations(n_chunks, n_vcpus):
    windows = st.tuples(
        st.integers(min_value=0, max_value=n_chunks - 1),
        st.integers(min_value=1, max_value=n_chunks),
    ).map(
        lambda pair: (pair[0], min(pair[1], n_chunks - pair[0]))
    )
    spread = st.tuples(
        st.just("spread"),
        st.integers(min_value=1, max_value=n_vcpus),
        windows,
        st.floats(min_value=0.0, max_value=1e9),
    )
    single = st.tuples(
        st.just("single"),
        st.integers(min_value=0, max_value=n_vcpus - 1),
        windows,
        st.floats(min_value=0.0, max_value=1e9),
    )
    return st.lists(st.one_of(spread, single), min_size=1, max_size=12)


class TestSpreadMatchesPerVcpuLoop:
    @settings(max_examples=100, deadline=None)
    @given(ops=_operations(n_chunks=37, n_vcpus=5))
    def test_bit_identical_state_under_interleaving(self, ops):
        batched = DirtyLog(n_chunks=37, pages_per_chunk=512)
        looped = DirtyLog(n_chunks=37, pages_per_chunk=512)
        for kind, vcpus, (first, width), touches in ops:
            if kind == "spread":
                batched.record_uniform_spread(vcpus, first, width, touches)
                for vcpu in range(vcpus):
                    looped.record_uniform(vcpu, first, width, touches)
            else:
                batched.record_uniform(vcpus, first, width, touches)
                looped.record_uniform(vcpus, first, width, touches)

        ours, theirs = batched.peek(), looped.peek()
        assert (ours.chunk_touches == theirs.chunk_touches).all()
        # Same vCPU population in the same first-touch order (the
        # order ``problematic_pages`` sums in).
        assert list(ours.per_vcpu_touches) == list(theirs.per_vcpu_touches)
        for vcpu, expected in theirs.per_vcpu_touches.items():
            assert (ours.per_vcpu_touches[vcpu] == expected).all()
        # Derived statistics follow bit-for-bit.
        assert ours.unique_dirty_pages() == theirs.unique_dirty_pages()
        assert ours.problematic_pages() == theirs.problematic_pages()

    @settings(max_examples=50, deadline=None)
    @given(ops=_operations(n_chunks=37, n_vcpus=5))
    def test_snapshot_and_clear_hands_off_identical_state(self, ops):
        batched = DirtyLog(n_chunks=37, pages_per_chunk=512)
        looped = DirtyLog(n_chunks=37, pages_per_chunk=512)
        for kind, vcpus, (first, width), touches in ops:
            if kind == "spread":
                batched.record_uniform_spread(vcpus, first, width, touches)
                for vcpu in range(vcpus):
                    looped.record_uniform(vcpu, first, width, touches)
            else:
                batched.record_uniform(vcpus, first, width, touches)
                looped.record_uniform(vcpus, first, width, touches)
        ours = batched.snapshot_and_clear()
        theirs = looped.snapshot_and_clear()
        assert (ours.chunk_touches == theirs.chunk_touches).all()
        assert list(ours.per_vcpu_touches) == list(theirs.per_vcpu_touches)
        for vcpu, expected in theirs.per_vcpu_touches.items():
            assert (ours.per_vcpu_touches[vcpu] == expected).all()
        # Both logs are empty again and reusable.
        assert batched.is_clean() and looped.is_clean()
        batched.record_uniform_spread(2, 0, 4, 8.0)
        looped.record_uniform(0, 0, 4, 8.0)
        looped.record_uniform(1, 0, 4, 8.0)
        assert (
            batched.peek().chunk_touches == looped.peek().chunk_touches
        ).all()


def _assert_same_snapshot(ours, theirs):
    """Bit-identical chunk and per-vCPU state, same vCPU order."""
    assert ours.chunk_touches.tobytes() == theirs.chunk_touches.tobytes()
    assert list(ours.per_vcpu_touches) == list(theirs.per_vcpu_touches)
    for vcpu, expected in theirs.per_vcpu_touches.items():
        assert ours.per_vcpu_touches[vcpu].tobytes() == expected.tobytes()
    assert ours.unique_dirty_pages() == theirs.unique_dirty_pages()
    assert ours.problematic_pages() == theirs.problematic_pages()


@st.composite
def _steady_scenarios(draw, n_chunks=29, n_vcpus=5):
    """A pool of 2–3 windows and vCPU counts, and operations over it.

    Drawing spreads from a small pool makes the same ``(window,
    n_vcpus)`` repeat, so the deferred path runs and is interrupted by
    reads and other writes at arbitrary points.
    """
    window = st.integers(min_value=0, max_value=n_chunks - 1).flatmap(
        lambda first: st.tuples(
            st.just(first), st.integers(min_value=1, max_value=n_chunks - first)
        )
    )
    pool = draw(
        st.lists(
            st.tuples(window, st.integers(min_value=1, max_value=n_vcpus)),
            min_size=2,
            max_size=3,
        )
    )
    touches = st.floats(min_value=0.0, max_value=1e9)
    spread = st.tuples(st.just("spread"), st.sampled_from(pool), touches)
    single = st.tuples(
        st.just("single"),
        st.tuples(
            st.sampled_from([w for w, _ in pool]),
            st.integers(min_value=0, max_value=n_vcpus - 1),
        ),
        touches,
    )
    reads = st.tuples(
        st.sampled_from(["peek", "is_clean", "unique_dirty_pages"]),
        st.none(),
        st.none(),
    )
    clear = st.just(("clear", None, None))
    remerge = st.just(("remerge", None, None))
    # Half the operations are spreads, so segments run for several
    # ticks before a read or another write lands on them.
    return draw(
        st.lists(
            st.one_of(spread, st.one_of(single, reads, clear, remerge)),
            min_size=4,
            max_size=40,
        )
    )


class TestDeferredSpreadMatchesPerVcpuLoop:
    N_CHUNKS = 29

    @settings(max_examples=150, deadline=None)
    @given(ops=_steady_scenarios(n_chunks=N_CHUNKS))
    def test_every_read_and_write_sees_the_loop_state(self, ops):
        batched = DirtyLog(n_chunks=self.N_CHUNKS, pages_per_chunk=512)
        looped = DirtyLog(n_chunks=self.N_CHUNKS, pages_per_chunk=512)
        # Until the first clear, ``remerge`` puts back an earlier
        # interval's snapshot.
        earlier = DirtyLog(n_chunks=self.N_CHUNKS, pages_per_chunk=512)
        earlier.record_uniform(3, 0, self.N_CHUNKS, 40.0)
        earlier.record_uniform(1, 5, 7, 2.5)
        cleared = (earlier.peek(), earlier.peek())
        for kind, arg, touches in ops:
            if kind == "spread":
                ((first, width), vcpus) = arg
                batched.record_uniform_spread(vcpus, first, width, touches)
                for vcpu in range(vcpus):
                    looped.record_uniform(vcpu, first, width, touches)
            elif kind == "single":
                ((first, width), vcpu) = arg
                batched.record_uniform(vcpu, first, width, touches)
                looped.record_uniform(vcpu, first, width, touches)
            elif kind == "peek":
                _assert_same_snapshot(batched.peek(), looped.peek())
            elif kind == "is_clean":
                assert batched.is_clean() == looped.is_clean()
            elif kind == "unique_dirty_pages":
                assert batched.unique_dirty_pages() == looped.unique_dirty_pages()
            elif kind == "clear":
                cleared = (batched.snapshot_and_clear(), looped.snapshot_and_clear())
                _assert_same_snapshot(*cleared)
            else:
                # The torn-epoch abort path: ``DirtyLog.record`` per vCPU.
                remerge_dirty(SimpleNamespace(dirty_log=batched), cleared[0])
                remerge_dirty(SimpleNamespace(dirty_log=looped), cleared[1])
        _assert_same_snapshot(batched.peek(), looped.peek())
        _assert_same_snapshot(
            batched.snapshot_and_clear(), looped.snapshot_and_clear()
        )

    def test_steady_spreads_touch_no_array(self):
        log = DirtyLog(n_chunks=8, pages_per_chunk=512)
        looped = DirtyLog(n_chunks=8, pages_per_chunk=512)
        for _ in range(3):
            log.record_uniform_spread(4, 2, 5, 0.7)
            for vcpu in range(4):
                looped.record_uniform(vcpu, 2, 5, 0.7)
        # Still deferred: the stored arrays have not been swept.
        assert not log._touches.any()
        assert not log.is_clean()
        _assert_same_snapshot(log.snapshot_and_clear(), looped.snapshot_and_clear())


def _reference_pages(pages_per_chunk, touches):
    """One row's occupancy sum, evaluated on its own."""
    touched = touches[touches > 0]
    if touched.size == 0:
        return 0.0
    return float(np.sum(unique_pages_batch(pages_per_chunk, touched)))


def _reference_problematic(snapshot):
    """Every row priced separately, summed in first-touch order."""
    ppc = snapshot.pages_per_chunk
    per_vcpu_total = sum(
        _reference_pages(ppc, touches)
        for touches in snapshot.per_vcpu_touches.values()
    )
    return max(0.0, per_vcpu_total - _reference_pages(ppc, snapshot.chunk_touches))


@st.composite
def _snapshots(draw, n_chunks=17):
    """Per-vCPU rows where some repeat the previous (or an earlier) row.

    vCPU ids come in arbitrary first-touch order; the union is the
    sequential sum of the rows, as the dirty log accumulates it.
    """
    row = st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e7)),
        min_size=n_chunks,
        max_size=n_chunks,
    ).map(lambda values: np.array(values, dtype=np.float64))
    vcpus = draw(st.lists(st.integers(0, 15), min_size=0, max_size=7, unique=True))
    rows = []
    for _ in vcpus:
        choice = draw(st.sampled_from(["new", "previous", "earlier"]))
        if choice == "new" or not rows:
            rows.append(draw(row))
        elif choice == "previous":
            rows.append(rows[-1].copy())
        else:
            rows.append(draw(st.sampled_from(rows)).copy())
    union = np.zeros(n_chunks, dtype=np.float64)
    for values in rows:
        union += values
    pages_per_chunk = draw(st.sampled_from([1, 7, 512]))
    return DirtySnapshot(union, dict(zip(vcpus, rows)), pages_per_chunk)


class TestProblematicPagesMatchesPerRowLoop:
    @settings(max_examples=200, deadline=None)
    @given(snapshot=_snapshots(), union_first=st.booleans())
    def test_bit_identical_to_reference(self, snapshot, union_first):
        expected = _reference_problematic(snapshot)
        union = _reference_pages(snapshot.pages_per_chunk, snapshot.chunk_touches)
        if union_first:
            # The pre-copy order: the union is read (and memoised) first.
            assert snapshot.unique_dirty_pages() == union
        assert snapshot.problematic_pages() == expected
        assert snapshot.unique_dirty_pages() == union
        assert snapshot.problematic_pages() == expected

    def test_identical_rows_priced_once(self, monkeypatch):
        import repro.vm.dirty as dirty

        calls = []
        core = dirty._unique_pages_core

        def counting(chunk_pages, touches):
            calls.append(touches.size)
            return core(chunk_pages, touches)

        monkeypatch.setattr(dirty, "_unique_pages_core", counting)
        row = np.linspace(0.5, 9.0, 11)
        snapshot = DirtySnapshot(
            row * 4, {v: row.copy() for v in range(4)}, pages_per_chunk=512
        )
        snapshot.unique_dirty_pages()
        snapshot.problematic_pages()
        # One union and one row, not one union, four rows and a union.
        assert len(calls) == 2


def _ring_entries(n_chunks=64):
    entry = st.tuples(
        st.integers(0, n_chunks - 1),
        st.integers(1, n_chunks),
        st.floats(min_value=1e-6, max_value=1e9),
    )
    return st.lists(entry, min_size=0, max_size=8)


@st.composite
def _ring_drains(draw):
    """Per-vCPU ``(entries, overflowed)`` drains with repeated rings."""
    drains = []
    for _ in range(draw(st.integers(1, 8))):
        choice = draw(st.sampled_from(["new", "previous", "earlier", "overflow"]))
        if choice == "overflow":
            drains.append(([], True))
        elif choice == "new" or not drains:
            drains.append((draw(_ring_entries()), False))
        elif choice == "previous":
            drains.append((list(drains[-1][0]), drains[-1][1]))
        else:
            entries, overflowed = draw(st.sampled_from(drains))
            drains.append((list(entries), overflowed))
    return drains


def _reference_ring_estimate(pages_per_chunk, entries):
    """One ring priced on its own, in the drain's accumulation order."""
    n_chunks = np.array([e[1] for e in entries], dtype=np.float64)
    touches = np.array([e[2] for e in entries], dtype=np.float64)
    terms = n_chunks * unique_pages_batch(pages_per_chunk, touches / n_chunks)
    return float(sum(terms.tolist()))


class _RingSource:
    """Stands in for a hypervisor: hands out pre-drawn ring drains."""

    def __init__(self, drains):
        self._drains = list(drains)

    def drain_pml_ring(self, vm, vcpu):
        return self._drains[vcpu]


class TestRingDrainMatchesPerRingLoop:
    @settings(max_examples=200, deadline=None)
    @given(drains=_ring_drains(), pages_per_chunk=st.sampled_from([1, 7, 512]))
    def test_bit_identical_to_reference(self, drains, pages_per_chunk):
        vm = SimpleNamespace(pages_per_chunk=pages_per_chunk, vcpu_count=len(drains))
        per_vcpu, overflowed = _drain_vcpu_rings(_RingSource(drains), vm)
        expected = [
            0.0 if did_overflow or not entries
            else _reference_ring_estimate(pages_per_chunk, entries)
            for entries, did_overflow in drains
        ]
        assert per_vcpu == expected
        assert overflowed == {
            vcpu for vcpu, (_e, did_overflow) in enumerate(drains) if did_overflow
        }
