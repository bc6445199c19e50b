"""Per-thread dirty-page shares of the round-robin chunk split (§7.2(2))."""

import pytest

from repro.migration import per_thread_dirty_pages
from repro.vm import DirtyLog


class TestPerThreadPages:
    def test_shares_sum_to_union(self):
        log = DirtyLog(n_chunks=64)
        log.record_uniform(0, 0, 64, 6400.0)
        snapshot = log.peek()
        shares = per_thread_dirty_pages(snapshot, 4)
        assert sum(shares) == pytest.approx(snapshot.unique_dirty_pages())

    def test_uniform_load_is_balanced(self):
        log = DirtyLog(n_chunks=64)
        log.record_uniform(0, 0, 64, 6400.0)
        shares = per_thread_dirty_pages(log.peek(), 4)
        assert max(shares) == pytest.approx(sum(shares) / 4, rel=0.01)

    def test_skewed_load_imbalances(self):
        log = DirtyLog(n_chunks=64)
        # All activity in chunks owned by thread 0 (multiples of 4).
        import numpy as np

        ids = np.arange(0, 64, 4)
        log.record(0, ids, np.full(ids.shape, 100.0))
        shares = per_thread_dirty_pages(log.peek(), 4)
        assert shares[0] > 0
        assert shares[1] == shares[2] == shares[3] == 0

    def test_empty_snapshot(self):
        log = DirtyLog(n_chunks=8)
        shares = per_thread_dirty_pages(log.peek(), 4)
        assert shares == [0, 0, 0, 0]
