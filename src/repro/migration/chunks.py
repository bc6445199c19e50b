"""Round-robin chunk assignment for multithreaded transfer (§7.2(2)).

During the continuous replication phase HERE splits the VM's memory
into disjoint 2 MiB regions and assigns them to migrator threads in a
round-robin fashion.  Each thread scans the shared dirty bitmap for
*its* regions only, so threads never contend on pages.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..vm.dirty import DirtySnapshot, unique_pages_batch


def per_thread_dirty_pages(
    snapshot: DirtySnapshot, n_threads: int
) -> List[float]:
    """Expected dirty pages each thread must send for ``snapshot``.

    Thread ``i`` owns every dirty chunk whose index ≡ i (mod threads).

    The occupancy math is batched: one vectorized
    :func:`~repro.vm.dirty.unique_pages_batch` over every dirty chunk,
    then one masked sum per thread.  Each thread's sum runs over the
    same values in the same ascending-chunk order the historical
    per-thread :meth:`~repro.vm.dirty.DirtySnapshot.pages_in_chunks`
    calls used, so the shares are bit-for-bit unchanged.
    """
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    dirty_chunks = snapshot.dirty_chunk_ids()
    if dirty_chunks.size == 0:
        return [0.0] * n_threads
    shares = unique_pages_batch(
        snapshot.pages_per_chunk, snapshot.chunk_touches[dirty_chunks]
    )
    residues = dirty_chunks % n_threads
    return [
        float(np.sum(shares[residues == thread]))
        for thread in range(n_threads)
    ]

