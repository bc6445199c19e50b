"""Dirty-page tracking at chunk granularity.

Real dirty tracking works page-by-page (shadow paging or Intel PML).
Simulating millions of individual 4 KiB pages per checkpoint would be
wasteful, so the simulator tracks *touch counts per 2 MiB chunk* — the
same granularity HERE's round-robin transfer scheme uses (§7.2(2)) —
and converts touch counts into expected **unique** dirty pages with the
standard occupancy formula

    unique(c, k) = c * (1 - (1 - 1/c)^k)

for ``k`` touches landing uniformly in a chunk of ``c`` pages.  This
reproduces dirty-set saturation: touching the same working set harder
stops producing new dirty pages, exactly the effect that makes the
paper's degradation curves flatten at high loads.

Per-vCPU attribution is kept so that

* the per-vCPU PML rings of §7.2(1) can be drained independently, and
* *problematic pages* (touched by more than one vCPU during seeding)
  can be estimated as the overlap between per-vCPU dirty sets.

A steady workload spreads the same touch count over the same window
on every tick, and nothing reads the log until the next checkpoint.
:class:`DirtyLog` therefore keeps such a spread as one *pending
segment* — two scalars carrying the shared and per-vCPU rounding
chains — and writes it into the arrays only when a read or a different
write needs them (DESIGN §15, "deferred spread").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..hardware.units import PAGES_PER_CHUNK


def unique_pages(chunk_pages: int, touches: float) -> float:
    """Expected unique pages hit by ``touches`` uniform touches.

    Delegates to :func:`unique_pages_batch` so scalar and batched
    callers are bit-identical *by construction*: numpy's vectorized
    ``pow`` can differ from libm's by one ulp on rare inputs, so
    evaluating the formula twice — once with Python floats, once with
    arrays — would leave two subtly different statistics in the
    codebase.  One kernel, one rounding.
    """
    if touches == 0:
        # Preserve the historical zero fast path (validation included).
        if chunk_pages <= 0:
            raise ValueError(f"chunk_pages must be positive: {chunk_pages}")
        return 0.0
    return float(
        unique_pages_batch(chunk_pages, np.array([touches], dtype=np.float64))[0]
    )


def unique_pages_batch(chunk_pages: int, touches: np.ndarray) -> np.ndarray:
    """Vectorized occupancy estimate over an array of touch counts.

    The one kernel every caller shares — precopy ring drains,
    per-thread chunk shares, the scalar :func:`unique_pages` wrapper —
    so batched and per-entry evaluation cannot drift apart.  Elements
    are clamped exactly like the scalar formula: the occupancy
    estimate overshoots for fractional touch counts below one
    (Bernoulli's inequality flips), and unique pages can never exceed
    the number of touches.  The property suite pins batch-vs-scalar
    agreement across edge cases.
    """
    if chunk_pages <= 0:
        raise ValueError(f"chunk_pages must be positive: {chunk_pages}")
    touches = np.asarray(touches, dtype=np.float64)
    if touches.size and float(touches.min()) < 0:
        raise ValueError("negative touches")
    return _unique_pages_core(chunk_pages, touches)


def _unique_pages_core(chunk_pages: int, touches: np.ndarray) -> np.ndarray:
    """The arithmetic of :func:`unique_pages_batch`, without its checks.

    For callers that already hold a float64 array of non-negative
    touch counts and a positive ``chunk_pages`` (the snapshot sums,
    which filter to ``> 0`` first).  It is the same kernel, not a
    second evaluation of the formula: the public function validates
    and then calls this.
    """
    estimate = chunk_pages * (1.0 - (1.0 - 1.0 / chunk_pages) ** touches)
    return np.minimum(estimate, touches)


class DirtySnapshot:
    """Immutable view of the dirty state captured at a checkpoint."""

    __slots__ = (
        "chunk_touches", "per_vcpu_touches", "pages_per_chunk", "_union_pages"
    )

    def __init__(
        self,
        chunk_touches: np.ndarray,
        per_vcpu_touches: Dict[int, np.ndarray],
        pages_per_chunk: int,
    ):
        if pages_per_chunk <= 0:
            raise ValueError(f"pages_per_chunk must be positive: {pages_per_chunk}")
        self.chunk_touches = chunk_touches
        self.per_vcpu_touches = per_vcpu_touches
        self.pages_per_chunk = pages_per_chunk
        #: :meth:`unique_dirty_pages`, once computed (the arrays are
        #: never written after capture).
        self._union_pages: Optional[float] = None

    @property
    def n_chunks(self) -> int:
        return int(self.chunk_touches.shape[0])

    def dirty_chunk_ids(self) -> np.ndarray:
        """Indices of chunks with at least one touch."""
        return np.nonzero(self.chunk_touches > 0)[0]

    def _unique_pages_in(self, touches: np.ndarray) -> float:
        """Summed occupancy estimate over the touched entries."""
        touched = touches[touches > 0]
        if touched.size == 0:
            return 0.0
        return float(np.sum(_unique_pages_core(self.pages_per_chunk, touched)))

    def unique_dirty_pages(self) -> float:
        """Expected unique dirty pages across the whole VM."""
        if self._union_pages is None:
            self._union_pages = self._unique_pages_in(self.chunk_touches)
        return self._union_pages

    def unique_dirty_pages_for_vcpu(self, vcpu: int) -> float:
        """Expected unique pages dirtied by one vCPU."""
        touches = self.per_vcpu_touches.get(vcpu)
        if touches is None:
            return 0.0
        return self._unique_pages_in(touches)

    def problematic_pages(self) -> float:
        """Expected pages dirtied by **two or more** vCPUs.

        This is the consistency hazard of HERE's per-vCPU seeding
        threads (§7.2(1)); these pages must be resent during the final
        stop-and-copy.  Computed by inclusion–exclusion: the sum of
        per-vCPU unique sets minus the union.

        vCPUs running one steady workload carry identical rows, so a
        row equal to the previous one reuses its estimate: the kernel
        maps equal inputs to equal outputs, and the terms are summed
        in the same order (DESIGN §15, "identical per-vCPU state
        priced once").
        """
        terms: List[float] = []
        previous: Optional[np.ndarray] = None
        pages = 0.0
        for touches in self.per_vcpu_touches.values():
            if previous is None or not np.array_equal(touches, previous):
                pages = self._unique_pages_in(touches)
                previous = touches
            terms.append(pages)
        return max(0.0, sum(terms) - self.unique_dirty_pages())

    def pages_in_chunks(self, chunk_ids: Iterable[int]) -> float:
        """Expected unique dirty pages within the given chunks."""
        ids = np.fromiter(chunk_ids, dtype=np.int64)
        if ids.size == 0:
            return 0.0
        return self._unique_pages_in(self.chunk_touches[ids])


class DirtyLog:
    """Mutable per-VM dirty state between two checkpoints."""

    def __init__(self, n_chunks: int, pages_per_chunk: int = PAGES_PER_CHUNK):
        if n_chunks <= 0:
            raise ValueError(f"n_chunks must be positive: {n_chunks}")
        if pages_per_chunk <= 0:
            raise ValueError(f"pages_per_chunk must be positive: {pages_per_chunk}")
        self.n_chunks = n_chunks
        self.pages_per_chunk = pages_per_chunk
        self._touches = np.zeros(n_chunks, dtype=np.float64)
        # Per-vCPU attribution lives in one 2D array (one row per vCPU
        # seen this interval) so the workload flush can update every
        # vCPU with a single broadcast add.  ``_vcpu_ids`` preserves
        # first-touch order — snapshots rebuild the per-vCPU dict in
        # that order, matching the historical dict-of-arrays insertion
        # order that ``problematic_pages`` summation depends on.
        self._vcpu_rows = np.zeros((0, n_chunks), dtype=np.float64)
        self._vcpu_ids: List[int] = []
        self._vcpu_index: Dict[int, int] = {}
        #: The deferred steady spread ``(first, last, n_vcpus, shared,
        #: row)``, or None.  While set, ``_touches[first:last]`` really
        #: holds ``shared`` and ``_vcpu_rows[:n_vcpus, first:last]``
        #: really holds ``row``; the arrays there may be stale until
        #: :meth:`_write_back`.
        self._pending: Optional[Tuple[int, int, int, float, float]] = None

    def _write_back(self) -> None:
        """Store the pending spread into the arrays and end it."""
        pending = self._pending
        if pending is not None:
            first, last, n_vcpus, shared, row = pending
            self._touches[first:last] = shared
            self._vcpu_rows[:n_vcpus, first:last] = row
            self._pending = None

    def _row(self, vcpu: int) -> int:
        """Row index for ``vcpu``, growing the 2D store on first touch."""
        idx = self._vcpu_index.get(vcpu)
        if idx is None:
            idx = len(self._vcpu_ids)
            if idx >= self._vcpu_rows.shape[0]:
                grown = np.zeros(
                    (max(4, 2 * idx), self.n_chunks), dtype=np.float64
                )
                grown[:idx] = self._vcpu_rows[:idx]
                self._vcpu_rows = grown
            self._vcpu_ids.append(vcpu)
            self._vcpu_index[vcpu] = idx
        return idx

    def _per_vcpu_dict(self, copy: bool) -> Dict[int, np.ndarray]:
        """Per-vCPU arrays as a dict, in first-touch insertion order."""
        if copy:
            return {
                vcpu: self._vcpu_rows[row].copy()
                for row, vcpu in enumerate(self._vcpu_ids)
            }
        return {
            vcpu: self._vcpu_rows[row]
            for row, vcpu in enumerate(self._vcpu_ids)
        }

    def record(
        self,
        vcpu: int,
        chunk_ids: np.ndarray,
        touches: np.ndarray,
    ) -> None:
        """Record ``touches[i]`` memory writes into ``chunk_ids[i]``."""
        chunk_ids = np.asarray(chunk_ids, dtype=np.int64)
        touches = np.asarray(touches, dtype=np.float64)
        if chunk_ids.shape != touches.shape:
            raise ValueError("chunk_ids and touches must have equal shapes")
        if chunk_ids.size == 0:
            return
        if chunk_ids.min() < 0 or chunk_ids.max() >= self.n_chunks:
            raise IndexError("chunk id out of range")
        if touches.min() < 0:
            raise ValueError("negative touch count")
        self._write_back()
        np.add.at(self._touches, chunk_ids, touches)
        row = self._row(vcpu)  # may reallocate _vcpu_rows; resolve first
        np.add.at(self._vcpu_rows[row], chunk_ids, touches)

    def record_uniform(
        self, vcpu: int, first_chunk: int, n_chunks: int, total_touches: float
    ) -> None:
        """Spread ``total_touches`` uniformly over a chunk range."""
        if n_chunks <= 0:
            raise ValueError(f"n_chunks must be positive: {n_chunks}")
        last = first_chunk + n_chunks
        if first_chunk < 0 or last > self.n_chunks:
            raise IndexError(
                f"chunk range [{first_chunk}, {last}) outside [0, {self.n_chunks})"
            )
        if total_touches < 0:
            raise ValueError("negative touch count")
        if total_touches == 0:
            return
        self._write_back()
        # A contiguous range of unique chunk ids means ``np.add.at``
        # over a freshly built index/value pair degenerates to a
        # slice-add of one scalar — identical IEEE-754 additions in
        # identical order, without the two array allocations and the
        # fancy-indexing dispatch.
        per_chunk = total_touches / n_chunks
        self._touches[first_chunk:last] += per_chunk
        row = self._row(vcpu)  # may reallocate _vcpu_rows; resolve first
        self._vcpu_rows[row, first_chunk:last] += per_chunk

    def record_uniform_spread(
        self,
        n_vcpus: int,
        first_chunk: int,
        n_chunks: int,
        touches_per_vcpu: float,
    ) -> None:
        """Record a uniform spread by each of vCPUs ``0..n_vcpus-1``.

        Bit-for-bit equivalent to calling :meth:`record_uniform` once
        per vCPU in ascending order with the same arguments: the shared
        touch array still receives ``n_vcpus`` *sequential* scalar adds
        (float accumulation order is part of the contract), while the
        per-vCPU rows — independent elementwise — collapse into one
        broadcast add across the 2D store.  This is the workload flush
        hot path: one call per tick instead of one per vCPU.

        A steady spread — same window and vCPU count as the pending
        segment — touches no array at all: the shared value takes its
        ``n_vcpus`` sequential adds and the row value its one add as
        Python floats, exactly the chain every element of the slice
        would walk.  A segment starts only on a clean log, where both
        chains begin at zero; any other spread takes the eager path.
        """
        if n_vcpus <= 0:
            raise ValueError(f"n_vcpus must be positive: {n_vcpus}")
        if n_chunks <= 0:
            raise ValueError(f"n_chunks must be positive: {n_chunks}")
        last = first_chunk + n_chunks
        if first_chunk < 0 or last > self.n_chunks:
            raise IndexError(
                f"chunk range [{first_chunk}, {last}) outside [0, {self.n_chunks})"
            )
        if touches_per_vcpu < 0:
            raise ValueError("negative touch count")
        if touches_per_vcpu == 0:
            return
        per_chunk = touches_per_vcpu / n_chunks
        window = (first_chunk, last, n_vcpus)
        pending = self._pending
        if pending is not None:
            if pending[:3] == window:
                shared, row = pending[3], pending[4]
                for _ in range(n_vcpus):
                    shared += per_chunk
                self._pending = window + (shared, row + per_chunk)
                return
            self._write_back()
        if not self._vcpu_ids:
            # Clean log: every array holds 0.0 and vCPUs 0..n-1 take
            # rows 0..n-1, so both chains start from zero.
            for vcpu in range(n_vcpus):
                self._row(vcpu)
            shared = 0.0
            for _ in range(n_vcpus):
                shared += per_chunk
            self._pending = window + (shared, 0.0 + per_chunk)
            return
        shared = self._touches[first_chunk:last]
        if n_chunks == 1 or bool((shared == shared[0]).all()):
            # Steady workloads hammer the same working set every tick,
            # so the whole slice holds one value.  Chain the sequential
            # adds through a single scalar (IEEE-754 double addition is
            # elementwise — every element would walk the exact same
            # chain) and store the result once instead of sweeping the
            # array ``n_vcpus`` times.
            value = float(shared[0])
            for _ in range(n_vcpus):
                value += per_chunk
            shared[:] = value
        else:
            for _ in range(n_vcpus):
                shared += per_chunk
        rows = [self._row(vcpu) for vcpu in range(n_vcpus)]
        if rows == list(range(n_vcpus)):
            # Common case: vCPUs 0..n-1 occupy rows 0..n-1, so all the
            # per-vCPU adds are one contiguous broadcast.
            self._vcpu_rows[:n_vcpus, first_chunk:last] += per_chunk
        else:
            for row in rows:
                self._vcpu_rows[row, first_chunk:last] += per_chunk

    def peek(self) -> DirtySnapshot:
        """Snapshot the current dirty state without clearing it."""
        self._write_back()
        return DirtySnapshot(
            self._touches.copy(),
            self._per_vcpu_dict(copy=True),
            self.pages_per_chunk,
        )

    def snapshot_and_clear(self) -> DirtySnapshot:
        """Atomically capture and reset the dirty state (checkpoint)."""
        self._write_back()
        snapshot = DirtySnapshot(
            self._touches, self._per_vcpu_dict(copy=False),
            self.pages_per_chunk,
        )
        self._touches = np.zeros(self.n_chunks, dtype=np.float64)
        # Ownership of the old rows moved into the snapshot (as views);
        # start a fresh store sized to the vCPU population just seen so
        # the next interval grows at most once.
        self._vcpu_rows = np.zeros(
            (len(self._vcpu_ids), self.n_chunks), dtype=np.float64
        )
        self._vcpu_ids = []
        self._vcpu_index = {}
        return snapshot

    def unique_dirty_pages(self) -> float:
        """Expected unique dirty pages right now (without clearing)."""
        return self.peek().unique_dirty_pages()

    def is_clean(self) -> bool:
        self._write_back()
        return not np.any(self._touches > 0)


class PmlRing:
    """A per-vCPU Page-Modification-Logging ring buffer (§7.2).

    Hardware PML logs dirtied GPAs into a fixed-size ring; HERE's Xen
    patch drains each vCPU's ring into an independent buffer so one
    migrator thread per vCPU can read it without pausing the others.
    We model the ring at (chunk, touches) batch granularity with a
    bounded capacity; overflow forces a full-bitmap resync, which the
    seeding code must handle (and which tests exercise).
    """

    def __init__(self, vcpu: int, capacity_entries: int = 1_000_000):
        if capacity_entries <= 0:
            raise ValueError(f"capacity must be positive: {capacity_entries}")
        self.vcpu = vcpu
        self.capacity_entries = capacity_entries
        #: Range entries: (first_chunk, n_chunks, total_touches).
        self._entries: List[Tuple[int, int, float]] = []
        self._entry_count = 0.0
        self.overflowed = False

    def log(self, chunk_id: int, touches: float) -> None:
        """Append dirtied-page log entries for one chunk."""
        self.log_range(chunk_id, 1, touches)

    def log_range(self, first_chunk: int, n_chunks: int, touches: float) -> None:
        """Append log entries for touches spread over a chunk range."""
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1: {n_chunks}")
        if touches <= 0 or self.overflowed:
            return
        if self._entry_count + touches > self.capacity_entries:
            self.overflowed = True
            self._entries.clear()
            self._entry_count = 0.0
            return
        self._entries.append((first_chunk, n_chunks, touches))
        self._entry_count += touches

    def drain(self) -> Tuple[List[Tuple[int, int, float]], bool]:
        """Remove all entries; returns ``(entries, overflowed)``.

        After a drain the ring is usable again (overflow flag resets),
        matching the hardware behaviour of re-arming PML after the
        hypervisor processes the log.
        """
        entries, self._entries = self._entries, []
        overflowed, self.overflowed = self.overflowed, False
        self._entry_count = 0.0
        return entries, overflowed

    @property
    def fill(self) -> float:
        """Ring occupancy in [0, 1]."""
        return min(1.0, self._entry_count / self.capacity_entries)

    def __len__(self) -> int:
        return len(self._entries)
