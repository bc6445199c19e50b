"""Iterative pre-copy: the shared seeding loop (Fig. 3 ❷).

Both live migration and the seeding phase of replication run the same
algorithm: stream all memory once, then repeatedly send the pages
dirtied during the previous pass, until the dirty set is small enough
for a short stop-and-copy or the iteration cap is reached.  This module
hosts that loop so :class:`~repro.migration.engine.MigrationEngine` and
:class:`~repro.replication.engine.ReplicationEngine` share one
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..hardware.host import Host
from ..hardware.link import Link
from ..hardware.perfmodel import TransferCostModel
from ..hardware.units import PAGE_SIZE
from ..hypervisor.base import Hypervisor
from ..vm.dirty import unique_pages_batch
from ..vm.machine import VirtualMachine
from .stats import IterationRecord
from .transfer import split_evenly, timed_bulk_copy, timed_page_send


@dataclass
class PrecopyResult:
    """Outcome of the iterative pre-copy loop."""

    #: Dirty pages remaining for the stop-and-copy.
    remaining_dirty: float
    #: Pages sent by more than one per-vCPU thread (must be resent).
    problematic_total: float
    #: Per-iteration records (also appended to the caller's stats).
    iterations: List[IterationRecord]
    #: PML ring overflows encountered (forced full-bitmap fallbacks).
    ring_overflows: int = 0

    @property
    def total_duration(self) -> float:
        return sum(record.duration for record in self.iterations)


def _drain_vcpu_rings(source: Hypervisor, vm: VirtualMachine):
    """Drain every vCPU's PML ring (§7.2(1)).

    Returns ``(per_vcpu_unique_pages, overflowed_vcpus)``: the expected
    unique dirty pages each vCPU's migrator thread must send, estimated
    from its ring's (chunk-range, touches) entries, plus the set of
    vCPUs whose rings overflowed — those lost their log and must fall
    back to walking the shared dirty bitmap.

    vCPUs running one steady workload log identical rings, so a ring
    equal to the last one estimated reuses its estimate (DESIGN §15,
    "identical per-vCPU state priced once").
    """
    pages_per_chunk = vm.pages_per_chunk
    per_vcpu: List[float] = []
    overflowed = set()
    previous = None
    estimate = 0.0
    for vcpu in range(vm.vcpu_count):
        entries, did_overflow = source.drain_pml_ring(vm, vcpu)
        if did_overflow:
            overflowed.add(vcpu)
            per_vcpu.append(0.0)
            continue
        if not entries:
            per_vcpu.append(0.0)
            continue
        if entries != previous:
            # One vectorized occupancy evaluation over the ring, then
            # the same sequential left-to-right accumulation the
            # historical per-entry loop performed, so the estimate is
            # bit-identical.
            n_chunks = np.array(
                [entry[1] for entry in entries], dtype=np.float64
            )
            touches = np.array(
                [entry[2] for entry in entries], dtype=np.float64
            )
            terms = n_chunks * unique_pages_batch(
                pages_per_chunk, touches / n_chunks
            )
            estimate = float(sum(terms.tolist()))
            previous = entries
        per_vcpu.append(estimate)
    return per_vcpu, overflowed


def iterative_precopy(
    sim,
    source: Hypervisor,
    vm: VirtualMachine,
    link: Link,
    cost: TransferCostModel,
    threads: int,
    use_per_vcpu_rings: bool,
    max_iterations: int = 5,
    stop_threshold_pages: int = 50,
    component: str = "migration",
):
    """Generator: run the pre-copy loop; returns :class:`PrecopyResult`.

    The VM keeps running throughout — its workloads continue dirtying
    memory, which is exactly what each iteration picks up.  Dirty
    logging is armed from the arming bitmap read until the loop ends,
    however it ends: the PML rings log only in that window.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1: {max_iterations}")
    if stop_threshold_pages < 0:
        raise ValueError(f"negative stop threshold: {stop_threshold_pages}")
    iterations: List[IterationRecord] = []
    ring_overflows = 0

    def capture():
        """Snapshot dirty state: per-vCPU ring data + shared bitmap.

        The rings must be drained *before* the bitmap read, which also
        resets them as part of clearing the tracking state.
        """
        nonlocal ring_overflows
        if use_per_vcpu_rings:
            per_vcpu, overflowed = _drain_vcpu_rings(source, vm)
            ring_overflows += len(overflowed)
        else:
            per_vcpu, overflowed = None, set()
        snapshot = source.read_dirty_bitmap(vm, clear=True)
        return snapshot, per_vcpu, overflowed

    # Arm dirty tracking: everything dirtied from now on is logged, in
    # the shared bitmap and, in log-dirty mode, the PML rings.
    vm.arm_dirty_logging()
    try:
        source.read_dirty_bitmap(vm, clear=True)

        # -- iteration 1: bulk copy of all memory ------------------------
        iteration_start = sim.now
        span = sim.telemetry.span(
            "precopy.iteration", index=1, vm=vm.name, component=component
        )
        duration = yield from timed_bulk_copy(
            sim, source.host, link, vm.memory_bytes, threads, cost, component
        )
        snapshot, per_vcpu, overflowed = capture()
        dirty = snapshot.unique_dirty_pages()
        problematic_total = (
            snapshot.problematic_pages() if use_per_vcpu_rings else 0.0
        )
        span.end(
            pages=vm.total_pages,
            bytes=vm.memory_bytes,
            dirty_produced=dirty,
            problematic=problematic_total,
        )
        iterations.append(
            IterationRecord(
                index=1,
                started_at=iteration_start,
                duration=duration,
                pages_sent=vm.total_pages,
                bytes_sent=vm.memory_bytes,
                dirty_pages_produced=dirty,
                problematic_pages=problematic_total,
            )
        )

        # -- iterations 2..N: dirty-page passes ----------------------------
        iteration = 1
        while dirty > stop_threshold_pages and iteration < max_iterations:
            iteration += 1
            iteration_start = sim.now
            span = sim.telemetry.span(
                "precopy.iteration",
                index=iteration,
                vm=vm.name,
                component=component,
            )
            scan_shares = [0.0] * max(threads, vm.vcpu_count)
            if use_per_vcpu_rings:
                # Each thread sends the dirty set its vCPU's PML ring
                # logged during the previous pass (§7.2(1)); overlapping
                # pages go out more than once.  A vCPU whose ring
                # overflowed lost its log: its thread walks the shared
                # dirty bitmap instead and sends an even share of the
                # unattributed remainder.
                logged_total = sum(per_vcpu)
                unlogged = max(0.0, dirty - min(logged_total, dirty))
                shares = list(per_vcpu)
                for vcpu in overflowed:
                    shares[vcpu] = unlogged / len(overflowed)
                    scan_shares[vcpu] = float(vm.total_pages)
                pages_sent = sum(shares)
            else:
                shares = split_evenly(dirty, threads)
                pages_sent = dirty
            duration = yield from timed_page_send(
                sim,
                source.host,
                link,
                shares,
                cost,
                component,
                scan_pages_per_thread=scan_shares[: len(shares)],
                per_page_cost=cost.migration_page_cost,
            )
            snapshot, per_vcpu, overflowed = capture()
            new_dirty = snapshot.unique_dirty_pages()
            new_problematic = (
                snapshot.problematic_pages() if use_per_vcpu_rings else 0.0
            )
            problematic_total += new_problematic
            span.end(
                pages=pages_sent,
                bytes=pages_sent * PAGE_SIZE,
                dirty_produced=new_dirty,
                problematic=new_problematic,
            )
            iterations.append(
                IterationRecord(
                    index=iteration,
                    started_at=iteration_start,
                    duration=duration,
                    pages_sent=pages_sent,
                    bytes_sent=pages_sent * PAGE_SIZE,
                    dirty_pages_produced=new_dirty,
                    problematic_pages=new_problematic,
                )
            )
            dirty = new_dirty

        return PrecopyResult(
            remaining_dirty=dirty,
            problematic_total=problematic_total,
            iterations=iterations,
            ring_overflows=ring_overflows,
        )
    finally:
        vm.disarm_dirty_logging()
