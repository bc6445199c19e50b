"""Workload framework: guest applications driving VM activity.

A :class:`Workload` is a simulation process living *inside* a VM.  Each
tick it (a) makes application progress proportional to the time the VM
actually executed (pauses freeze it — this is how replication
degradation reaches application throughput), and (b) dirties guest
memory through :meth:`~repro.vm.machine.VirtualMachine.touch_spread`,
which is what the replication layer reacts to.

Subclasses implement :meth:`work_rate` (operations per second of VM
execution), :meth:`touch_rate` (raw memory-write touches per second),
and :meth:`working_set_pages` — all may vary over time, enabling the
phase-shifting load of the Fig. 9 experiment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..vm.machine import VirtualMachine

#: Application time lost per checkpoint pause *beyond* the pause itself:
#: cache and TLB refill plus VM re-scheduling after every stop-and-go
#: cycle.  This is the paper's §8.6 explanation for why high degradation
#: targets (40 %) overshoot — the more frequent the checkpoints, the
#: more of these fixed per-cycle costs the application absorbs.
RESUME_CACHE_PENALTY = 4e-3


class Workload:
    """Base class: tick-driven guest application."""

    def __init__(
        self,
        sim,
        vm: VirtualMachine,
        name: str = "workload",
        tick: float = 0.05,
        vcpu_spread: Optional[int] = None,
    ):
        if tick <= 0:
            raise ValueError(f"tick must be positive: {tick}")
        self.sim = sim
        self.vm = vm
        self.name = name
        self.tick = tick
        #: How many vCPUs the workload's writers run on.
        self.vcpu_spread = vcpu_spread or vm.vcpu_count
        if not 1 <= self.vcpu_spread <= vm.vcpu_count:
            raise ValueError(
                f"vcpu_spread {self.vcpu_spread} outside [1, {vm.vcpu_count}]"
            )
        self.ops_completed = 0.0
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self._stop_requested = False
        self._pending_touches = 0.0
        self.process = None
        #: (time, ops_completed) samples for time-series analysis.
        self.progress_samples: List[Tuple[float, float]] = []
        vm.workloads.append(self)

    # -- subclass surface ---------------------------------------------------
    def work_rate(self) -> float:
        """Application operations per second of VM execution time."""
        raise NotImplementedError

    def touch_rate(self) -> float:
        """Raw memory-write touches per second of VM execution time."""
        raise NotImplementedError

    def working_set_pages(self) -> int:
        """Size of the page range the touches land in."""
        raise NotImplementedError

    def on_tick(self, effective_seconds: float) -> None:
        """Optional extra per-tick behaviour for subclasses."""

    # -- lifecycle ------------------------------------------------------------
    def start(self):
        """Begin executing inside the VM; returns the process."""
        if self.process is not None:
            raise RuntimeError(f"workload {self.name!r} already started")
        self.started_at = self.sim.now
        self.process = self.sim.process(self._run(), name=f"wl:{self.name}")
        return self.process

    def stop(self) -> None:
        """Request a clean stop at the next tick boundary."""
        self._stop_requested = True

    # -- measurement -------------------------------------------------------------
    def elapsed(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.stopped_at if self.stopped_at is not None else self.sim.now
        return end - self.started_at

    def throughput(self) -> float:
        """Operations per second of wall (not execution) time."""
        elapsed = self.elapsed()
        if elapsed <= 0:
            return 0.0
        return self.ops_completed / elapsed

    def mark(self) -> Tuple[float, float]:
        """Snapshot (time, ops) for windowed throughput measurements."""
        return (self.sim.now, self.ops_completed)

    def throughput_since(self, mark: Tuple[float, float]) -> float:
        """Throughput since a :meth:`mark` snapshot."""
        mark_time, mark_ops = mark
        elapsed = self.sim.now - mark_time
        if elapsed <= 0:
            return 0.0
        return (self.ops_completed - mark_ops) / elapsed

    # -- the tick loop -----------------------------------------------------------
    def _run(self):
        vm = self.vm
        while not self._stop_requested:
            if vm.is_destroyed:
                break
            yield vm.running_gate.wait_open()
            if vm.is_destroyed or self._stop_requested:
                break
            # Deliver any touches deferred from a tick that ended while
            # the VM was paused (frequent at sub-second checkpoint
            # periods, where ticks and checkpoints phase-lock).
            self._flush_touches()
            paused_before = vm.paused_time()
            pauses_before = vm.pause_count
            tick_start = self.sim.now
            yield self.sim.timeout(self.tick)
            if vm.is_destroyed:
                break
            # Progress accrues only for the slice of the tick the VM
            # actually executed (checkpoint pauses freeze the guest),
            # minus the cache/TLB/scheduling refill cost of each
            # stop-and-go cycle (§8.6).
            elapsed = self.sim.now - tick_start
            new_pauses = vm.pause_count - pauses_before
            effective = max(
                0.0,
                elapsed
                - (vm.paused_time() - paused_before)
                - new_pauses * RESUME_CACHE_PENALTY,
            )
            if effective > 0:
                self.ops_completed += self.work_rate() * effective
                self._pending_touches += self.touch_rate() * effective
                self.on_tick(effective)
            self._flush_touches()
            self.progress_samples.append((self.sim.now, self.ops_completed))
        self.stopped_at = self.sim.now
        self._stop_requested = False
        return self.ops_completed

    def _flush_touches(self) -> None:
        """Deliver accumulated touches unless the VM is paused."""
        if self._pending_touches <= 0 or not self.vm.is_running:
            return
        wss = min(self.working_set_pages(), self.vm.total_pages)
        per_vcpu = self._pending_touches / self.vcpu_spread
        # One batched call for every vCPU: the working set is validated
        # once and the per-vCPU buffers are updated in place, in
        # ascending vCPU order.
        self.vm.touch_spread(self.vcpu_spread, per_vcpu, wss_pages=wss)
        self._pending_touches = 0.0


class IdleWorkload(Workload):
    """Background guest-kernel activity of an otherwise idle VM.

    Timers, kswapd, logging: a trickle of writes over a small working
    set.  This is what makes the "idle VM" rows of Fig. 6/8 non-zero.
    """

    #: Raw touches per second from kernel background activity.
    KERNEL_TOUCH_RATE = 25.0
    #: Pages the kernel keeps re-dirtying (~16 MiB).
    KERNEL_WSS_PAGES = 4096

    def __init__(self, sim, vm: VirtualMachine, name: str = "idle", tick: float = 0.05):
        super().__init__(sim, vm, name=name, tick=tick, vcpu_spread=1)

    def work_rate(self) -> float:
        return 0.0

    def touch_rate(self) -> float:
        return self.KERNEL_TOUCH_RATE

    def working_set_pages(self) -> int:
        return min(self.KERNEL_WSS_PAGES, self.vm.total_pages)
