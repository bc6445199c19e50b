"""The reference kernel every host time is normalised by.

A fixed, interpreter-bound loop with the same instruction mix as the
simulator's hot paths: a heap calendar, dict updates, generator
``send`` resumptions and small numpy operations.  It imports nothing
from ``repro``, so no change to the system under test can move it.

Dividing a campaign's wall time by the kernel's wall time, measured
right before and right after it, cancels most of the machine's speed
drift (CPU frequency, noisy neighbours); multiplying by :data:`REF_S`
turns the ratio back into seconds.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

#: Nominal wall time of one :func:`reference_kernel` call, in seconds.
#: A reported host time of ``x`` s means "``x / REF_S`` kernels' worth".
REF_S = 0.04

#: Loop length; sized so one call takes about ``REF_S`` on a 2-core
#: x86-64 container.  Changing it invalidates every committed result.
ROUNDS = 35_000

#: Processes resumed round-robin by the kernel's calendar.
_PROCESSES = 32


def _process():
    total = 0.0
    while True:
        total += yield total


def reference_kernel(rounds: int = ROUNDS) -> float:
    """Run the fixed loop once; returns a checksum so nothing is elided."""
    processes = [_process() for _ in range(_PROCESSES)]
    for process in processes:
        next(process)
    calendar: list = []
    table: dict = {}
    vector = np.arange(16, dtype=float)
    state = 1
    checksum = 0.0
    for i in range(rounds):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(calendar, (state % 1000, i))
        if len(calendar) > 64:
            when, seq = heapq.heappop(calendar)
            key = seq & 511
            table[key] = table.get(key, 0) + when
            checksum = processes[seq % _PROCESSES].send(when)
        if i & 15 == 0:
            vector = vector * 0.5 + 1.0
    return checksum + float(vector.sum()) + len(table)


def time_reference(clock=time.perf_counter_ns) -> int:
    """Wall nanoseconds of one kernel call, collected and with GC off."""
    gc.collect()
    gc.disable()
    try:
        start = clock()
        reference_kernel()
        return clock() - start
    finally:
        gc.enable()
