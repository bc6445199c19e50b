"""SPEC CPU 2006 workload profiles (§8.6, Figs. 14–16).

The paper runs four SPEC CPU 2006 benchmarks — ``gcc``, ``cactuBSSN``,
``namd`` and ``lbm`` — inside the protected VM.  SPEC binaries cannot
be redistributed, so each benchmark is modelled by its two signals the
replication layer reacts to: compute throughput (ops/s) and memory
dirtying behaviour (touch rate + working-set size).  The profile
constants are calibrated so stock Remus at T = 3 s reproduces the
Fig. 14 degradation profile (gcc 24 %, cactuBSSN 35 %, namd 21 %,
lbm 20 % — derivation in DESIGN.md); working-set sizes follow the
published SPEC footprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..hardware.units import MIB, PAGE_SIZE
from ..vm.machine import VirtualMachine
from .base import Workload


@dataclass(frozen=True)
class SpecProfile:
    """Replication-relevant profile of one SPEC CPU 2006 benchmark."""

    name: str
    #: Unreplicated throughput in the paper's "Rate (Ops/Sec)" metric.
    baseline_ops_per_s: float
    #: Raw memory-write touches per second of execution.
    touch_rate: float
    #: Resident working set (bytes) the touches land in.
    working_set_bytes: int

    def working_set_pages(self) -> int:
        return max(1, self.working_set_bytes // PAGE_SIZE)


#: Calibrated profiles (see module docstring).
SPEC_PROFILES: Dict[str, SpecProfile] = {
    "gcc": SpecProfile(
        "gcc",
        baseline_ops_per_s=5.5,
        touch_rate=6_200.0,
        working_set_bytes=900 * MIB,
    ),
    "cactuBSSN": SpecProfile(
        "cactuBSSN",
        baseline_ops_per_s=3.2,
        touch_rate=10_700.0,
        working_set_bytes=1300 * MIB,
    ),
    "namd": SpecProfile(
        "namd",
        baseline_ops_per_s=6.0,
        touch_rate=5_200.0,
        working_set_bytes=200 * MIB,
    ),
    "lbm": SpecProfile(
        "lbm",
        baseline_ops_per_s=4.5,
        touch_rate=4_900.0,
        working_set_bytes=850 * MIB,
    ),
}


class SpecWorkload(Workload):
    """A SPEC CPU 2006 benchmark profile running inside a VM."""

    def __init__(
        self,
        sim,
        vm: VirtualMachine,
        benchmark: str = "gcc",
        name: Optional[str] = None,
        tick: float = 0.05,
    ):
        if benchmark not in SPEC_PROFILES:
            raise KeyError(
                f"unknown SPEC benchmark {benchmark!r}; "
                f"available: {sorted(SPEC_PROFILES)}"
            )
        super().__init__(sim, vm, name=name or f"spec-{benchmark}", tick=tick)
        self.profile = SPEC_PROFILES[benchmark]

    def work_rate(self) -> float:
        return self.profile.baseline_ops_per_s

    def touch_rate(self) -> float:
        return self.profile.touch_rate

    def working_set_pages(self) -> int:
        return min(self.profile.working_set_pages(), self.vm.total_pages)

