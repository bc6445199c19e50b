"""Whether a run honoured its degradation target.

The paper reports replication cost three ways, each computed where its
inputs live: per-checkpoint degradation ``D_T = t/(t+T)`` (Eq. 1,
Figs. 8–10) is ``ReplicationStats.mean_degradation()``, the VM-level
pause fraction is ``VirtualMachine.degradation()``, and the application
slowdown above the Fig. 11–16 bars is
:func:`repro.experiments.presets.slowdown_pct`.
"""

from __future__ import annotations

import math
from typing import Sequence


def respects_target(
    measured_degradations: Sequence[float],
    target: float,
    tolerance: float = 0.08,
    quantile: float = 0.75,
) -> bool:
    """Whether a run honoured a soft degradation target.

    The target is *soft* ("can be exceeded at high loads", §5.4), so we
    check that the given quantile of per-checkpoint degradations stays
    within ``target + tolerance`` rather than demanding every sample
    comply.
    """
    if not measured_degradations:
        return True
    if not 0 < quantile <= 1:
        raise ValueError(f"quantile must be in (0, 1]: {quantile}")
    ordered = sorted(measured_degradations)
    index = min(len(ordered) - 1, int(math.ceil(quantile * len(ordered))) - 1)
    return ordered[index] <= target + tolerance
