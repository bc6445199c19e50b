"""Recovery-policy analysis: pricing microreboot against failover.

The ``repro.recovery`` subsystem produces per-incident telemetry
(``recovery`` spans, blackouts, escalations); campaigns aggregate it
into counts and windows.  This module turns those aggregates into the
comparisons the three-way policy study reports: recovery-success
rates and side-by-side policy rows built from same-seed campaign
results.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping


def recovery_success_rate(succeeded: int, attempted: int) -> float:
    """Fraction of attempted microreboots that restored the VM.

    NaN when nothing was attempted (a failover-only campaign), so
    callers can distinguish "no data" from "everything failed".
    """
    if succeeded < 0 or attempted < 0:
        raise ValueError("counts must be >= 0")
    if succeeded > attempted:
        raise ValueError(
            f"succeeded ({succeeded}) cannot exceed attempted ({attempted})"
        )
    return succeeded / attempted if attempted else math.nan


def policy_comparison_rows(results: Mapping[str, object]) -> List[Dict]:
    """Side-by-side rows from same-seed campaigns, one per policy.

    ``results`` maps a policy name to the
    :class:`~repro.faults.campaign.CampaignResult` of a campaign run
    under that policy (same seed/config otherwise, so the fault
    schedules are identical and the columns differ only by policy).
    """
    rows: List[Dict] = []
    for policy, result in results.items():
        rows.append({
            "policy": policy,
            "mean_mttr_s": result.mean_mttr,
            "mean_unprotected_window_s": result.mean_unprotected_window,
            "recoveries": result.total_recoveries,
            "failed_recoveries": result.total_failed_recoveries,
            "recovery_success_rate": result.recovery_success_rate,
            "failovers": result.total_failovers,
            "dropped_vms": result.total_dropped_vms,
            "nines": result.pooled_nines,
        })
    return rows

