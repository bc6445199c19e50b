"""Serving-study analysis: the user-visible strategy comparison.

Turns :class:`~repro.serving.StrategyOutcome` objects into the table
``repro serve`` prints and the README quotes — one row per
fault-tolerance strategy, identical crash, identical population.  The
functions are duck-typed on the outcome/report attributes so this
module stays import-light (the CLI loads :mod:`repro.analysis` for
every command, serving or not).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


def hedging_improvement_pct(unhedged_p999: float, hedged_p999: float) -> float:
    """How much request cloning shaved off the p999 tail (percent)."""
    if not (math.isfinite(unhedged_p999) and math.isfinite(hedged_p999)):
        return math.nan
    if unhedged_p999 <= 0:
        return math.nan
    return 100.0 * (1.0 - hedged_p999 / unhedged_p999)


def strategy_comparison_rows(
    outcomes: Dict[str, object],
    order: Optional[Sequence[str]] = None,
) -> List[dict]:
    """One table row per strategy, in ``order`` (default: dict order).

    Hedged columns appear only when at least one outcome carries a
    hedged report, so a ``--hedge 0`` run prints the narrow table.
    """
    chosen = [name for name in (order or outcomes) if name in outcomes]
    hedging = any(
        getattr(outcomes[name], "hedged_report", None) is not None
        for name in chosen
    )
    rows = []
    for name in chosen:
        outcome = outcomes[name]
        report = outcome.report
        row = {
            "strategy": name,
            "requests": report.requests,
            "lost": report.lost,
            "p50 (ms)": report.p50 * 1e3,
            "p99 (ms)": report.p99 * 1e3,
            "p999 (ms)": report.p999 * 1e3,
            "SLO viol (%)": report.violation_rate * 100,
            "blackout (s)": outcome.blackout,
        }
        if hedging:
            hedged = outcome.hedged_report
            if hedged is not None:
                row["hedged p999 (ms)"] = hedged.p999 * 1e3
                row["hedged lost"] = hedged.lost
                row["rescued"] = hedged.rescued
                row["p999 gain (%)"] = hedging_improvement_pct(
                    report.p999, hedged.p999
                )
            else:
                row["hedged p999 (ms)"] = math.nan
                row["hedged lost"] = math.nan
                row["rescued"] = math.nan
                row["p999 gain (%)"] = math.nan
        rows.append(row)
    return rows
