"""Measurement, model fitting and reporting for the experiments."""

from .availability import (
    AvailabilityComparison,
    ReplicationTimings,
    annual_downtime,
    availability_nines,
    compare_availability,
    double_failure_risk,
    downtime_per_failure_unprotected,
    observed_availability_nines,
)
from .integrity import (
    LatentWindowReport,
    latent_corruption_window,
)
from .model import (
    LinearFit,
    estimate_alpha,
    improvement_pct,
    linear_fit,
)
from .overhead import OverheadReport, measure_overhead
from .recovery import policy_comparison_rows, recovery_success_rate
from .report import (
    format_value,
    render_bars,
    render_series,
    render_table,
)
from .serving import (
    hedging_improvement_pct,
    strategy_comparison_rows,
)

__all__ = [
    "AvailabilityComparison",
    "LatentWindowReport",
    "LinearFit",
    "OverheadReport",
    "ReplicationTimings",
    "annual_downtime",
    "availability_nines",
    "compare_availability",
    "double_failure_risk",
    "downtime_per_failure_unprotected",
    "estimate_alpha",
    "format_value",
    "hedging_improvement_pct",
    "improvement_pct",
    "latent_corruption_window",
    "linear_fit",
    "measure_overhead",
    "observed_availability_nines",
    "policy_comparison_rows",
    "recovery_success_rate",
    "render_bars",
    "render_series",
    "render_table",
    "strategy_comparison_rows",
]
