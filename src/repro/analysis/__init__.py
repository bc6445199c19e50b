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
from .export import ResultsWriter, load_results
from .integrity import (
    LatentWindowReport,
    latent_corruption_window,
)
from .degradation import (
    checkpoint_degradation,
    respects_target,
    throughput_slowdown_pct,
    vm_pause_fraction,
    workload_slowdown_pct,
)
from .model import (
    LinearFit,
    estimate_alpha,
    improvement_pct,
    linear_fit,
    relative_change,
)
from .overhead import OverheadReport, measure_overhead
from .recovery import (
    blackout_comparison,
    expected_blackout,
    nines_per_policy,
    policy_comparison_rows,
    recovery_success_rate,
)
from .report import (
    format_value,
    render_bars,
    render_metrics,
    render_series,
    render_table,
)
from .series import TimeSeries, rate_of_progress
from .serving import (
    hedging_improvement_pct,
    slo_attainment,
    strategy_comparison_rows,
)

__all__ = [
    "AvailabilityComparison",
    "LatentWindowReport",
    "LinearFit",
    "OverheadReport",
    "ReplicationTimings",
    "ResultsWriter",
    "TimeSeries",
    "annual_downtime",
    "availability_nines",
    "blackout_comparison",
    "checkpoint_degradation",
    "compare_availability",
    "double_failure_risk",
    "downtime_per_failure_unprotected",
    "estimate_alpha",
    "expected_blackout",
    "format_value",
    "hedging_improvement_pct",
    "improvement_pct",
    "latent_corruption_window",
    "linear_fit",
    "load_results",
    "measure_overhead",
    "nines_per_policy",
    "observed_availability_nines",
    "policy_comparison_rows",
    "rate_of_progress",
    "recovery_success_rate",
    "relative_change",
    "render_bars",
    "render_metrics",
    "render_series",
    "render_table",
    "respects_target",
    "slo_attainment",
    "strategy_comparison_rows",
    "throughput_slowdown_pct",
    "vm_pause_fraction",
    "workload_slowdown_pct",
]
