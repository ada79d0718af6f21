"""Search-query influenza nowcasting: lagged correlation screening,
greedy query selection, weekly-updated least-squares nowcasts, and
table/figure emission, with a seeded synthetic-data generator."""

from .regress import (
    CoefficientStats,
    ModelFit,
    coefficient_stats,
    fit_ols,
    predict,
    rolling_weekly_fit,
)
from .selection import SelectionResult, greedy_select
from .stats import (
    CorrelationResult,
    NAReason,
    SignificanceConfig,
    correlate,
    pearson,
    rank_queries,
    student_t_two_sided_p,
)
from .timeseries import (
    QueryPanel,
    ShiftSpec,
    WeekStamp,
    WeeklySeries,
    scale_0_100,
    shift_pair,
    week_range,
    window,
)

__all__ = [
    "CoefficientStats",
    "CorrelationResult",
    "ModelFit",
    "NAReason",
    "QueryPanel",
    "SelectionResult",
    "ShiftSpec",
    "SignificanceConfig",
    "WeekStamp",
    "WeeklySeries",
    "coefficient_stats",
    "correlate",
    "fit_ols",
    "greedy_select",
    "pearson",
    "predict",
    "rank_queries",
    "rolling_weekly_fit",
    "scale_0_100",
    "shift_pair",
    "student_t_two_sided_p",
    "week_range",
    "window",
]

__version__ = "0.1.0"
