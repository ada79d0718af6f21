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
    rank_queries,
    student_t_two_sided_p,
)
from .timeseries import (
    QueryPanel,
    ShiftSpec,
    WeekStamp,
    WeeklySeries,
    scale_0_100,
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
    "predict",
    "rank_queries",
    "rolling_weekly_fit",
    "scale_0_100",
    "student_t_two_sided_p",
    "window",
]

__version__ = "0.1.0"
