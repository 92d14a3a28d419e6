"""Deterministic binary-tick market simulation driven by two-state,
two-symbol iterated finite automata, with trend-reversal regulation
overlays and rolling-moment analytics.
"""

from .ifa import IfaRule, decode_rule, encode_rule
from .market import (
    CycleReport,
    TickSeries,
    WindowState,
    find_cycle,
    simulate,
    window_from_literal,
)
from .regulation import RegulationPolicy, regulator
from .analytics import (
    DayReturns,
    RegimeSummary,
    RollingMoments,
    aggregate_days,
    annualize,
    max_deviation,
    quantile_summary,
    rolling_moments,
    summarize_regime,
    table1,
)
from .survey import RuleClassification, classify_rule, survey_rules, sweep_window
from .empirical import PriceSeries, compare_report, load_price_csv, to_returns
from .config import RunConfig

__version__ = "0.1.0"

__all__ = [
    "IfaRule",
    "decode_rule",
    "encode_rule",
    "WindowState",
    "TickSeries",
    "CycleReport",
    "window_from_literal",
    "simulate",
    "find_cycle",
    "RegulationPolicy",
    "regulator",
    "DayReturns",
    "RollingMoments",
    "RegimeSummary",
    "aggregate_days",
    "rolling_moments",
    "annualize",
    "max_deviation",
    "quantile_summary",
    "summarize_regime",
    "table1",
    "RuleClassification",
    "classify_rule",
    "survey_rules",
    "sweep_window",
    "PriceSeries",
    "load_price_csv",
    "to_returns",
    "compare_report",
    "RunConfig",
    "__version__",
]
