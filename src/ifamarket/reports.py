"""Machine-readable report rendering: CSV bodies with metadata headers.

Numbers are written with 15 significant digits so golden-file diffs stay
byte-stable across platforms.  Every report embeds the resolved run
configuration on a ``# config:`` line.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from .analytics import RegimeSummary, RollingMoments
from .config import RunConfig
from .empirical import CompareReport
from .regulation import RegulationPolicy
from .survey import RuleClassification


def fmt(x: float) -> str:
    return f"{x:.15g}"


def render_moments_csv(
    moments: RollingMoments, config: RunConfig, annualized: bool
) -> str:
    lines = [
        f"# rule: {config.rule}",
        f"# w: {config.w}",
        f"# policy: {config.policy}",
        f"# scale: {fmt(config.scale)}",
        f"# ticks_per_day: {config.ticks_per_day}",
        f"# window_days: {moments.window_days}",
        f"# annualized: {str(annualized).lower()}",
        f"# config: {config.to_json()}",
        "window_end_day,mean,vol,skew,kurt",
    ]
    for t in range(len(moments)):
        end_day = t + moments.window_days - 1
        lines.append(
            f"{end_day},{fmt(moments.mean[t])},{fmt(moments.vol[t])},"
            f"{fmt(moments.skew[t])},{fmt(moments.kurt[t])}"
        )
    return "\n".join(lines) + "\n"


def render_table1_csv(rows: Sequence[RegimeSummary], config: RunConfig) -> str:
    lines = [
        f"# rule: {config.rule}",
        f"# w: {config.w}",
        f"# init: {config.init}",
        f"# config: {config.to_json()}",
        "regime,n,avg_ann_mean,avg_ann_vol,skew_max_dev,kurt_max_dev",
    ]
    for row in rows:
        policy = RegulationPolicy.parse(row.policy)
        n = policy.trend_length if policy.regime != "none" else 0
        lines.append(
            f"{policy.regime},{n},{fmt(row.avg_annualized_mean)},"
            f"{fmt(row.avg_annualized_vol)},{fmt(row.skew_max_dev)},"
            f"{fmt(row.kurt_max_dev)}"
        )
    return "\n".join(lines) + "\n"


def render_survey_csv(rows: Sequence[RuleClassification], config: RunConfig) -> str:
    lines = [
        f"# init: {config.init}",
        f"# config: {config.to_json()}",
        "rule,w,transient,cycle_length,compression_ratio,class",
    ]
    for row in rows:
        lines.append(
            f"{row.rule_number},{row.w},{row.transient_length},"
            f"{row.cycle_length},{fmt(row.compression_ratio)},{row.rule_class}"
        )
    return "\n".join(lines) + "\n"


def render_compare_csv(report: CompareReport, config: RunConfig) -> str:
    lines = [f"# config: {config.to_json()}"]
    for moment, flag in report.envelope_flags.items():
        verdict = "n/a" if flag is None else ("inside" if flag else "outside")
        lines.append(f"# envelope_{moment}: {verdict}")
    lines.append("series,moment,min,q10,median,q90,max")
    # a series label, a file name by default, may need quoting
    body = io.StringIO()
    writer = csv.writer(body, lineterminator="\n")
    for row in report.rows:
        writer.writerow([row.series, row.moment, *(fmt(x) for x in row.summary)])
    return "\n".join(lines) + "\n" + body.getvalue()
