"""Ingestion of real index price series and model-vs-data comparison.

Input CSVs carry a ``date,close`` header; dates must be strictly
increasing and closes strictly positive.  Returns default to log
returns.  The comparison report runs the identical rolling-moment
pipeline on each series and puts five-number summaries side by side,
flagging whether the model's median falls inside the empirical min-max
envelope per moment.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime
from typing import Optional, Sequence

import numpy as np

from .analytics import DayReturns, RollingMoments, quantile_summary

_MOMENTS = ("mean", "vol", "skew", "kurt")


@dataclass(frozen=True)
class PriceSeries:
    dates: tuple[date, ...]
    closes: np.ndarray
    label: str

    def __len__(self) -> int:
        return len(self.dates)


def load_price_csv(
    path: str,
    date_format: str = "%Y-%m-%d",
    label: Optional[str] = None,
) -> PriceSeries:
    """Parse and validate a ``date,close`` CSV.

    Malformed rows raise with their 1-based row number; unsorted or
    duplicate dates and non-positive closes are rejected.
    """
    with open(path, newline="") as handle:
        return _parse_price_csv(handle, date_format, label or path)


def _parse_price_csv(handle, date_format: str, label: str) -> PriceSeries:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty price CSV") from None
    if [h.strip().lower() for h in header] != ["date", "close"]:
        raise ValueError(f"expected header 'date,close', got {header!r}")
    dates: list[date] = []
    closes: list[float] = []
    for row_number, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ValueError(f"row {row_number}: expected 2 columns, got {len(row)}")
        raw_date, raw_close = row[0].strip(), row[1].strip()
        try:
            parsed = datetime.strptime(raw_date, date_format).date()
        except ValueError:
            raise ValueError(
                f"row {row_number}: bad date {raw_date!r} for format {date_format!r}"
            ) from None
        if not raw_close:
            raise ValueError(f"row {row_number}: missing close")
        try:
            close = float(raw_close)
        except ValueError:
            raise ValueError(f"row {row_number}: bad close {raw_close!r}") from None
        if not math.isfinite(close) or close <= 0:
            raise ValueError(f"row {row_number}: non-positive close {close}")
        if dates:
            if parsed == dates[-1]:
                raise ValueError(f"row {row_number}: duplicate date {parsed}")
            if parsed < dates[-1]:
                raise ValueError(
                    f"row {row_number}: dates not increasing ({parsed} after {dates[-1]})"
                )
        dates.append(parsed)
        closes.append(close)
    return PriceSeries(
        dates=tuple(dates),
        closes=np.array(closes, dtype=np.float64),
        label=label,
    )


def to_returns(prices: PriceSeries, kind: str = "log") -> DayReturns:
    """Daily returns from closes: simple p_t/p_{t-1} - 1 or log ln ratio."""
    if len(prices) < 2:
        raise ValueError("need at least two prices to compute returns")
    ratio = prices.closes[1:] / prices.closes[:-1]
    if kind == "simple":
        returns = ratio - 1.0
    elif kind == "log":
        returns = np.log(ratio)
    else:
        raise ValueError(f"unknown return kind {kind!r}; expected simple or log")
    return DayReturns(returns=returns, ticks_per_day=None, scale=None)


@dataclass(frozen=True)
class CompareRow:
    series: str
    moment: str
    summary: tuple[float, ...]  # (min, q10, median, q90, max)


@dataclass(frozen=True)
class CompareReport:
    rows: tuple[CompareRow, ...]
    envelope_flags: dict  # moment -> bool | None (no empirical data or window)

    def render_text(self) -> str:
        lines = [
            f"{'series':<24} {'moment':<6} {'min':>12} {'q10':>12} "
            f"{'median':>12} {'q90':>12} {'max':>12}"
        ]
        for row in self.rows:
            cells = " ".join(f"{x:>12.6g}" for x in row.summary)
            lines.append(f"{row.series:<24} {row.moment:<6} {cells}")
        lines.append("")
        empirical = len(self.rows) > len(_MOMENTS)  # rows besides the model's
        for moment in _MOMENTS:
            flag = self.envelope_flags.get(moment)
            if flag is not None:
                verdict = "inside" if flag else "OUTSIDE"
            else:
                verdict = "no defined window" if empirical else "no empirical data"
            lines.append(
                f"model {moment} median vs empirical min-max envelope: {verdict}"
            )
        return "\n".join(lines) + "\n"


def _summary(series: np.ndarray) -> tuple[float, ...]:
    """The five-number summary of the defined windows, five NaNs if none is."""
    return (math.nan,) * 5 if np.isnan(series).all() else quantile_summary(series)


def compare_report(
    model: RollingMoments,
    empirical: Sequence[RollingMoments] = (),
    labels: Optional[Sequence[str]] = None,
) -> CompareReport:
    """Side-by-side five-number summaries, model first.  A moment with no
    defined window in a series has NaN summaries and envelope flag None."""
    if labels is None:
        labels = [f"empirical-{i}" for i in range(len(empirical))]
    if len(labels) != len(empirical):
        raise ValueError("one label per empirical series required")
    rows: list[CompareRow] = []
    flags: dict = {}
    for moment in _MOMENTS:
        ours = _summary(getattr(model, moment))
        theirs = [_summary(getattr(series, moment)) for series in empirical]
        rows.append(CompareRow("model", moment, ours))
        rows.extend(CompareRow(name, moment, s) for name, s in zip(labels, theirs))
        if not theirs or any(math.isnan(s[2]) for s in [ours, *theirs]):
            flags[moment] = None
        else:
            low, high = min(s[0] for s in theirs), max(s[4] for s in theirs)
            flags[moment] = low <= ours[2] <= high
    return CompareReport(rows=tuple(rows), envelope_flags=flags)
