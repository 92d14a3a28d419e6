"""Daily aggregation, rolling moments, and regime comparison tables.

Ticks are grouped into days (2,048 ticks by default) and the day return
is the net tick count scaled by 2.5 basis points per tick.  Rolling
moments use a 256-day window by default: mean is the sample mean, vol
the sample standard deviation (N-1 divisor), skewness m3 / m2^(3/2) and
kurtosis m4 / m2**2 with population central moments (N divisor);
kurtosis is the standardized fourth moment, 3 for a normal.  Windows
of equal values have zero variance, decided exactly rather than from a
rounded m2: they get vol 0 and NaN skewness/kurtosis and are excluded
from deviation scans.

Shape moments are computed with explicit multiply/sqrt forms so that
rescaling returns by a power of two leaves every skewness and kurtosis
entry bit-identical (and scales means and vols exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Optional, Sequence

import numpy as np

from ._engine import ordered_map
from .ifa import IfaRule
from .market import Machine, TickSeries, WindowState, simulate
from .regulation import RegulationPolicy

DEFAULT_TICKS_PER_DAY = 2048
DEFAULT_SCALE = 0.00025  # 2.5 basis points per tick
DEFAULT_WINDOW_DAYS = 256
DEFAULT_DAYS_PER_YEAR = 252

# window values processed per vectorized block, sized so that a block's
# arrays stay in cache: each takes 8 bytes per value, 512 KiB, which is 256
# windows of 256 days.  On a 2-core x86 host with numpy 2.4 a call over
# 2,048 days took 4.8 ms with 256-window blocks against 11.1 ms with 65,536
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class DayReturns:
    """Daily returns; tick metadata is None for empirical series."""

    returns: np.ndarray
    ticks_per_day: Optional[int] = None
    scale: Optional[float] = None

    def __post_init__(self) -> None:
        if self.ticks_per_day is not None and self.scale is not None:
            bound = self.ticks_per_day * self.scale
            if self.returns.size and np.abs(self.returns).max() > bound + 1e-15:
                raise ValueError(
                    "day return exceeds ticks_per_day * scale bound"
                )

    def __len__(self) -> int:
        return int(self.returns.size)


@dataclass(frozen=True)
class RollingMoments:
    """Aligned rolling series; entry t covers days [t, t + window_days - 1]."""

    window_days: int
    mean: np.ndarray
    vol: np.ndarray
    skew: np.ndarray
    kurt: np.ndarray

    def __len__(self) -> int:
        return int(self.mean.size)


@dataclass(frozen=True)
class RegimeSummary:
    """One row of the regime-comparison table, and the ticks it covers."""

    policy: str
    avg_annualized_mean: float
    avg_annualized_vol: float
    skew_max_dev: float
    kurt_max_dev: float
    ticks: int


def aggregate_days(
    ticks: TickSeries | np.ndarray,
    ticks_per_day: int = DEFAULT_TICKS_PER_DAY,
    scale: float = DEFAULT_SCALE,
) -> DayReturns:
    """Day return = scale * (#UP - #DOWN) per day; trailing partial day dropped.

    Every nonzero move counts as an UP and every zero as a DOWN.
    """
    if ticks_per_day < 1:
        raise ValueError(f"ticks_per_day must be >= 1, got {ticks_per_day}")
    moves = ticks.moves if isinstance(ticks, TickSeries) else np.asarray(ticks)
    num_days = moves.size // ticks_per_day
    days = moves[: num_days * ticks_per_day].reshape(num_days, ticks_per_day)
    # each day's UPs are the set bits of its moves packed 8 to a byte
    ups = np.bitwise_count(np.packbits(days, axis=1)).sum(axis=1, dtype=np.int64)
    net = 2 * ups - ticks_per_day
    return DayReturns(
        returns=scale * net.astype(np.float64),
        ticks_per_day=ticks_per_day,
        scale=scale,
    )


def rolling_moments(
    returns: DayReturns | np.ndarray,
    window_days: int = DEFAULT_WINDOW_DAYS,
) -> RollingMoments:
    """Rolling mean/vol/skew/kurt over every window, sliding by one day."""
    r = returns.returns if isinstance(returns, DayReturns) else np.asarray(returns)
    r = r.astype(np.float64, copy=False)
    if window_days < 2:
        raise ValueError(f"window_days must be >= 2, got {window_days}")
    if r.size < window_days:
        raise ValueError(
            f"need at least window_days={window_days} days, got {r.size}"
        )
    num_windows = r.size - window_days + 1
    mean = np.empty(num_windows)
    vol = np.empty(num_windows)
    skew = np.empty(num_windows)
    kurt = np.empty(num_windows)
    block_windows = max(1, _BLOCK_VALUES // window_days)
    for lo in range(0, num_windows, block_windows):
        hi = min(lo + block_windows, num_windows)
        block = np.lib.stride_tricks.sliding_window_view(
            r[lo : hi + window_days - 1], window_days
        )
        m = block.mean(axis=1)
        dev = block - m[:, None]
        dev2 = dev * dev
        # the sum of squared deviations, taken once: mean() is sum() / N
        s2 = dev2.sum(axis=1)
        m2 = s2 / window_days
        # a window of equal values has no variance, whatever rounding left
        defined = block.max(axis=1) != block.min(axis=1)
        vol[lo:hi] = np.where(defined, np.sqrt(s2 / (window_days - 1)), 0.0)
        # the third and fourth powers overwrite dev, which is not read again
        m3 = np.multiply(dev2, dev, out=dev).mean(axis=1)
        m4 = np.multiply(dev2, dev2, out=dev).mean(axis=1)
        mean[lo:hi] = m
        with np.errstate(invalid="ignore", divide="ignore"):
            skew[lo:hi] = np.where(defined, m3 / (m2 * np.sqrt(m2)), np.nan)
            kurt[lo:hi] = np.where(defined, m4 / (m2 * m2), np.nan)
    return RollingMoments(
        window_days=window_days, mean=mean, vol=vol, skew=skew, kurt=kurt
    )


def annualize(
    moments: RollingMoments, days_per_year: int = DEFAULT_DAYS_PER_YEAR
) -> RollingMoments:
    """Scale mean by days/year and vol by its square root; shapes unchanged."""
    return replace(
        moments,
        mean=moments.mean * days_per_year,
        vol=moments.vol * math.sqrt(days_per_year),
        skew=moments.skew.copy(),
        kurt=moments.kurt.copy(),
    )


def max_deviation(moments: RollingMoments) -> tuple[float, float]:
    """(max |skew|, max |kurt - 3|) over windows with defined moments."""
    defined = ~np.isnan(moments.skew)
    if not defined.any():
        raise ValueError("no window has defined shape moments")
    return (
        float(np.abs(moments.skew[defined]).max()),
        float(np.abs(moments.kurt[defined] - 3.0).max()),
    )


def quantile_summary(series: Sequence[float] | np.ndarray) -> tuple[float, ...]:
    """(min, q10, median, q90, max) with linear interpolation between order
    statistics."""
    arr = np.asarray(series, dtype=np.float64)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        raise ValueError("quantile summary of an empty series")
    q = np.quantile(arr, [0.0, 0.10, 0.50, 0.90, 1.0])
    return tuple(float(x) for x in q)


def summarize_regime(
    rule: IfaRule,
    w: int,
    init: WindowState,
    policy: RegulationPolicy,
    ticks: Optional[int] = None,
    ticks_per_day: int = DEFAULT_TICKS_PER_DAY,
    scale: float = DEFAULT_SCALE,
    window_days: int = DEFAULT_WINDOW_DAYS,
    days_per_year: int = DEFAULT_DAYS_PER_YEAR,
    *,
    machine: Optional[Machine] = None,
) -> RegimeSummary:
    """Simulate, aggregate, roll, annualize, and reduce to one table row.

    ``ticks=None`` simulates the default span, transient + one full
    cycle of the policy's own orbit walked once, floored at enough ticks
    for one rolling window.  The run is on ``machine``, the rule's tables
    at this w (a new one if None).  A row whose every window has zero
    variance has defined mean and vol but NaN shape deviations.
    """
    floor = window_days * ticks_per_day
    series = simulate(rule, w, init, policy, ticks, min_ticks=floor, machine=machine)
    days = aggregate_days(series, ticks_per_day=ticks_per_day, scale=scale)
    rolled = annualize(
        rolling_moments(days, window_days=window_days), days_per_year
    )
    if np.isnan(rolled.skew).all():
        skew_dev = kurt_dev = math.nan
    else:
        skew_dev, kurt_dev = max_deviation(rolled)
    return RegimeSummary(
        policy=policy.describe(),
        avg_annualized_mean=float(rolled.mean.mean()),
        avg_annualized_vol=float(rolled.vol.mean()),
        skew_max_dev=skew_dev,
        kurt_max_dev=kurt_dev,
        ticks=len(series),
    )


def table1(
    rule: IfaRule,
    w: int,
    init: WindowState,
    n_range: Iterable[int] = range(2, 21),
    include_both: bool = False,
    ticks: Optional[int] = None,
    ticks_per_day: int = DEFAULT_TICKS_PER_DAY,
    scale: float = DEFAULT_SCALE,
    window_days: int = DEFAULT_WINDOW_DAYS,
    days_per_year: int = DEFAULT_DAYS_PER_YEAR,
    workers: int = 1,
) -> list[RegimeSummary]:
    """The unregulated row plus prick(n) / prop(n) rows for each n.

    Every regime is evaluated over the same tick span so the rows are
    comparable: by default, the span of the unregulated row, transient +
    one full cycle of the *unregulated* process as its one orbit walk
    finds it (regulated orbits are typically much shorter than one
    rolling window).  Rows come in order: none first, then by regime
    name and n.  All rows share one :class:`~ifamarket._engine.Machine`;
    with ``workers`` > 1 each worker process starts from a copy of it,
    made once the unregulated row has walked.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    machine = Machine(rule, w)
    row = partial(
        summarize_regime,
        rule,
        w,
        init,
        ticks_per_day=ticks_per_day,
        scale=scale,
        window_days=window_days,
        days_per_year=days_per_year,
        machine=machine,
    )
    # in output order: by regime name, then by n
    regimes = (["both"] if include_both else []) + ["prick", "prop"]
    trend_lengths = sorted(n_range)
    policies = [
        RegulationPolicy.parse(f"{regime}:{n}")
        for regime in regimes
        for n in trend_lengths
    ]
    # the unregulated row walks here, first, and sets the span; what the
    # rows' runs of that span share, if any of them needs a table, is then
    # built in the machine that the workers inherit or receive, so none
    # builds its own
    unregulated = row(RegulationPolicy("none"), ticks=ticks)
    machine.share(policies, init.bits, unregulated.ticks)
    row = partial(row, ticks=unregulated.ticks)
    return [unregulated] + ordered_map(row, policies, workers)
