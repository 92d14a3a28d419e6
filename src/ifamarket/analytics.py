"""Daily aggregation, rolling moments, and regime comparison tables.

Ticks are grouped into days (2,048 ticks by default) and the day return
is the net tick count scaled by 2.5 basis points per tick.  Rolling
moments use a 256-day window by default: mean is the sample mean, vol
the sample standard deviation (N-1 divisor), skewness m3 / m2^(3/2) and
kurtosis m4 / m2**2 with population central moments (N divisor);
kurtosis is the standardized fourth moment, 3 for a normal.  Windows
with zero variance get NaN skewness/kurtosis and are excluded from
deviation scans.

Shape moments are computed with explicit multiply/sqrt forms so that
rescaling returns by a power of two leaves every skewness and kurtosis
entry bit-identical (and scales means and vols exactly).
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .ifa import IfaRule, decode_rule
from .market import Machine, TickSeries, WindowState, find_cycle, simulate
from .regulation import RegulationPolicy

DEFAULT_TICKS_PER_DAY = 2048
DEFAULT_SCALE = 0.00025  # 2.5 basis points per tick
DEFAULT_WINDOW_DAYS = 256
DEFAULT_DAYS_PER_YEAR = 252

# cap on windows processed per vectorized block; bounds peak memory at
# roughly block * window_days * 8 bytes per power array
_BLOCK_WINDOWS = 1 << 16


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
    """One row of the regime-comparison table."""

    policy: str
    avg_annualized_mean: float
    avg_annualized_vol: float
    skew_max_dev: float
    kurt_max_dev: float


def aggregate_days(
    ticks: TickSeries | np.ndarray,
    ticks_per_day: int = DEFAULT_TICKS_PER_DAY,
    scale: float = DEFAULT_SCALE,
) -> DayReturns:
    """Day return = scale * (#UP - #DOWN) per day; trailing partial day dropped."""
    if ticks_per_day < 1:
        raise ValueError(f"ticks_per_day must be >= 1, got {ticks_per_day}")
    moves = ticks.moves if isinstance(ticks, TickSeries) else np.asarray(ticks)
    num_days = moves.size // ticks_per_day
    days = moves[: num_days * ticks_per_day].reshape(num_days, ticks_per_day)
    # an int64 sum of the uint8 moves, with no int64 copy of them
    net = 2 * days.sum(axis=1, dtype=np.int64) - ticks_per_day
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
    for lo in range(0, num_windows, _BLOCK_WINDOWS):
        hi = min(lo + _BLOCK_WINDOWS, num_windows)
        block = np.lib.stride_tricks.sliding_window_view(
            r[lo : hi + window_days - 1], window_days
        )
        m = block.mean(axis=1)
        dev = block - m[:, None]
        dev2 = dev * dev
        m2 = dev2.mean(axis=1)
        m3 = (dev2 * dev).mean(axis=1)
        m4 = (dev2 * dev2).mean(axis=1)
        mean[lo:hi] = m
        vol[lo:hi] = np.sqrt(dev2.sum(axis=1) / (window_days - 1))
        defined = m2 > 0.0
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
    rule: IfaRule | int,
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

    ``ticks=None`` simulates transient + one full cycle of the policy's
    own orbit, floored at enough ticks for one rolling window.  The
    orbit search and the simulation share ``machine``, the rule's
    tables at this w (a new one if None).
    """
    if isinstance(rule, int):
        rule = decode_rule(rule)
    if machine is None:
        machine = Machine(rule, w)
    if ticks is None:
        report = find_cycle(rule, w, init, policy, machine=machine)
        ticks = max(
            report.transient_length + report.cycle_length,
            window_days * ticks_per_day,
        )
    series = simulate(rule, w, init, policy, ticks, machine=machine)
    days = aggregate_days(series, ticks_per_day=ticks_per_day, scale=scale)
    rolled = annualize(
        rolling_moments(days, window_days=window_days), days_per_year
    )
    skew_dev, kurt_dev = max_deviation(rolled)
    return RegimeSummary(
        policy=policy.describe(),
        avg_annualized_mean=float(rolled.mean.mean()),
        avg_annualized_vol=float(rolled.vol.mean()),
        skew_max_dev=skew_dev,
        kurt_max_dev=kurt_dev,
    )


# the row function of a table1 worker process, set by _start_worker
_worker_row: Optional[Callable[[RegulationPolicy], RegimeSummary]] = None


def _start_worker(row: Callable[[RegulationPolicy], RegimeSummary]) -> None:
    global _worker_row
    _worker_row = row


def _run_worker_row(policy: RegulationPolicy) -> RegimeSummary:
    return _worker_row(policy)


def table1(
    rule: IfaRule | int,
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
    comparable: by default, transient + one full cycle of the
    *unregulated* process (regulated orbits are typically much shorter
    than one rolling window).  Rows come in order: none first, then by
    regime name and n.  All rows, and the orbit search for the span,
    share one :class:`~ifamarket._engine.Machine`; with ``workers`` > 1
    each worker process starts from a copy of it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if isinstance(rule, int):
        rule = decode_rule(rule)
    machine = Machine(rule, w)
    if ticks is None:
        report = find_cycle(rule, w, init, RegulationPolicy("none"), machine=machine)
        ticks = max(
            report.transient_length + report.cycle_length,
            window_days * ticks_per_day,
        )
    row = partial(
        summarize_regime,
        rule,
        w,
        init,
        ticks=ticks,
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
    # the unregulated row goes first, so that the machine holds its
    # tables, if the span needs any, before the regulated rows patch them
    rows = [row(RegulationPolicy("none"))]
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_start_worker,
            initargs=(row,),
        ) as pool:
            return rows + list(pool.map(_run_worker_row, policies))
    return rows + list(map(row, policies))
