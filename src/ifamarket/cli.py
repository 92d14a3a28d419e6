"""Command-line interface.

Subcommands: simulate | cycle | table1 | survey | moments | compare.
Flags mirror the run-config fields; ``--config FILE`` loads a JSON
config first and explicit flags override it.  All outputs are
deterministic: rerunning a subcommand with the config echoed in any
output file reproduces that file byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NoReturn, Optional, Sequence

from .analytics import (
    aggregate_days,
    annualize,
    rolling_moments,
    table1,
)
from .config import RunConfig
from .empirical import compare_report, load_price_csv, to_returns
from .ifa import decode_rule
from .market import MAX_WINDOW_WIDTH, TickSeries, find_cycle, simulate
from .regulation import MAX_TREND_LENGTH
from .reports import (
    fmt,
    render_compare_csv,
    render_moments_csv,
    render_survey_csv,
    render_table1_csv,
)
from .survey import survey_rules, sweep_window
from . import tickio


class _Parser(argparse.ArgumentParser):
    """Reports a malformed argv as every command reports bad input."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(2, f"ifamarket: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--rule", type=int, help="rule number 0..255 (default 54)")
    parser.add_argument("--w", type=int, help="lookback window width (default 22)")
    parser.add_argument(
        "--init",
        help="initial window: alternating | all_up | U/D string of length w",
    )
    parser.add_argument(
        "--policy", help="regulation policy: none | prick:N | prop:N | both:N"
    )
    parser.add_argument(
        "--ticks", type=int, help="tick count (default: transient + one cycle)"
    )
    parser.add_argument("--ticks-per-day", type=int, help="ticks per day (2048)")
    parser.add_argument("--scale", type=float, help="return per tick (0.00025)")
    parser.add_argument("--window-days", type=int, help="rolling window (256)")
    parser.add_argument("--days-per-year", type=int, help="annualization (252)")


def _sweep_widths(sweep: Optional[str]) -> Sequence[int]:
    """The widths of a ``LO:HI`` sweep, or none if ``sweep`` is None."""
    if sweep is None:
        return ()
    lo, sep, hi = sweep.partition(":")
    if not (sep and lo.isdigit() and hi.isdigit()):
        raise ValueError(f"bad --sweep-w {sweep!r}; expected LO:HI")
    if not 1 <= int(lo) <= int(hi) <= MAX_WINDOW_WIDTH:
        raise ValueError(
            f"bad --sweep-w {sweep!r}; expected 1 <= LO <= HI <= {MAX_WINDOW_WIDTH}"
        )
    return range(int(lo), int(hi) + 1)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file overridden by the flags and validated, a sweep's
    initial window at each of its widths in place of w."""
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    config = config.with_overrides(
        rule=args.rule,
        w=args.w,
        init=args.init,
        policy=args.policy,
        ticks=args.ticks,
        ticks_per_day=args.ticks_per_day,
        scale=args.scale,
        window_days=args.window_days,
        days_per_year=args.days_per_year,
        sweep_w=getattr(args, "sweep_w", None),
    )
    if config.sweep_w is not None and args.command != "survey":
        raise ValueError(f"config key 'sweep_w' is for survey, not {args.command}")
    widths = _sweep_widths(config.sweep_w)
    for w in widths:
        try:
            config.with_overrides(w=w).initial_window()
        except ValueError as exc:
            message = f"--init does not fit --sweep-w {config.sweep_w}: {exc}"
            raise ValueError(message) from None
    config.with_overrides(init="all_up" if widths else None).validate()
    return config


def _simulate_config(
    config: RunConfig, need_rolling_window: bool = False
) -> tuple[RunConfig, TickSeries]:
    """The config with its ticks resolved, and the series it describes.

    Unset ticks become the default span of :func:`simulate`, transient +
    one full cycle, walked once.  Commands that feed the rolling pipeline
    floor the span at one full rolling window of days (regulated orbits
    can be much shorter).
    """
    floor = config.window_days * config.ticks_per_day if need_rolling_window else 0
    rule, policy = decode_rule(config.rule), config.regulation_policy()
    series = simulate(
        rule, config.w, config.initial_window(), policy, config.ticks, min_ticks=floor
    )
    return config.with_overrides(ticks=len(series)), series


def _write_output(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config, series = _simulate_config(_config_from_args(args))
    ticks_out = args.ticks_out
    if ticks_out is None and args.returns_out is None:
        ticks_out = "-"
    if ticks_out is not None:
        fmt_name = args.ticks_format or (
            "bits" if ticks_out.endswith(".bits") else "rle"
        )
        binary = fmt_name == "bits"
        write = tickio.write_bits if binary else tickio.write_rle
        if ticks_out == "-":
            write(series, sys.stdout.buffer if binary else sys.stdout)
        else:
            mode, newline = ("wb", None) if binary else ("w", "")
            with open(ticks_out, mode, newline=newline) as handle:
                write(series, handle)
    if args.returns_out is not None:
        days = aggregate_days(series, config.ticks_per_day, config.scale)
        lines = [f"# config: {config.to_json()}", "day,return"]
        for i, r in enumerate(days.returns):
            lines.append(f"{i},{fmt(r)}")
        _write_output(args.returns_out, "\n".join(lines) + "\n")
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = find_cycle(
        decode_rule(config.rule),
        config.w,
        config.initial_window(),
        config.regulation_policy(),
    )
    payload = {
        "transient_length": report.transient_length,
        "cycle_length": report.cycle_length,
        "config": json.loads(config.to_json()),
    }
    _write_output(
        args.out, json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not 1 <= args.n_min <= args.n_max <= MAX_TREND_LENGTH:
        raise ValueError(
            f"bad trend-length range {args.n_min}..{args.n_max}; "
            "expected 1 <= N-MIN <= N-MAX <= 2**60"
        )
    rows = table1(
        decode_rule(config.rule),
        config.w,
        config.initial_window(),
        n_range=range(args.n_min, args.n_max + 1),
        include_both=args.include_both,
        ticks=config.ticks,
        ticks_per_day=config.ticks_per_day,
        scale=config.scale,
        window_days=config.window_days,
        days_per_year=config.days_per_year,
        workers=args.workers,
    )
    _write_output(args.out, render_table1_csv(rows, config))
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    widths = _sweep_widths(config.sweep_w)
    if config.regulation_policy().regime != "none":
        raise ValueError(
            f"survey classifies unregulated orbits; --policy must be none, "
            f"got {config.policy!r}"
        )
    fraction, threshold = args.long_cycle_fraction, args.compression_threshold
    if not 0 < fraction <= 1:
        raise ValueError(
            f"--long-cycle-fraction must be finite and in (0, 1], got {fraction}"
        )
    if not 0 <= threshold < math.inf:
        raise ValueError(
            f"--compression-threshold must be finite and >= 0, got {threshold}"
        )
    if widths:
        rows = sweep_window(
            decode_rule(config.rule),
            widths,
            init_kind=config.init,
            long_cycle_fraction=fraction,
            compression_threshold=threshold,
            workers=args.workers,
        )
    else:
        rows = survey_rules(
            config.w,
            config.initial_window(),
            long_cycle_fraction=fraction,
            compression_threshold=threshold,
            workers=args.workers,
        )
    _write_output(args.out, render_survey_csv(rows, config))
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    config, series = _simulate_config(
        _config_from_args(args), need_rolling_window=True
    )
    days = aggregate_days(series, config.ticks_per_day, config.scale)
    rolled = rolling_moments(days, config.window_days)
    if args.annualize:
        rolled = annualize(rolled, config.days_per_year)
    _write_output(args.out, render_moments_csv(rolled, config, args.annualize))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config, series = _simulate_config(
        _config_from_args(args), need_rolling_window=True
    )
    days = aggregate_days(series, config.ticks_per_day, config.scale)
    model = rolling_moments(days, config.window_days)
    empirical = []
    labels = []
    for price_arg in args.prices:
        label, sep, path = price_arg.partition("=")
        if not sep:
            label, path = os.path.basename(price_arg), price_arg
        prices = load_price_csv(path, date_format=args.date_format, label=label)
        returns = to_returns(prices, kind=args.return_kind)
        empirical.append(rolling_moments(returns, args.empirical_window))
        labels.append(label)
    report = compare_report(model, empirical, labels)
    _write_output(args.out, report.render_text())
    if args.csv_out:
        _write_output(args.csv_out, render_compare_csv(report, config))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ifamarket",
        description=(
            "Deterministic automaton-driven market simulation, regulation "
            "sweeps, rule surveys, and rolling-moment reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a realized tick series")
    _add_config_flags(p_sim)
    p_sim.add_argument("--ticks-out", metavar="FILE", help="tick export path")
    p_sim.add_argument(
        "--ticks-format", choices=("rle", "bits"), help="export format"
    )
    p_sim.add_argument(
        "--returns-out", metavar="FILE", help="day-returns CSV path"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_cycle = sub.add_parser("cycle", help="exact transient and cycle length")
    _add_config_flags(p_cycle)
    p_cycle.add_argument("--out", metavar="FILE", help="default: stdout")
    p_cycle.set_defaults(func=_cmd_cycle)

    p_table = sub.add_parser("table1", help="regime-comparison table CSV")
    _add_config_flags(p_table)
    p_table.add_argument("--n-min", type=int, default=2)
    p_table.add_argument("--n-max", type=int, default=20)
    p_table.add_argument(
        "--include-both", action="store_true", help="add both:n rows"
    )
    p_table.add_argument(
        "--workers", type=int, default=os.cpu_count() or 1, help="parallel workers"
    )
    p_table.add_argument("--out", metavar="FILE", help="default: stdout")
    p_table.set_defaults(func=_cmd_table1)

    p_survey = sub.add_parser(
        "survey", help="classify all 256 rules, or sweep w for one rule"
    )
    _add_config_flags(p_survey)
    p_survey.add_argument(
        "--sweep-w", metavar="LO:HI", help="sweep windows for --rule instead"
    )
    p_survey.add_argument("--long-cycle-fraction", type=float, default=0.25)
    p_survey.add_argument("--compression-threshold", type=float, default=0.9)
    p_survey.add_argument(
        "--workers", type=int, default=os.cpu_count() or 1, help="parallel workers"
    )
    p_survey.add_argument("--out", metavar="FILE", help="default: stdout")
    p_survey.set_defaults(func=_cmd_survey)

    p_mom = sub.add_parser("moments", help="rolling-moment series CSV")
    _add_config_flags(p_mom)
    p_mom.add_argument(
        "--annualize", action="store_true", help="annualize mean and vol"
    )
    p_mom.add_argument("--out", metavar="FILE", help="default: stdout")
    p_mom.set_defaults(func=_cmd_moments)

    p_cmp = sub.add_parser(
        "compare", help="model vs empirical moment summaries"
    )
    _add_config_flags(p_cmp)
    p_cmp.add_argument(
        "--prices",
        action="append",
        default=[],
        metavar="[LABEL=]FILE",
        help="empirical date,close CSV (repeatable)",
    )
    p_cmp.add_argument("--return-kind", choices=("log", "simple"), default="log")
    p_cmp.add_argument(
        "--empirical-window", type=int, default=252, help="empirical rolling window"
    )
    p_cmp.add_argument("--date-format", default="%Y-%m-%d")
    p_cmp.add_argument("--out", metavar="FILE", help="text report (default: stdout)")
    p_cmp.add_argument("--csv-out", metavar="FILE", help="CSV summary path")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"ifamarket: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
