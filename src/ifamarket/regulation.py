"""Government intervention: forced reversal of trends that run too long.

A policy is a regime (none / prick / prop / both) plus a trend length n.
Pricking a bubble forces the next realized move DOWN once the trailing
run of realized UP moves reaches n; propping a crash forces UP once the
trailing DOWN run reaches n.  The trigger fires on run length >= n, so
initial windows already containing longer runs are handled uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

_REGIMES = ("none", "prick", "prop", "both")

# the largest trend length a policy literal may give: a cycle passes each
# of its held windows at most once, adding n - w ticks, so a transient
# plus cycle of at most 2**30 + 4 * (n - w) ticks stays inside int64
MAX_TREND_LENGTH = 1 << 60


@dataclass(frozen=True)
class RegulationPolicy:
    """Intervention regime and trigger trend length."""

    regime: str = "none"
    trend_length: Optional[int] = None

    def __post_init__(self) -> None:
        if self.regime not in _REGIMES:
            raise ValueError(
                f"unknown regime {self.regime!r}; expected one of {_REGIMES}"
            )
        if self.regime == "none":
            if self.trend_length is not None:
                raise ValueError("regime 'none' takes no trend length")
        else:
            n = self.trend_length
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError(
                    f"trend length must be an integer >= 1, got {n!r}"
                )

    @property
    def pricks(self) -> bool:
        return self.regime in ("prick", "both")

    @property
    def props(self) -> bool:
        return self.regime in ("prop", "both")

    def describe(self) -> str:
        """Literal form: ``none``, ``prick:6``, ``prop:17``, ``both:6``."""
        if self.regime == "none":
            return "none"
        return f"{self.regime}:{self.trend_length}"

    @classmethod
    def parse(cls, literal: str) -> "RegulationPolicy":
        """Parse the literal syntax accepted by the CLI and config files."""
        text = literal.strip()
        if text == "none":
            return cls("none")
        regime, sep, tail = text.partition(":")
        if regime not in _REGIMES or regime == "none" or not sep:
            raise ValueError(
                f"bad policy literal {literal!r}; expected 'none' or "
                "'prick:N' / 'prop:N' / 'both:N'"
            )
        try:
            n = int(tail)
        except ValueError:
            raise ValueError(f"bad trend length in policy literal {literal!r}") from None
        if n > MAX_TREND_LENGTH:
            raise ValueError(
                f"trend length in policy literal {literal!r} is above 2**60"
            )
        return cls(regime, n)


def regulator(policy: RegulationPolicy, w: int) -> Callable:
    """``regulate(window, intended)``: the realized move(s) under ``policy``.

    ``regulate`` takes w-bit window(s) and the move(s) the rule intends
    there.  The newest min(n, w) window bits stand for the trailing run:
    the trigger fires when they are all UP (prick) or all DOWN (prop).
    For n > w this is the machine clamped to n = w; ``market`` stretches
    its orbit back to the true one.  The override sets the move opposite
    to the run, a no-op when the investor already intended that.  Only
    operators that a Python int and a numpy array (uint32 windows, uint8
    moves) share are used, so one function serves a tick and a table.
    Binding the policy once keeps a walk that regulates one window at a
    time from looking it up again on every tick.
    """
    if policy.regime == "none":
        return lambda window, intended: intended
    run_mask = (1 << min(policy.trend_length, w)) - 1
    pricks, props = policy.pricks, policy.props

    def regulate(window, intended):
        newest = window & run_mask
        if pricks:
            intended = intended & (newest != run_mask)
        if props:
            intended = intended | (newest == 0)
        return intended

    return regulate
