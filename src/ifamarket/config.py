"""Run configuration shared by the CLI subcommands.

A config serializes to a flat JSON object; every output file echoes the
fully resolved form in its metadata header, and feeding that JSON back
through ``--config`` reproduces the output byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Optional

from .analytics import (
    DEFAULT_DAYS_PER_YEAR,
    DEFAULT_SCALE,
    DEFAULT_TICKS_PER_DAY,
    DEFAULT_WINDOW_DAYS,
)
from .market import MAX_WINDOW_WIDTH, WindowState, window_from_literal
from .regulation import RegulationPolicy

# a tick count must fit in int64, as every count and sum of ticks does; so
# must days_per_year, which scales the rolling means as a float
MAX_TICKS = (1 << 63) - 1

# bounds on scale: a day return is at most scale * ticks_per_day, so the
# fourth powers of the deviations in a rolling window, and their sums,
# stay finite; and at scale 1e-50 the fourth power of a deviation of one
# tick is still far from underflow
MIN_SCALE = 1e-50
MAX_DAY_RETURN = 1e50

_FIELDS = {
    "rule": int,
    "w": int,
    "init": str,
    "policy": str,
    "ticks": (int, type(None)),
    "ticks_per_day": int,
    "scale": (int, float),
    "window_days": int,
    "days_per_year": int,
    "sweep_w": (str, type(None)),
}


@dataclass(frozen=True)
class RunConfig:
    rule: int = 54
    w: int = 22
    init: str = "alternating_up_first"
    policy: str = "none"
    ticks: Optional[int] = None  # None = transient + one full cycle
    ticks_per_day: int = DEFAULT_TICKS_PER_DAY
    scale: float = DEFAULT_SCALE
    window_days: int = DEFAULT_WINDOW_DAYS
    days_per_year: int = DEFAULT_DAYS_PER_YEAR
    # survey only: "LO:HI", the widths at which to classify ``rule``
    sweep_w: Optional[str] = None

    def validate(self) -> "RunConfig":
        if not 0 <= self.rule <= 255:
            raise ValueError(f"rule must be in [0, 255], got {self.rule}")
        if not 1 <= self.w <= MAX_WINDOW_WIDTH:
            raise ValueError(
                f"w must be in [1, {MAX_WINDOW_WIDTH}], got {self.w}"
            )
        self.initial_window()  # validates the literal against w
        self.regulation_policy()  # validates the policy literal
        if self.ticks is not None and not 0 <= self.ticks <= MAX_TICKS:
            raise ValueError(f"ticks must be in [0, 2**63 - 1], got {self.ticks}")
        if not 1 <= self.ticks_per_day <= MAX_TICKS:
            raise ValueError(
                f"ticks_per_day must be in [1, 2**63 - 1], got {self.ticks_per_day}"
            )
        if not MIN_SCALE <= self.scale <= MAX_DAY_RETURN / self.ticks_per_day:
            raise ValueError(
                f"scale must be in [1e-50, 1e50 / ticks_per_day], got {self.scale}"
            )
        if not 2 <= self.window_days <= MAX_TICKS // self.ticks_per_day:
            raise ValueError(
                "window_days must be in [2, (2**63 - 1) // ticks_per_day], "
                f"got {self.window_days}"
            )
        if not 1 <= self.days_per_year <= MAX_TICKS:
            raise ValueError(
                f"days_per_year must be in [1, 2**63 - 1], got {self.days_per_year}"
            )
        return self

    def initial_window(self) -> WindowState:
        return window_from_literal(self.init, self.w)

    def regulation_policy(self) -> RegulationPolicy:
        return RegulationPolicy.parse(self.policy)

    def with_overrides(self, **overrides) -> "RunConfig":
        filtered = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **filtered)

    def to_json(self) -> str:
        """Canonical one-line JSON (sorted keys); ``sweep_w`` only if set."""
        data = asdict(self)
        if self.sweep_w is None:
            del data["sweep_w"]
        return json.dumps(data, sort_keys=True, separators=(", ", ": "))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if isinstance(value, bool) or not isinstance(value, _FIELDS[key]):
                raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path) as handle:
            return cls.from_json(handle.read())
