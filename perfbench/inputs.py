"""Inputs of the four workloads.

Nothing here imports ``ifamarket``: the benchmark generates plain
values and hands them to the program, through its CLI or its library.
"""

from __future__ import annotations

import random

WORKLOADS = ("anchor-w22", "regimes-w22", "rulespace-w22", "short-runs")

# The paper's headline configuration, spelled out so that a change of a
# CLI default cannot change what is measured.
ANCHOR = ["--rule", "54", "--w", "22", "--init", "alternating", "--policy", "none"]

# short-runs: calls per round, spread evenly over w = 8..22
SHORT_WIDTHS = range(8, 23)
SHORT_CALLS_PER_WIDTH = 16
SHORT_TICKS = (100, 2000)


def cli_ops(workload: str) -> list[tuple[str, list[str], str]]:
    """One round of a CLI workload: (op name, argv, file its check reads).

    Every op runs in a directory of its own round; its standard output
    goes to ``<op name>.stdout`` there.
    """
    if workload == "anchor-w22":
        return [
            ("cycle", ["cycle", *ANCHOR], "cycle.stdout"),
            ("simulate-rle", ["simulate", *ANCHOR, "--ticks-out", "F.rle"], "F.rle"),
            ("simulate-bits", ["simulate", *ANCHOR, "--ticks-out", "F.bits"], "F.bits"),
            (
                "moments",
                ["moments", *ANCHOR, "--annualize", "--out", "F.csv"],
                "F.csv",
            ),
        ]
    if workload == "regimes-w22":
        argv = ["table1", *ANCHOR, "--workers", "1", "--out", "table1.csv"]
        return [("table1", argv, "table1.csv")]
    if workload == "rulespace-w22":
        argv = ["survey", "--w", "22", "--init", "all_up", "--policy", "none",
                "--workers", "1", "--out", "survey.csv"]
        return [("survey", argv, "survey.csv")]
    raise ValueError(f"{workload} is not a CLI workload")


def short_runs(seed: int) -> list[tuple[int, int, str, str, int]]:
    """One round of short-runs: (rule, w, init, policy, ticks) per call.

    Each w in 8..22 gets the same calls: one at the middle of each of
    equal strata of 100..2000 ticks, and a fixed set of them, about the
    share of 2..w + 8 that lies above w, with a trend length n > w.  The
    seed draws n (from w + 1..w + 8 for those calls, from 2..w for the
    others), the rule, the init, the regime and the order of the calls.
    Which calls take the per-tick path and how many ticks each runs then
    do not depend on the seed, so neither does the work of a round.
    """
    rng = random.Random(seed)
    lo, hi = SHORT_TICKS
    k = SHORT_CALLS_PER_WIDTH
    calls = []
    for w in SHORT_WIDTHS:
        above = round(k * 8 / (w + 7))
        for stratum in range(k):
            ticks = lo + (hi - lo) * (2 * stratum + 1) // (2 * k)
            # a fixed scramble spreads the n > w calls over the strata
            if (7 * stratum + 3) % k < above:
                n = rng.randint(w + 1, w + 8)
            else:
                n = rng.randint(2, w)
            rule = rng.randrange(256)
            init = rng.choice(("alternating", "all_up"))
            policy = f"{rng.choice(('prick', 'prop', 'both'))}:{n}"
            calls.append((rule, w, init, policy, ticks))
    rng.shuffle(calls)
    return calls
