"""Write the outputs of a fixed list of CLI commands, one file each.

A change that claims to leave every output as it was is checked by
running this script on both checkouts and comparing the two folders:

  python scripts/golden_outputs.py OUT_NEW
  python scripts/golden_outputs.py --repo ../other-checkout OUT_OLD
  diff -r OUT_OLD OUT_NEW

``--repo`` names the checkout whose ``src`` is run (default: the one
this script is in).  Each command runs as ``python -m ifamarket`` in
OUTDIR, with its standard output written to ``<name>.stdout``; the
files a command writes itself (tick exports) land in OUTDIR too.  The
anchor is rule 54 at w = 22 from the alternating window; the w = 22
commands take about a minute in all on a 2-core host.

Exit status: 0 if every command exited 0, else 1 (a command's standard
error is then printed).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ANCHOR = ["--rule", "54", "--w", "22", "--init", "alternating", "--policy", "none"]

# (name, argv); the names are the output files' stems
COMMANDS = [
    ("cycle", ["cycle", *ANCHOR]),
    ("simulate-rle", ["simulate", *ANCHOR, "--ticks-out", "simulate.rle"]),
    ("simulate-bits", ["simulate", *ANCHOR, "--ticks-out", "simulate.bits"]),
    ("moments", ["moments", *ANCHOR, "--annualize"]),
    # a long orbit of an affine machine that decides c = 1 on the zero window
    ("moments-rule99", ["moments", "--rule", "99", "--w", "22", "--annualize"]),
    ("table1-workers1", ["table1", *ANCHOR, "--workers", "1"]),
    ("table1-workers2", ["table1", *ANCHOR, "--workers", "2"]),
    ("table1-w20-both", ["table1", "--w", "20", "--include-both", "--workers", "2"]),
    ("table1-w14-both", ["table1", "--w", "14", "--include-both", "--workers", "2"]),
    # 386 unregulated cycles, none of them held by an orbit search
    ("table1-w21", ["table1", "--w", "21", "--workers", "2"]),
    # a machine that is not bijective, whose rows close within the scalar budget
    ("table1-rule35-both", [
        "table1", "--rule", "35", "--w", "22", "--init", "all_up",
        "--include-both", "--workers", "2",
    ]),
    ("table1-rule150", ["table1", "--rule", "150", "--w", "22", "--workers", "2"]),
    ("survey-all-up", ["survey", "--w", "22", "--init", "all_up", "--workers", "2"]),
    # rules 54, 99, 156 and 201 have long orbits here, with c = 0 and c = 1
    ("survey-alternating", [
        "survey", "--w", "22", "--init", "alternating", "--workers", "2",
    ]),
    ("moments-prop15", ["moments", "--policy", "prop:15", "--annualize"]),
    ("simulate-prick9", ["simulate", "--policy", "prick:9"]),
    # a trend length n > w
    ("simulate-rule156-prick13", [
        "simulate", "--rule", "156", "--w", "8", "--init", "all_up",
        "--policy", "prick:13",
    ]),
    ("compare-rule30", ["compare", "--rule", "30", "--w", "12"]),
    # runs of 2**w / 8 ticks or more at a small w: the first closes within
    # the 4w-tick scalar probe (29 ticks), the second outlasts it and cuts
    ("simulate-rule110-both2", [
        "simulate", "--rule", "110", "--w", "10", "--init", "all_up",
        "--policy", "both:2", "--ticks", "2000",
    ]),
    ("simulate-rule54-prick4", [
        "simulate", "--rule", "54", "--w", "10", "--policy", "prick:4",
        "--ticks", "2000",
    ]),
    # explicit spans of the anchor: the first writes 1,000,000 ticks by lag
    # doubling without closing, the second 5,000,000, which repeat the
    # cycle of 4,194,303 past its end
    ("simulate-ticks-1m", [
        "simulate", *ANCHOR, "--ticks", "1000000", "--ticks-out", "ticks-1m.bits",
    ]),
    ("simulate-ticks-5m", [
        "simulate", *ANCHOR, "--ticks", "5000000", "--ticks-out", "ticks-5m.bits",
    ]),
    # a regulated orbit of 1.4M ticks on a bijective affine machine: a cut
    ("cycle-prick16", ["cycle", "--policy", "prick:16"]),
    # a long regulated run that no table1 shares a cut state for
    ("simulate-prop2-1m", [
        "simulate", "--policy", "prop:2", "--ticks", "1000000",
        "--ticks-out", "prop2-1m.bits",
    ]),
    # a machine that is not bijective, whose orbit outlasts the direct
    # walk's cap for a cut and walks on to 2**w
    ("cycle-rule35-prick6", [
        "cycle", "--rule", "35", "--w", "12", "--init", "all_up", "--policy", "prick:6",
    ]),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="folder for the outputs")
    parser.add_argument(
        "--repo",
        type=Path,
        default=Path(__file__).resolve().parents[1],
        help="checkout whose src is run (default: this script's)",
    )
    args = parser.parse_args(argv)
    src = (args.repo / "src").resolve()
    if not (src / "ifamarket").is_dir():
        parser.error(f"no src/ifamarket in {args.repo}")
    args.outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    failed = 0
    for name, command in COMMANDS:
        start = time.perf_counter()
        with open(args.outdir / f"{name}.stdout", "wb") as out:
            done = subprocess.run(
                [sys.executable, "-m", "ifamarket", *command],
                cwd=args.outdir,
                env=env,
                stdout=out,
                stderr=subprocess.PIPE,
            )
        seconds = time.perf_counter() - start
        print(f"{name}: exit {done.returncode} in {seconds:.2f} s")
        if done.returncode:
            failed += 1
            sys.stderr.write(done.stderr.decode(errors="replace"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
