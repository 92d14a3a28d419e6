"""Run-to-run spread of the end-to-end metrics, in interleaved sets.

    python3 perfbench/spread.py

Runs ``run.py --trace 0`` RUNS times per set and workload, for each of
the SETS sets, each run with its own seed (set k uses seeds
k*RUNS + 1 ..), interleaving sets and workloads so that machine drift
reaches every set alike.  The workloads and the run length are those
of BENCHMARK.json.  For each
metric it prints each set's median and quartiles, as
``statistics.quantiles(values, n=4)`` gives them, the quartile distance
as a share of the median, and the change of each set's median against
the first set's, beside the bound in BENCHMARK.json.  The raw results
go to ``runs/spread.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for i in range(RUNS):
        for k in range(SETS):
            for workload in workloads:
                seed = k * RUNS + i + 1
                argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                results[workload][k].append(result)
                print(f"run {i + 1} set {k + 1} {workload} seed {seed}: failed "
                      f"{result['failed']}/{result['attempted']}", file=sys.stderr)
    (HERE / "runs").mkdir(exist_ok=True)
    (HERE / "runs" / "spread.json").write_text(json.dumps(results) + "\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("| workload | metric | set | median | q1 | q3 | spread | vs set 1 | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        first = None
        for metric in bounds:
            for k, runs in enumerate(results[workload]):
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                first = median if k == 0 else first
                print(f"| {workload} | {metric} | {k + 1} | {median:.6g} | {q1:.6g} | {q3:.6g} "
                      f"| {(q3 - q1) / median:.3f} | {median / first - 1:+.3f} | {bounds[metric]} |")
        for k, runs in enumerate(results[workload]):
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"| {workload} | failed share | {k + 1} | {shares} | | | | | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
