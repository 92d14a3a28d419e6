"""Benchmark of ifamarket on the source paper's runs.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

NAME is one of anchor-w22, regimes-w22, rulespace-w22, short-runs, or
``all`` for each in turn.  Every op's output is checked against the
independent oracles in ``oracles.py``; an op that exits non-zero or
whose output fails its check counts as failed.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  See
README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
HARNESS = HERE / "harness.py"
sys.path.insert(0, str(HERE))

from checks import Checker  # noqa: E402
from inputs import WORKLOADS, cli_ops, short_runs  # noqa: E402

# setup_s is the median of SETUP_SAMPLES set-ups, taken SETUP_PER_GAP
# before each round until there are enough, so that they spread over
# the run and not only its start
SETUP_SAMPLES = 15
SETUP_PER_GAP = 3
OP_TIMEOUT_S = 150

# (metric, span, field, unit): see README.md for what each should move
PER_LAYER = [
    ("engine.decision_table.calls", "engine.decision_table", "calls", "count"),
    ("engine.decision_table.self_s", "engine.decision_table", "self_s", "s"),
    ("engine.decision_table.distinct_ratio", "engine.decision_table", "distinct_ratio", "ratio"),
    ("engine.step_table.calls", "engine.step_table", "calls", "count"),
    ("engine.step_table.self_s", "engine.step_table", "self_s", "s"),
    ("engine.walk_visit.calls", "engine.walk_visit", "calls", "count"),
    ("engine.walk_visit.self_s", "engine.walk_visit", "self_s", "s"),
    ("engine.walk_visit.ticks", "engine.walk_visit", "work", "count"),
    ("engine.walk_visit.rss_rise_mb", "engine.walk_visit", "rss_rise_mb", "MB"),
    ("engine.walk_emit.calls", "engine.walk_emit", "calls", "count"),
    ("engine.walk_emit.self_s", "engine.walk_emit", "self_s", "s"),
    ("engine.walk_emit.ticks", "engine.walk_emit", "work", "count"),
    ("engine.walk_emit.ns_per_tick", "engine.walk_emit", "ns_per_work", "ns"),
    ("engine.walk_emit.rss_rise_mb", "engine.walk_emit", "rss_rise_mb", "MB"),
    ("market.find_cycle.calls", "market.find_cycle", "calls", "count"),
    ("market.simulate.calls", "market.simulate", "calls", "count"),
    ("market.simulate.self_s", "market.simulate", "self_s", "s"),
    ("market.next_move.calls", "market.next_move", "calls", "count"),
    ("ifa.process_window.self_s", "ifa.process_window", "self_s", "s"),
    ("regulation.apply_policy.calls", "regulation.apply_policy", "calls", "count"),
    ("regulation.apply_policy.self_s", "regulation.apply_policy", "self_s", "s"),
    ("analytics.summarize_regime.calls", "analytics.summarize_regime", "calls", "count"),
    ("analytics.summarize_regime.self_s", "analytics.summarize_regime", "self_s", "s"),
    ("analytics.aggregate_days.ticks", "analytics.aggregate_days", "work", "count"),
    ("analytics.aggregate_days.self_s", "analytics.aggregate_days", "self_s", "s"),
    ("analytics.rolling_moments.windows", "analytics.rolling_moments", "work", "count"),
    ("analytics.rolling_moments.self_s", "analytics.rolling_moments", "self_s", "s"),
    ("survey.classify_rule.calls", "survey.classify_rule", "calls", "count"),
    ("survey.classify_rule.self_s", "survey.classify_rule", "self_s", "s"),
    ("survey.compression_ratio.bytes", "survey.compression_ratio", "work", "bytes"),
    ("survey.compression_ratio.self_s", "survey.compression_ratio", "self_s", "s"),
    ("tickio.write_rle.bytes", "tickio.write_rle", "work", "bytes"),
    ("tickio.write_rle.self_s", "tickio.write_rle", "self_s", "s"),
    ("tickio.write_rle.rss_rise_mb", "tickio.write_rle", "rss_rise_mb", "MB"),
    ("tickio.write_bits.self_s", "tickio.write_bits", "self_s", "s"),
    ("reports.render.bytes", "reports.render", "work", "bytes"),
    ("reports.render.self_s", "reports.render", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Op:
    """One op's timing, exit status and, once checked, its ticks.

    ``output`` is the file its check reads, or for a short-runs call the
    call's inputs, whose moves are in ``moves``.
    """

    def __init__(self, name, seconds, code, rss_mb, output, round_no):
        self.name, self.seconds, self.rss_mb = name, seconds, rss_mb
        self.output, self.round_no = output, round_no
        self.ticks = 0
        self.moves = None  # short-runs: the call's realized moves
        self.failed = code != 0
        self.wrong = False


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv: list, cwd: Path, stdout_name: str) -> tuple[float, int, float]:
    """Run one child to its end: (wall seconds, exit code, peak RSS MB)."""
    with open(cwd / stdout_name, "w") as out, open(cwd / f"{stdout_name}.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out, stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def run_harness(workload: str, seed: int, workdir: Path, trace: bool, ops=()) -> tuple:
    """One harness child: (result dict or None, exit code, peak RSS MB)."""
    workdir.mkdir(parents=True)
    spec = workdir / "spec.json"
    spec.write_text(
        json.dumps(
            {"workload": workload, "seed": seed, "trace": trace, "ops": list(ops), "label": workdir.name}
        )
    )
    _, code, rss = spawn([sys.executable, str(HARNESS), "ops", str(spec)], workdir, "harness.out")
    result_path = workdir / "result.json"
    result = json.loads(result_path.read_text()) if code == 0 and result_path.exists() else None
    return result, code, rss


def time_setup(workload: str, seed: int, workdir: Path, count: int, times: list) -> None:
    """Append the times of ``count`` fresh interpreters that import
    ifamarket.cli and make the inputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    for _ in range(count):
        argv = [sys.executable, str(HARNESS), "setup", workload, str(seed)]
        seconds, code, _ = spawn(argv, workdir, "setup.out")
        if code != 0:
            err = (workdir / "setup.out.err").read_text().strip().splitlines()
            raise BenchError(f"set-up failed: {err[-1] if err else code}")
        times.append(seconds)


def cli_round(workload: str, workdir: Path, round_no: int) -> list:
    workdir.mkdir(parents=True)
    ops = []
    for name, argv, output in cli_ops(workload):
        seconds, code, rss = spawn(
            [sys.executable, "-m", "ifamarket", *argv], workdir, f"{name}.stdout"
        )
        ops.append(Op(name, seconds, code, rss, workdir / output, round_no))
    return ops


def short_round(seed: int, workdir: Path, round_no: int, trace: bool = False) -> tuple:
    """One harness child running every short-runs call: (ops, result)."""
    result, code, rss = run_harness("short-runs", seed, workdir, trace)
    calls = short_runs(seed)
    if result is None:
        return [Op("simulate", 0.0, code or 1, rss, None, round_no) for _ in calls], None
    moves = np.fromfile(workdir / "moves.bin", dtype=np.uint8)
    ops, offset = [], 0
    for call, seconds, code, length in zip(calls, result["times"], result["codes"], result["lengths"]):
        op = Op("simulate", seconds, code, rss, call, round_no)
        op.moves = moves[offset : offset + length]
        offset += length
        ops.append(op)
    return ops, result


def check(ops: list, checker: Checker) -> None:
    """Check every op that ran; a wrong or unreadable output fails it."""
    for op in ops:
        if op.failed:
            continue
        try:
            if op.name == "simulate":
                op.ticks = checker.check_short(op.output, op.moves)
            else:
                op.ticks = checker.check(op.name, op.output.read_bytes())
        except Exception as exc:  # any unreadable output is a failed check
            op.failed = op.wrong = True
            print(f"check failed: {op.name} (round {op.round_no}): {exc!r}", file=sys.stderr)


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> tuple:
    setups, rounds = [], []
    start = time.perf_counter()
    measured = 0.0  # the rounds' time, set-ups left out
    while not rounds or measured < seconds:
        count = min(SETUP_PER_GAP, SETUP_SAMPLES - len(setups))
        time_setup(workload, seed, workdir / "setup", count, setups)
        round_dir = workdir / f"round{len(rounds)}"
        round_start = time.perf_counter()
        if workload == "short-runs":
            rounds.append(short_round(seed, round_dir, len(rounds))[0])
        else:
            rounds.append(cli_round(workload, round_dir, len(rounds)))
        measured += time.perf_counter() - round_start
    time_setup(workload, seed, workdir / "setup", SETUP_SAMPLES - len(setups), setups)
    ops = [op for ops in rounds for op in ops]
    check(ops, Checker(seed))
    walls = [sum(op.seconds for op in ops) for ops in rounds]
    rates = [sum(op.ticks for op in ops) / wall for ops, wall in zip(rounds, walls)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1000.0 * statistics.median(op.seconds for op in ops), "ms"),
        "ticks_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (max(op.rss_mb for op in ops), "MB"),
    }
    print(f"{workload}: {len(rounds)} rounds of {len(rounds[0])} ops in {time.perf_counter() - start:.1f} s")
    return ops, metrics


def _empty_layer() -> dict:
    return {"calls": 0, "self_s": 0.0, "work": 0, "rss_rise_mb": 0.0, "digests": []}


def _merge(layers: dict, part: dict) -> None:
    for name, entry in part.items():
        total = layers.setdefault(name, _empty_layer())
        total["calls"] += entry["calls"]
        total["self_s"] += entry["self_s"]
        total["work"] += entry["work"]
        total["rss_rise_mb"] = max(total["rss_rise_mb"], entry["rss_rise_mb"])
        total["digests"] += entry["digests"]


def _layer_value(entry: dict, field: str) -> float:
    if field == "distinct_ratio":
        return len(set(entry["digests"])) / entry["calls"] if entry["calls"] else 0.0
    if field == "ns_per_work":
        return 1e9 * entry["self_s"] / entry["work"] if entry["work"] else 0.0
    return entry[field]


def traced(workload: str, seed: int, workdir: Path, spans_path: Path) -> tuple:
    """Each op untraced, then traced, in fresh in-process harness children."""
    ops, layers, absent = [], {}, set()
    plain_s = traced_s = 0.0
    if workload == "short-runs":
        targets = [("short-runs", None)]
    else:
        targets = [(name, output) for name, _, output in cli_ops(workload)]
    with open(spans_path, "wb") as spans:
        with gzip.open(spans, "wt") as header:
            header.write("op\tid\tname\tparent\tstart_s\tend_s\twork\trss_rise_mb\tdigest\n")
        for name, output in targets:
            for trace in (False, True):
                opdir = workdir / f"{name}-{'traced' if trace else 'plain'}"
                if workload == "short-runs":
                    part, result = short_round(seed, opdir, int(trace), trace)
                else:
                    result, code, rss = run_harness(workload, seed, opdir, trace, [name])
                    seconds = result["times"][0] if result else 0.0
                    code = result["codes"][0] if result else code or 1
                    part = [Op(name, seconds, code, rss, opdir / output, int(trace))]
                ops += part
                elapsed = sum(op.seconds for op in part)
                if not trace:
                    plain_s += elapsed
                    continue
                traced_s += elapsed
                if result is not None:
                    _merge(layers, result["layers"])
                    absent.update(result["absent"])
                    spans.write((opdir / "spans.tsv.gz").read_bytes())
    check(ops, Checker(seed))
    metrics = {
        metric: (_layer_value(layers.get(span, _empty_layer()), field), unit)
        for metric, span, field, unit in PER_LAYER
    }
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    for name in sorted(absent):
        print(f"absent: {name} (its metrics read 0)")
    print(f"{workload}: traced run, untraced {plain_s:.3f} s, traced {traced_s:.3f} s; spans in {spans_path}")
    return ops, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    RUNS.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = RUNS / f"{tag}-{os.getpid()}"
    try:
        if trace:
            ops, metrics = traced(workload, seed, workdir, RUNS / f"{tag}.spans.tsv.gz")
        else:
            ops, metrics = end_to_end(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{workload}: attempted {result['attempted']} ops, failed {result['failed']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    (RUNS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ifamarket" / "cli.py").is_file():
        print(f"perfbench: no ifamarket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
