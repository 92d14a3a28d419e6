"""Child process that runs ops inside one interpreter, traced or not.

    python3 perfbench/harness.py setup WORKLOAD SEED
    python3 perfbench/harness.py ops SPEC.json

``setup`` imports ``ifamarket.cli`` and generates the workload's inputs,
nothing more: the benchmark times it from spawn to exit.  ``ops`` runs,
in the directory of SPEC, the CLI ops that SPEC names through
``ifamarket.cli.main``, or for short-runs one round of
``ifamarket.simulate`` calls; it times each op in-process and writes
``result.json`` there.  With tracing on, every function in
``TARGETS`` is wrapped, in its defining module and in every module that
imported it by name, and each call records a span.  Spans stay in
memory until the ops are done; then they go to a gzipped TSV file and
are summed per span name.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import os
import resource
import sys
import time
import traceback
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import cli_ops, short_runs  # noqa: E402


def _digest(args, kwargs, result):
    import numpy as np

    data = np.ascontiguousarray(result)
    return f"{data.size:x}-{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


def _size(args, kwargs, result):
    return len(result)


def _input_size(args, kwargs, result):
    return len(args[0])


def _packed_bytes(args, kwargs, result):
    return (len(args[0]) + 7) // 8


def _orbit_ticks(args, kwargs, result):
    return sum(result)


def _written(args, kwargs, result):
    return args[1].tell()


# (span name, defining module, function, work count, also an RSS rise,
# also a digest of the result)
TARGETS = [
    ("engine.decision_table", "ifamarket._engine", "decision_table", None, False, _digest),
    ("engine.step_table", "ifamarket._engine", "step_table", None, False, None),
    ("engine.walk_visit", "ifamarket._engine", "walk_visit", _orbit_ticks, True, None),
    ("engine.walk_emit", "ifamarket._engine", "walk_emit", _size, True, None),
    ("market.find_cycle", "ifamarket.market", "find_cycle", None, False, None),
    ("market.simulate", "ifamarket.market", "simulate", _size, False, None),
    ("market.next_move", "ifamarket.market", "next_move", None, False, None),
    ("ifa.process_window", "ifamarket.ifa", "process_window", None, False, None),
    ("regulation.apply_policy", "ifamarket.regulation", "apply_policy", None, False, None),
    ("analytics.summarize_regime", "ifamarket.analytics", "summarize_regime", None, False, None),
    ("analytics.aggregate_days", "ifamarket.analytics", "aggregate_days", _input_size, False, None),
    ("analytics.rolling_moments", "ifamarket.analytics", "rolling_moments", _size, False, None),
    ("survey.classify_rule", "ifamarket.survey", "classify_rule", None, False, None),
    ("survey.compression_ratio", "ifamarket.survey", "compression_ratio", _packed_bytes, False, None),
    ("tickio.write_rle", "ifamarket.tickio", "write_rle", _written, True, None),
    ("tickio.write_bits", "ifamarket.tickio", "write_bits", _written, False, None),
    ("reports.render", "ifamarket.reports", "render_moments_csv", _size, False, None),
    ("reports.render", "ifamarket.reports", "render_table1_csv", _size, False, None),
    ("reports.render", "ifamarket.reports", "render_survey_csv", _size, False, None),
    ("reports.render", "ifamarket.reports", "render_compare_csv", _size, False, None),
    ("cli.main", "ifamarket.cli", "main", None, False, None),
]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Wraps the target functions; each call appends one span.

    A span is (name, parent, start, end, work, RSS rise, digest, begin,
    covered_end).  ``begin`` .. ``covered_end`` also covers the wrapper's
    own bookkeeping around ``start`` .. ``end``, so that it counts in no
    span's self time.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []
        self._patches: list = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "ifamarket"]
        for name, module_name, attr, work, rss, tag in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, work, rss, tag)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _wrap(self, name, original, work, rss, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            begin = clock()
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            rss0 = _maxrss_mb() if rss else 0.0
            result = done = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (
                    name,
                    parent,
                    start,
                    end,
                    work(args, kwargs, result) if work and done else 0,
                    _maxrss_mb() - rss0 if rss else 0.0,
                    tag(args, kwargs, result) if tag and done else "",
                    begin,
                    clock(),
                )

        traced.__wrapped__ = original
        return traced

    def summary(self) -> dict:
        """Per span name: calls, self seconds, work, max RSS rise, digests."""
        covered = [0.0] * len(self.spans)
        for _, parent, _, _, _, _, _, begin, covered_end in self.spans:
            if parent >= 0:
                covered[parent] += covered_end - begin
        totals: dict = {}
        for sid, (name, _, start, end, work, rise, digest, _, _) in enumerate(self.spans):
            entry = totals.setdefault(
                name, {"calls": 0, "self_s": 0.0, "work": 0, "rss_rise_mb": 0.0, "digests": []}
            )
            entry["calls"] += 1
            entry["self_s"] += end - start - covered[sid]
            entry["work"] += work
            entry["rss_rise_mb"] = max(entry["rss_rise_mb"], rise)
            if digest:
                entry["digests"].append(digest)
        return totals

    def write(self, path: Path, label: str, t0: float) -> None:
        """One gzip member of TSV lines; members of several ops concatenate."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for sid, (name, parent, start, end, work, rise, digest, _, _) in enumerate(
                self.spans
            ):
                handle.write(
                    f"{label}\t{sid}\t{name}\t{parent}\t{start - t0:.7f}\t{end - t0:.7f}"
                    f"\t{work}\t{rise:g}\t{digest}\n"
                )


def _import_program():
    """Import ``ifamarket`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ifamarket
    import ifamarket.cli

    if Path(ifamarket.__file__).resolve().parent != (src / "ifamarket").resolve():
        raise SystemExit(f"ifamarket was imported from {ifamarket.__file__}")
    return ifamarket


def _run_cli(ifamarket, ops, workdir: Path, times, codes) -> None:
    os.chdir(workdir)
    for name, argv, _ in ops:
        with open(f"{name}.stdout", "w") as out, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = ifamarket.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the op fails; the others still run
                traceback.print_exc()
                code = 1
            times.append(time.perf_counter() - start)
        codes.append(code or 0)


def _run_short(ifamarket, calls, workdir: Path, times, codes) -> list:
    """Time one ``ifamarket.simulate`` call per input; returns tick counts."""
    import numpy as np
    from ifamarket.market import window_from_literal

    lengths = []
    with open(workdir / "moves.bin", "wb") as sink:
        for rule, w, init, policy, ticks in calls:
            args = (
                ifamarket.decode_rule(rule),
                w,
                window_from_literal(init, w),
                ifamarket.RegulationPolicy.parse(policy),
                ticks,
            )
            start = time.perf_counter()
            try:
                series = ifamarket.simulate(*args)
            except Exception:  # the op fails; the others still run
                times.append(time.perf_counter() - start)
                codes.append(1)
                lengths.append(0)
                traceback.print_exc()
                continue
            times.append(time.perf_counter() - start)
            codes.append(0)
            moves = np.asarray(series.moves, dtype=np.uint8)
            lengths.append(int(moves.size))
            sink.write(moves.tobytes())
    return lengths


def main(argv: list) -> int:
    if argv[:1] == ["setup"]:
        _import_program()
        workload, seed = argv[1], int(argv[2])
        short_runs(seed) if workload == "short-runs" else cli_ops(workload)
        return 0
    spec_path = Path(argv[1])
    spec = json.loads(spec_path.read_text())
    workdir = spec_path.parent
    ifamarket = _import_program()
    tracer = Tracer()
    if spec["trace"]:
        tracer.install()
    times, codes, lengths = [], [], []
    t0 = time.perf_counter()
    if spec["workload"] == "short-runs":
        lengths = _run_short(ifamarket, short_runs(spec["seed"]), workdir, times, codes)
    else:
        ops = [op for op in cli_ops(spec["workload"]) if op[0] in spec["ops"]]
        _run_cli(ifamarket, ops, workdir, times, codes)
    tracer.uninstall()
    result = {"times": times, "codes": codes, "lengths": lengths, "absent": tracer.absent}
    if spec["trace"]:
        result["layers"] = tracer.summary()
        tracer.write(workdir / "spans.tsv.gz", spec["label"], t0)
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
