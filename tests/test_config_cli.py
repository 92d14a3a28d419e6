import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ifamarket.cli import main
from ifamarket.config import RunConfig
from ifamarket.ifa import decode_rule


def run_cli(args):
    return main(args)


def test_config_json_round_trip():
    config = RunConfig(rule=54, w=10, policy="prick:3", ticks=500)
    again = RunConfig.from_json(config.to_json())
    assert again == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_json('{"rule": 54, "frobnicate": 1}')


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(rule=300).validate()
    with pytest.raises(ValueError):
        RunConfig(policy="prick:0").validate()
    with pytest.raises(ValueError):
        RunConfig(w=0).validate()
    with pytest.raises(ValueError):
        RunConfig(init="UD", w=3).validate()
    assert RunConfig(init="UDU", w=3).validate()


SMALL = ["--w", "12", "--ticks-per-day", "64", "--window-days", "8"]


def test_cycle_json_line(capsys):
    assert run_cli(["cycle", "--w", "12"]) == 0
    line = capsys.readouterr().out.strip()
    payload = json.loads(line)
    assert payload["cycle_length"] >= 1
    assert payload["config"]["rule"] == 54
    assert payload["config"]["w"] == 12


def test_simulate_ticks_zero_writes_empty(tmp_path, capsys):
    out = tmp_path / "ticks.rle"
    code = run_cli(["simulate", "--w", "8", "--ticks", "0", "--ticks-out", str(out)])
    assert code == 0
    body = out.read_text().split("\n\n", 1)[1]
    assert body.strip() == ""


def test_simulate_default_writes_rle_to_stdout(capsys):
    assert run_cli(["simulate", "--w", "8", "--ticks", "40"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ifamarket-ticks v1 rle")


def test_simulate_bits_and_returns(tmp_path):
    bits = tmp_path / "t.bits"
    returns = tmp_path / "r.csv"
    code = run_cli(
        ["simulate", *SMALL, "--ticks", "256", "--ticks-out", str(bits),
         "--returns-out", str(returns)]
    )
    assert code == 0
    assert bits.read_bytes().startswith(b"ifamarket-ticks v1 bits")
    lines = returns.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "day,return"
    assert len(lines) == 2 + 256 // 64


def test_policy_validation_error_exit_code(tmp_path, capsys):
    code = run_cli(["simulate", "--w", "8", "--policy", "prick:0"])
    assert code == 2
    assert "error" in capsys.readouterr().err
    # no partial output was created for file-writing commands
    out = tmp_path / "x.csv"
    code = run_cli(["moments", "--w", "8", "--policy", "prick:0", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        run_cli(["cycle", "--no-such-flag"])
    assert exc.value.code != 0


def test_moments_deterministic_and_reproducible_from_echo(tmp_path):
    first = tmp_path / "m1.csv"
    second = tmp_path / "m2.csv"
    argv = ["moments", *SMALL, "--ticks", "2048"]
    assert run_cli(argv + ["--out", str(first)]) == 0
    assert run_cli(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # re-run from the embedded config alone
    embedded = next(
        line for line in first.read_text().splitlines() if line.startswith("# config:")
    )
    config_path = tmp_path / "c.json"
    config_path.write_text(embedded.removeprefix("# config: ") + "\n")
    third = tmp_path / "m3.csv"
    assert run_cli(["moments", "--config", str(config_path), "--out", str(third)]) == 0
    assert third.read_bytes() == first.read_bytes()


def test_sweep_reproducible_from_echo(tmp_path, capsys):
    # the echo holds the sweep as sweep_w, which no other echo writes
    first = tmp_path / "s1.csv"
    argv = ["survey", "--sweep-w", "4:6", "--init", "alternating", "--workers", "1"]
    assert run_cli(argv + ["--out", str(first)]) == 0
    embedded = next(
        line for line in first.read_text().splitlines() if line.startswith("# config:")
    )
    assert json.loads(embedded.removeprefix("# config: "))["sweep_w"] == "4:6"
    config_path = tmp_path / "c.json"
    config_path.write_text(embedded.removeprefix("# config: ") + "\n")
    again = tmp_path / "s2.csv"
    rerun = ["survey", "--config", str(config_path), "--workers", "1"]
    assert run_cli(rerun + ["--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert "sweep_w" not in RunConfig().to_json()
    # a sweep is for survey alone
    assert run_cli(["cycle", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == (
        "ifamarket: error: config key 'sweep_w' is for survey, not cycle\n"
    )


def test_table1_small_run(tmp_path):
    out = tmp_path / "t1.csv"
    code = run_cli(
        ["table1", *SMALL, "--ticks", "4096", "--n-min", "2", "--n-max", "3",
         "--workers", "1", "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "regime,n,avg_ann_mean,avg_ann_vol,skew_max_dev,kurt_max_dev"
    assert len(lines) == 1 + 1 + 2 * 2  # header + none + prick/prop for n=2,3
    assert lines[1].startswith("none,0,")


def test_table1_row_count_criterion(tmp_path):
    # 1 + 19*2 = 39 rows over n = 2..20 without both
    out = tmp_path / "t1.csv"
    code = run_cli(
        ["table1", "--w", "8", "--ticks-per-day", "16", "--window-days", "4",
         "--ticks", "256", "--workers", "1", "--out", str(out)]
    )
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) - 1 == 39


def test_table1_rows_without_a_defined_window_write_nan(tmp_path):
    # rule 30 from alternating at w = 12 has a cycle of 2 ticks: every
    # rolling window of every row has zero variance
    out = tmp_path / "t1.csv"
    argv = ["table1", "--rule", "30", "--w", "12", "--n-max", "3", "--workers", "1"]
    assert run_cli(argv + ["--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert rows == [f"{p},0,0,nan,nan" for p in ("none,0", "prick,2", "prick,3",
                                                 "prop,2", "prop,3")]


def test_malformed_config_file_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["cycle", "--config", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    stray = tmp_path / "stray.json"
    stray.write_text('{"rule": 54, "mystery": true}')
    assert run_cli(["cycle", "--config", str(stray)]) == 2


def test_table1_both_rows_equal_prick_rows(tmp_path):
    out = tmp_path / "t1b.csv"
    code = run_cli(
        ["table1", "--w", "10", "--ticks", "4096", "--ticks-per-day", "32",
         "--window-days", "8", "--n-min", "2", "--n-max", "4",
         "--include-both", "--workers", "1", "--out", str(out)]
    )
    assert code == 0
    rows = {}
    for line in out.read_text().splitlines():
        if line.startswith("#") or line.startswith("regime"):
            continue
        regime, n, rest = line.split(",", 2)
        rows[(regime, n)] = rest
    for n in ("2", "3", "4"):
        assert rows[("both", n)] == rows[("prick", n)]


def test_survey_csv(tmp_path):
    out = tmp_path / "s.csv"
    code = run_cli(
        ["survey", "--w", "8", "--init", "all_up", "--workers", "1",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "rule,w,transient,cycle_length,compression_ratio,class"
    assert len(lines) - header_at - 1 == 256


def test_survey_sweep_mode(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["survey", "--rule", "54", "--init", "all_up", "--sweep-w", "2:6",
         "--out", str(out)]
    )
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) - 1 == 5


def test_survey_runs_in_one_process_by_default(monkeypatch, capsys):
    # one job dominates a survey, so a pool of workers only slows it;
    # table1, whose rows spread over the workers, keeps one per core
    import concurrent.futures

    from ifamarket import cli

    def no_pool(*args, **kwargs):
        raise AssertionError("survey built a process pool")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run_cli(["survey", "--w", "8", "--init", "all_up"]) == 0
    assert capsys.readouterr().out.count("\n") == 2 + 1 + 256
    assert cli.build_parser().parse_args(["table1"]).workers == 4


def test_compare_model_only(capsys):
    code = run_cli(["compare", *SMALL, "--ticks", "2048"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no empirical data" in out


def _write_prices(path):
    rows = ["date,close"]
    close = 100.0
    for i in range(40):
        close *= 1.0 + (0.001 if i % 3 else -0.001)
        rows.append(f"2020-{1 + i // 28:02d}-{1 + i % 28:02d},{close!r}")
    path.write_text("\n".join(rows) + "\n")
    return path


def test_compare_with_prices(tmp_path, capsys):
    prices = _write_prices(tmp_path / "px.csv")
    csv_out = tmp_path / "cmp.csv"
    code = run_cli(
        ["compare", *SMALL, "--ticks", "2048", "--prices", f"idx={prices}",
         "--empirical-window", "10", "--csv-out", str(csv_out)]
    )
    assert code == 0
    assert "idx" in capsys.readouterr().out
    assert csv_out.read_text().count("idx,") == 4  # one row per moment


def test_compare_equal_day_returns_have_no_variance(capsys):
    # rule 255 goes UP on every tick, so every 100-day window holds equal
    # day returns of 64 * 2.5 bp: vol 0 and no defined shape moment
    code = run_cli(
        ["compare", "--rule", "255", "--w", "8", "--ticks", "8192",
         "--ticks-per-day", "64", "--window-days", "100"]
    )
    assert code == 0
    rows = {
        line.split()[1]: line.split()[2:]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("model ") and len(line.split()) == 7
    }
    assert [float(x) for x in rows["vol"]] == [0.0] * 5
    assert rows["skew"] == rows["kurt"] == ["nan"] * 5


def test_compare_csv_quotes_a_label_with_a_comma(tmp_path):
    # the default label is the price file's name, which may hold a comma
    prices = _write_prices(tmp_path / "px,1.csv")
    csv_out = tmp_path / "cmp.csv"
    code = run_cli(
        ["compare", *SMALL, "--ticks", "2048", "--prices", str(prices),
         "--empirical-window", "10", "--csv-out", str(csv_out)]
    )
    assert code == 0
    body = [l for l in csv_out.read_text().splitlines() if not l.startswith("#")]
    parsed = list(csv.reader(body))
    assert {len(row) for row in parsed} == {7}
    assert [row[0] for row in parsed].count("px,1.csv") == 4


def test_simulate_bits_to_stdout(tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--w", "10", "--ticks", "100", "--ticks-format", "bits"]
    assert run_cli(argv + ["--ticks-out", "t.bits"]) == 0
    expected = (tmp_path / "t.bits").read_bytes()
    # with no output flag the series goes to stdout in the named format
    for flags in (["--ticks-out", "-"], []):
        assert run_cli(argv + flags) == 0
        assert capsysbinary.readouterr().out == expected
    assert not (tmp_path / "-").exists()


def test_config_wrong_type_exits_cleanly(tmp_path, capsys):
    with pytest.raises(ValueError, match="'rule'"):
        RunConfig.from_json('{"rule": "54"}')
    with pytest.raises(ValueError, match="'ticks_per_day'"):
        RunConfig.from_json('{"ticks_per_day": true}')
    assert RunConfig.from_json('{"ticks": null, "scale": 1}').scale == 1
    bad = tmp_path / "typed.json"
    bad.write_text('{"rule": "54"}')
    assert run_cli(["cycle", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("ifamarket: error: ")


def test_sweep_w_malformed_exits_cleanly(capsys):
    assert run_cli(["survey", "--rule", "54", "--sweep-w", "2-5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ifamarket: error: ") and "expected LO:HI" in err


@pytest.mark.parametrize("sweep", ["5:3", "0:3", "2:31"])
def test_sweep_w_out_of_range_exits_before_any_walk(monkeypatch, capsys, sweep):
    from ifamarket import cli

    def no_walk(*args, **kwargs):
        pytest.fail("the sweep walked")

    monkeypatch.setattr(cli, "sweep_window", no_walk)
    assert run_cli(["survey", "--rule", "54", "--sweep-w", sweep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"ifamarket: error: bad --sweep-w {sweep!r}; "
        "expected 1 <= LO <= HI <= 30\n"
    )


@pytest.mark.parametrize("extra", [[], ["--w", "4"]], ids=["no-w", "w-4"])
def test_sweep_w_checks_a_move_literal_at_every_width(monkeypatch, capsys, extra):
    # a U/D literal fits one width only; the sweep, not --w, decides which
    from ifamarket import cli

    sweep = cli.sweep_window
    monkeypatch.setattr(cli, "sweep_window", lambda *args, **kwargs: pytest.fail())
    argv = ["survey", "--rule", "54", "--init", "UDUD", *extra]
    assert run_cli(argv + ["--sweep-w", "4:6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ifamarket: error: --init does not fit --sweep-w 4:6: "
        "custom initial window has 4 moves, expected 5\n"
    )
    monkeypatch.setattr(cli, "sweep_window", sweep)
    assert run_cli(argv + ["--sweep-w", "4:4"]) == 0
    assert capsys.readouterr().out.endswith("\n54,4,0,15,5,complex\n")


def test_memory_error_exits_cleanly(monkeypatch, capsys):
    from ifamarket import _engine

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.00 GiB")

    # prop:8 at w = 12 closes after 2,441 ticks, past the scalar walk
    argv = ["cycle", "--w", "12", "--policy", "prop:8"]
    monkeypatch.setattr(_engine, "step_table", out_of_memory)
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "ifamarket: error: Unable to allocate 4.00 GiB\n"
    def bare(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(_engine, "step_table", bare)
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "ifamarket: error: MemoryError\n"


def test_table_memory_checked_before_allocating(monkeypatch, capsys):
    # rule 54's w = 22 orbit under prick:7 outlasts the scalar walk, and
    # its tables do not fit in the 50 MiB the probe reports: exit 2
    # before any table
    from ifamarket import _engine

    def no_step_table(*args, **kwargs):
        pytest.fail("step_table was reached")

    monkeypatch.setattr(_engine, "available_memory", lambda: 50 << 20)
    monkeypatch.setattr(_engine, "step_table", no_step_table)
    assert run_cli(["cycle", "--w", "22", "--policy", "prick:7"]) == 2
    assert capsys.readouterr().err == (
        "ifamarket: error: the tables for w = 22 need up to 80 MiB "
        "(decision 4 MiB, the windows of every cycle 16 MiB, "
        "their cut index 16 MiB, their moves 4 MiB, their firing marks 4 MiB, "
        "the held orbit's moves 4 MiB, a cut's firing windows 16 MiB "
        "and their positions 16 MiB), but only 50 MiB is available\n"
    )
    # an unknown amount of memory is not checked
    monkeypatch.setattr(_engine, "available_memory", lambda: None)
    assert _engine.decision_table(decode_rule(54), 12).size == 1 << 12


def test_rule54_cycles_at_w29_and_w30_from_the_algebra(monkeypatch, capsys):
    # whose tables would need 13,312 and 26,624 MiB: the affine rung takes
    # the orbit from the algebra and its moves by lag doubling, no table
    from ifamarket import _engine

    def no_table(*args):
        pytest.fail("a decision table was built")

    monkeypatch.setattr(_engine, "decision_table", no_table)
    for w, cycle in (("29", 402_653_181), ("30", 10_845_877)):
        assert run_cli(["cycle", "--rule", "54", "--w", w]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["transient_length"], payload["cycle_length"]) == (0, cycle)


def test_cycle_lengths_of_an_affine_orbit_need_no_moves(monkeypatch, capsys):
    # the lengths of rule 54's w = 29 orbit come from the algebra alone:
    # with 100 MiB available, less than its 384 MiB of moves, exit 0
    from ifamarket import _engine

    def no_moves(*args):
        pytest.fail("the moves were written")

    monkeypatch.setattr(_engine, "available_memory", lambda: 100 << 20)
    monkeypatch.setattr(_engine, "affine_moves", no_moves)
    assert run_cli(["cycle", "--rule", "54", "--w", "29"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["transient_length"], payload["cycle_length"]) == (0, 402_653_181)


def test_affine_moves_memory_checked_before_allocating(monkeypatch, capsys):
    # the moves of rule 54's w = 29 orbit take a byte a tick, 384 MiB, and
    # its default span needs them: with 100 MiB available, exit 2 before
    # they are allocated
    from ifamarket import _engine

    monkeypatch.setattr(_engine, "available_memory", lambda: 100 << 20)
    assert run_cli(["simulate", "--rule", "54", "--w", "29"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ifamarket: error: the moves of 402,653,181 ticks need 384 MiB, "
        "but only 100 MiB is available\n"
    )


def test_cycle_of_a_machine_that_is_not_affine_at_w30_needs_the_tables(
    monkeypatch, capsys
):
    # a regulated machine is not affine: rule 54 under prick:7 at w = 30
    # outlasts the scalar walk, cut here to the 4w probe so that it ends
    # within milliseconds, and its tables do not fit in 7 GiB
    from ifamarket import _engine

    monkeypatch.setattr(_engine, "_scalar_budget", lambda w: 4 * w)
    monkeypatch.setattr(_engine, "available_memory", lambda: 7 << 30)
    assert run_cli(["cycle", "--rule", "54", "--w", "30", "--policy", "prick:7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "ifamarket: error: the tables for w = 30 need up to 20,480 MiB (decision"
    )
    assert captured.err.endswith("but only 7,168 MiB is available\n")


def test_small_tables_do_not_read_the_memory_available(monkeypatch):
    # the tables of w = 20 take 25 MiB, under the 32 MiB from which the
    # memory available is read before they are built
    from ifamarket import _engine

    def no_probe():
        pytest.fail("the memory available was read")

    monkeypatch.setattr(_engine, "available_memory", no_probe)
    for w in (8, 20):
        assert _engine.decision_table(decode_rule(54), w).size == 1 << w


def test_scalar_orbit_needs_no_table_memory(monkeypatch, capsys):
    # the constant-UP rule is affine, so the lengths of its w = 30 orbit
    # come from the algebra, with no table
    from ifamarket import _engine

    monkeypatch.setattr(_engine, "available_memory", lambda: 0)
    assert run_cli(["cycle", "--w", "30", "--rule", "85"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["transient_length"], payload["cycle_length"]) == (30, 1)


def test_default_span_walks_the_orbit_once(monkeypatch, capsys):
    # prop:8 at w = 12 from alternating closes after 2,441 ticks, past the
    # direct walk's cap, so its orbit search cuts rule 54's cycles; that one
    # cut also gives the span and its moves, so nothing cuts again
    from ifamarket import _engine

    cuts = []
    cut_run = _engine.Machine._cut_run
    monkeypatch.setattr(
        _engine.Machine, "_cut_run", lambda *args: cuts.append(args) or cut_run(*args)
    )
    argv = ["moments", "--w", "12", "--policy", "prop:8", "--ticks-per-day", "64",
            "--window-days", "8"]
    assert run_cli(argv) == 0
    assert len(cuts) == 1
    assert '"ticks": 2441' in capsys.readouterr().out


def test_cycle_trend_longer_than_window(capsys):
    # n > w used to exit 2; the orbit now includes the run held past w
    assert run_cli(["cycle", "--rule", "85", "--w", "3", "--init", "all_up",
                    "--policy", "prick:5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["transient_length"], payload["cycle_length"]) == (0, 6)


@pytest.mark.parametrize(
    "command",
    ["table1", "survey", pytest.param("survey --rule 54 --sweep-w 2:4", id="sweep")],
)
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_cleanly(capsys, command, workers):
    assert run_cli([*command.split(), "--w", "8", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ifamarket: error: workers must be >= 1, got {workers}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["cycle", "--w", "8", "--policy", "both:99999999999999999999"],
            "trend length in policy literal 'both:99999999999999999999' "
            "is above 2**60",
        ),
        (
            ["table1", "--w", "8", "--n-max", "99999999999999999999"],
            "bad trend-length range 2..99999999999999999999; "
            "expected 1 <= N-MIN <= N-MAX <= 2**60",
        ),
        (
            ["moments", "--w", "8", "--scale", "1e308"],
            "scale must be in [1e-50, 1e50 / ticks_per_day], got 1e+308",
        ),
        (
            ["simulate", "--w", "8", "--ticks", "99999999999999999999"],
            "ticks must be in [0, 2**63 - 1], got 99999999999999999999",
        ),
        (
            ["moments", "--w", "8", "--window-days", "99999999999999999999"],
            "window_days must be in [2, (2**63 - 1) // ticks_per_day], "
            "got 99999999999999999999",
        ),
        (
            ["table1", "--w", "8", "--days-per-year", str(10**400), "--workers", "1"],
            f"days_per_year must be in [1, 2**63 - 1], got {10**400}",
        ),
    ],
    ids=["trend-length", "n-max", "scale", "ticks", "window-days", "days-per-year"],
)
def test_numbers_out_of_range_exit_cleanly(capsys, argv, message):
    # each used to raise OverflowError, write non-finite moments, or
    # exit with a numpy message that names no field
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ifamarket: error: {message}\n"


def test_largest_trend_length_is_exact(capsys):
    # constant UP at w = 3 holds all-UP n - 3 ticks past the clamped
    # machine's prick, so its cycle is n + 1 ticks: 2**60 + 1 in int64
    argv = ["cycle", "--rule", "85", "--w", "3", "--init", "all_up"]
    assert run_cli([*argv, "--policy", f"prick:{2**60}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["transient_length"], payload["cycle_length"]) == (0, 2**60 + 1)


def _no_survey(monkeypatch):
    from ifamarket import cli

    def no_walk(*args, **kwargs):
        pytest.fail("the survey walked")

    monkeypatch.setattr(cli, "survey_rules", no_walk)
    monkeypatch.setattr(cli, "sweep_window", no_walk)


_SURVEY_MODES = {"survey": [], "sweep": ["--rule", "54", "--sweep-w", "2:4"]}


@pytest.mark.parametrize("mode", sorted(_SURVEY_MODES))
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--long-cycle-fraction", "-1", "finite and in (0, 1], got -1.0"),
        ("--long-cycle-fraction", "0", "finite and in (0, 1], got 0.0"),
        ("--long-cycle-fraction", "nan", "finite and in (0, 1], got nan"),
        ("--long-cycle-fraction", "inf", "finite and in (0, 1], got inf"),
        ("--compression-threshold", "nan", "finite and >= 0, got nan"),
        ("--compression-threshold", "1e400", "finite and >= 0, got inf"),
        ("--compression-threshold", "-0.5", "finite and >= 0, got -0.5"),
    ],
    ids=["fraction-negative", "fraction-zero", "fraction-nan", "fraction-inf",
         "threshold-nan", "threshold-overflow", "threshold-negative"],
)
def test_survey_thresholds_out_of_range_exit_cleanly(
    monkeypatch, capsys, mode, flag, value, message
):
    # each used to exit 0 with every class silently changed: a fraction
    # of -1 labelled 81 of 256 rules complex at w = 8 from all-UP
    _no_survey(monkeypatch)
    argv = ["survey", "--w", "8", *_SURVEY_MODES[mode], f"{flag}={value}"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ifamarket: error: {flag} must be {message}\n"


def test_survey_thresholds_at_their_bounds_are_accepted(capsys):
    argv = ["survey", "--w", "4", "--init", "all_up", "--workers", "1",
            "--long-cycle-fraction", "1", "--compression-threshold", "0"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mode", sorted(_SURVEY_MODES))
def test_survey_rejects_a_regulation_policy(monkeypatch, capsys, mode):
    # the survey classifies unregulated orbits; it used to accept prick:3
    # and echo it in the CSV's config line
    _no_survey(monkeypatch)
    argv = ["survey", "--w", "8", *_SURVEY_MODES[mode], "--policy", "prick:3"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ifamarket: error: survey classifies unregulated orbits; "
        "--policy must be none, got 'prick:3'\n"
    )


# argv values that int() and float() do not parse
_MALFORMED = st.sampled_from(["", "abc", "1.5", "1e3", "0x10", "nan", "inf", "12a"])


def _mostly(valid, bad):
    """``valid`` nine draws in ten, else ``bad``: most argvs then run."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 9 else valid)


def _ints(lo, hi, bad_lo, bad_hi):
    """Flag values: mostly ints in [lo, hi], which keep a run small, else
    ints the config rejects (at most ``bad_lo``, at least ``bad_hi``,
    10**400 among them) or malformed literals."""
    bad = st.one_of(
        st.integers(max_value=bad_lo),
        st.integers(min_value=bad_hi),
        st.just(10**400),
        _MALFORMED,
    )
    return _mostly(st.integers(lo, hi), bad).map(str)


def _floats(lo, hi):
    """Flag values: mostly floats in [lo, hi], else any float, NaN, inf and
    1e308 among them, or malformed literals."""
    bad = st.one_of(st.floats(), st.sampled_from([1e308, -1e308, 5e-324]), _MALFORMED)
    return _mostly(st.floats(lo, hi), bad).map(str)


_COUNTS = dict(
    w=_ints(1, 10, 0, 31),
    ticks_per_day=_ints(1, 32, 0, 1 << 63),
    window_days=_ints(2, 8, 1, 1 << 63),
)
_OPTIONAL = dict(
    ticks=_ints(0, 3000, -1, 1 << 63),
    rule=_ints(0, 255, -1, 256),
    days_per_year=_ints(1, 1 << 63, 0, 1 << 63),
    scale=_floats(1e-6, 1e-2),
    init=_mostly(
        st.sampled_from(["alternating", "all_up", "alternating_up_first"]),
        st.text(alphabet="UDx ", max_size=11),
    ),
    policy=_mostly(
        st.builds(
            "{}:{}".format,
            st.sampled_from(["prick", "prop", "both"]),
            st.one_of(st.integers(1, 14), st.just(1 << 60)),
        )
        | st.just("none"),
        st.sampled_from(["prick", "prick:", ":3", "prick:x", "prick:1.5", "prop:0",
                         "both:-1", "Prick:3", f"prop:{(1 << 60) + 1}"]),
    ),
)
# the contents of a --config or --prices file: empty, binary, JSON of the
# wrong type, or CSV that is not a price series
_FILES = st.one_of(
    st.binary(max_size=64),
    st.sampled_from([
        b"", b"[1, 2]", b'"text"', b"3", b"null", b"{}", b'{"rule": "54"}',
        b'{"w": 1.5}', b'{"scale": NaN}', b'{"mystery": 1}',
        b'{"ticks_per_day": true}', b"date,close\n2020-01-01,abc\n",
        b"date,close\n2020-01-01,100\n2020-01-02,-1\n",
    ]),
)
# trend-length bounds in [1, 6], or past what table1 accepts
_TREND_BOUNDS = _ints(1, 6, 0, (1 << 60) + 1)


@st.composite
def _argv(draw, folder):
    command = draw(
        st.sampled_from(["simulate", "cycle", "table1", "survey", "moments", "compare"])
    )
    argv = [command]
    for flag, values in _COUNTS.items():
        argv += [f"--{flag.replace('_', '-')}", draw(values)]
    for flag, values in _OPTIONAL.items():
        if draw(st.booleans()):
            argv += [f"--{flag.replace('_', '-')}", draw(values)]
    if draw(st.integers(0, 4)) == 4:
        config = folder / "config.json"
        config.write_bytes(draw(_FILES))
        argv += ["--config", str(config)]
    if command in ("table1", "survey"):
        # no process pool: one worker, or a count the CLI rejects
        argv += ["--workers", draw(_mostly(st.just("1"), st.sampled_from(["0", "-3"])))]
    if command == "table1":
        argv += ["--n-min", draw(_TREND_BOUNDS), "--n-max", draw(_TREND_BOUNDS)]
        if draw(st.booleans()):
            argv.append("--include-both")
    if command == "survey":
        if draw(st.booleans()):
            argv += ["--sweep-w", draw(st.sampled_from(
                ["2:6", "1:10", "5:3", "0:3", "2:31", "2-5", "a:b", ":", "", "3:"]
            ))]
        if draw(st.booleans()):
            argv += ["--long-cycle-fraction", draw(_floats(0.01, 1))]
        if draw(st.booleans()):
            argv += ["--compression-threshold", draw(_floats(0, 2))]
    if command == "simulate":
        argv += ["--ticks-out", draw(st.sampled_from(["-", str(folder / "t.rle"),
                                                      str(folder / "t.bits")]))]
        if draw(st.booleans()):
            argv += ["--ticks-format", draw(st.sampled_from(["rle", "bits", "csv"]))]
        if draw(st.booleans()):
            argv += ["--returns-out", str(folder / "r.csv")]
    if command == "compare" and draw(st.booleans()):
        prices = folder / "prices.csv"
        prices.write_bytes(draw(_FILES))
        argv += ["--prices", f"px={prices}", "--empirical-window",
                 draw(_ints(2, 10, 1, 1 << 63)), "--date-format",
                 draw(st.sampled_from(["%Y-%m-%d", "%Q", ""]))]
    if command == "moments" and draw(st.booleans()):
        argv.append("--annualize")
    if command not in ("simulate", "compare"):
        argv += ["--out", draw(st.sampled_from(["-", str(folder / "out.csv")]))]
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_no_argv_ends_in_a_traceback(data):
    # any subcommand with any flag values exits 0 or 2, never with an
    # uncaught exception, and on 2 writes exactly one error line.  Valid
    # counts stay small (w <= 10, so that a default span does too, at most
    # 3,000 ticks given, one worker), so every run is quick and none starts
    # a process pool; prick:2**60 makes a default span of about 2**60,
    # which fails to allocate and exits 2
    with tempfile.TemporaryDirectory() as name:
        argv = data.draw(_argv(Path(name)), label="argv")
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 2)
    assert not any(line.startswith("Traceback") for line in lines)
    errors = [line for line in lines if line.startswith("ifamarket: error: ")]
    assert len(errors) == (1 if code == 2 else 0), lines
