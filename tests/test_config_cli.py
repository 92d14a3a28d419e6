import json

import pytest

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


def test_compare_model_only(capsys):
    code = run_cli(["compare", *SMALL, "--ticks", "2048"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no empirical data" in out


def test_compare_with_prices(tmp_path, capsys):
    prices = tmp_path / "px.csv"
    rows = ["date,close"]
    close = 100.0
    for i in range(40):
        close *= 1.0 + (0.001 if i % 3 else -0.001)
        rows.append(f"2020-{1 + i // 28:02d}-{1 + i % 28:02d},{close!r}")
    prices.write_text("\n".join(rows) + "\n")
    csv_out = tmp_path / "cmp.csv"
    code = run_cli(
        ["compare", *SMALL, "--ticks", "2048", "--prices", f"idx={prices}",
         "--empirical-window", "10", "--csv-out", str(csv_out)]
    )
    assert code == 0
    assert "idx" in capsys.readouterr().out
    assert csv_out.read_text().count("idx,") == 4  # one row per moment


def test_simulate_bits_to_stdout(tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--w", "10", "--ticks", "100", "--ticks-format", "bits"]
    assert run_cli(argv + ["--ticks-out", "t.bits"]) == 0
    assert run_cli(argv + ["--ticks-out", "-"]) == 0
    assert capsysbinary.readouterr().out == (tmp_path / "t.bits").read_bytes()
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


def test_memory_error_exits_cleanly(monkeypatch, capsys):
    from ifamarket import _engine

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.00 GiB")

    monkeypatch.setattr(_engine, "step_table", out_of_memory)
    assert run_cli(["cycle", "--w", "12"]) == 2
    assert capsys.readouterr().err == "ifamarket: error: Unable to allocate 4.00 GiB\n"
    def bare(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(_engine, "step_table", bare)
    assert run_cli(["cycle", "--w", "12"]) == 2
    assert capsys.readouterr().err == "ifamarket: error: MemoryError\n"


def test_table_memory_checked_before_allocating(monkeypatch, capsys):
    # rule 54's w = 22 orbit outlasts the scalar walk, and its tables do
    # not fit in the 50 MiB the probe reports: exit 2 before any table
    from ifamarket import _engine

    def no_step_table(*args, **kwargs):
        pytest.fail("step_table was reached")

    monkeypatch.setattr(_engine, "available_memory", lambda: 50 << 20)
    monkeypatch.setattr(_engine, "step_table", no_step_table)
    assert run_cli(["cycle", "--w", "22"]) == 2
    assert capsys.readouterr().err == (
        "ifamarket: error: the tables for w = 22 need up to 68 MiB "
        "(decision 4 MiB, unregulated step**w 16 MiB, step 16 MiB, "
        "two step**w temporaries of 16 MiB), but only 50 MiB is available\n"
    )
    # an unknown amount of memory is not checked
    monkeypatch.setattr(_engine, "available_memory", lambda: None)
    assert _engine.decision_table(decode_rule(54), 12).size == 1 << 12


def test_scalar_orbit_needs_no_table_memory(monkeypatch, capsys):
    # the constant-UP rule closes its w = 30 orbit in the scalar walk
    from ifamarket import _engine

    monkeypatch.setattr(_engine, "available_memory", lambda: 0)
    assert run_cli(["cycle", "--w", "30", "--rule", "85"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["transient_length"], payload["cycle_length"]) == (30, 1)


def test_cycle_trend_longer_than_window(capsys):
    # n > w used to exit 2; the orbit now includes the run held past w
    assert run_cli(["cycle", "--rule", "85", "--w", "3", "--init", "all_up",
                    "--policy", "prick:5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["transient_length"], payload["cycle_length"]) == (0, 6)


@pytest.mark.parametrize("command", ["table1", "survey"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_cleanly(capsys, command, workers):
    assert run_cli([command, "--w", "8", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ifamarket: error: workers must be >= 1, got {workers}\n"
