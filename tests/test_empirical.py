import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ifamarket.analytics import rolling_moments
from ifamarket.empirical import (
    PriceSeries,
    _parse_price_csv,
    compare_report,
    load_price_csv,
    to_returns,
)


def _parse(text: str) -> PriceSeries:
    return _parse_price_csv(io.StringIO(text), "%Y-%m-%d", "test")


def test_load_two_row_file(tmp_path):
    path = tmp_path / "idx.csv"
    path.write_text("date,close\n2020-01-02,100.0\n2020-01-03,101.5\n")
    series = load_price_csv(str(path))
    assert len(series) == 2
    assert series.closes.tolist() == [100.0, 101.5]


def test_negative_close_names_row():
    with pytest.raises(ValueError, match="row 3"):
        _parse("date,close\n2020-01-02,100\n2020-01-03,-5\n")


def test_duplicate_date_rejected():
    with pytest.raises(ValueError, match="duplicate date"):
        _parse("date,close\n2020-01-02,100\n2020-01-02,101\n")


def test_unsorted_dates_rejected():
    with pytest.raises(ValueError, match="not increasing"):
        _parse("date,close\n2020-01-03,100\n2020-01-02,101\n")


def test_malformed_rows_name_their_row():
    with pytest.raises(ValueError, match="row 2"):
        _parse("date,close\nnot-a-date,100\n")
    with pytest.raises(ValueError, match="row 4"):
        _parse("date,close\n2020-01-02,100\n2020-01-03,101\n2020-01-06,\n")
    with pytest.raises(ValueError, match="expected 2 columns"):
        _parse("date,close\n2020-01-02,100,extra\n")
    with pytest.raises(ValueError, match="header"):
        _parse("time,price\n2020-01-02,100\n")


def test_returns_examples():
    series = _parse("date,close\n2020-01-02,100\n2020-01-03,110\n")
    assert to_returns(series, "simple").returns.tolist() == pytest.approx([0.10])
    flat = _parse("date,close\n2020-01-02,100\n2020-01-03,100\n")
    assert to_returns(flat, "log").returns.tolist() == [0.0]
    halved = _parse("date,close\n2020-01-02,100\n2020-01-03,50\n")
    assert to_returns(halved, "log").returns.tolist() == pytest.approx(
        [math.log(0.5)]
    )
    with pytest.raises(ValueError):
        to_returns(series, "geometric")
    with pytest.raises(ValueError):
        to_returns(_parse("date,close\n2020-01-02,100\n"), "log")


@given(
    st.lists(
        st.floats(min_value=-5e-7, max_value=5e-7, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_log_and_simple_agree_to_first_order(perturbations):
    closes = [100.0]
    for p in perturbations:
        closes.append(closes[-1] * (1.0 + p))
    dates = [f"2020-01-{2+i:02d}" for i in range(len(closes))]
    # stay within one month for simplicity
    if len(closes) > 28:
        closes = closes[:28]
        dates = dates[:28]
    text = "date,close\n" + "".join(
        f"{d},{repr(c)}\n" for d, c in zip(dates, closes)
    )
    series = _parse(text)
    if len(series) < 2:
        return
    simple = to_returns(series, "simple").returns
    log = to_returns(series, "log").returns
    assert np.max(np.abs(simple - log)) < 1e-12


def test_compare_report_reflexive_and_flags():
    rng = np.random.default_rng(5)
    model = rolling_moments(rng.normal(0, 0.01, 400), 100)
    report = compare_report(model, [model], ["self"])
    by_key = {(r.series, r.moment): r.summary for r in report.rows}
    for moment in ("mean", "vol", "skew", "kurt"):
        assert by_key[("model", moment)] == by_key[("self", moment)]
        assert report.envelope_flags[moment] is True
    text = report.render_text()
    assert "inside" in text and "model" in text


def test_compare_report_model_only():
    rng = np.random.default_rng(6)
    model = rolling_moments(rng.normal(0, 0.01, 400), 100)
    report = compare_report(model)
    assert all(r.series == "model" for r in report.rows)
    assert all(flag is None for flag in report.envelope_flags.values())
    assert "no empirical data" in report.render_text()


def test_compare_report_without_a_defined_window():
    # constant day returns have zero variance in every window: no shape
    # moments, so NaN summaries and an envelope that is neither side
    flat = rolling_moments(np.full(300, 0.5), 100)
    rng = np.random.default_rng(9)
    noisy = rolling_moments(rng.normal(0, 0.01, 300), 100)
    for model, empirical in ((flat, noisy), (noisy, flat), (flat, flat)):
        report = compare_report(model, [empirical], ["data"])
        by_key = {(r.series, r.moment): r.summary for r in report.rows}
        for series, moments in (("model", model), ("data", empirical)):
            for moment in ("skew", "kurt"):
                undefined = np.isnan(getattr(moments, moment)).all()
                assert np.isnan(by_key[(series, moment)]).all() == undefined
        assert report.envelope_flags["skew"] is None
        assert report.envelope_flags["kurt"] is None
        assert isinstance(report.envelope_flags["vol"], bool)
        text = report.render_text()
        assert "skew median vs empirical min-max envelope: no defined window" in text
    report = compare_report(flat)
    assert np.isnan(report.rows[2].summary).all()
    assert "no empirical data" in report.render_text()


def test_compare_report_label_mismatch():
    rng = np.random.default_rng(8)
    model = rolling_moments(rng.normal(0, 0.01, 300), 100)
    with pytest.raises(ValueError):
        compare_report(model, [model], ["a", "b"])
