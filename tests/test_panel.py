import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelresponse import (
    GrowthPanel,
    Panel,
    PhaseTable,
    RippleReport,
    SeriesId,
    StandardizedPanel,
    Variable,
    canonical_ids,
    load_panel,
    log_growth,
    parse_month,
    parse_window,
    simple_growth,
    standardize,
    write_panel_csv,
)
from panelresponse.errors import (
    BadParameter,
    DegenerateSeries,
    MissingData,
    NonPositiveLevel,
    SchemaError,
)

from oracles import month_list, panel_csv_text


def make_panel(rows, start="1988-01"):
    """Panel from a list of per-series level lists (must be 3*G rows)."""
    rows = np.asarray(rows, dtype=float)
    months = parse_month(start) + np.arange(rows.shape[1])
    return Panel(months=months, values=rows)


# ---------------------------------------------------------------------------
# series ids
# ---------------------------------------------------------------------------


def test_flat_index_bijection():
    for alpha in (1, 2, 3):
        for g in range(1, 22):
            sid = SeriesId(Variable(alpha), g)
            assert SeriesId.from_flat(sid.flat(21), 21) == sid
    flats = [sid.flat(21) for sid in canonical_ids(21)]
    assert flats == list(range(1, 64))


def test_numpy_integer_goods_is_stored_as_a_python_int():
    sid = SeriesId(Variable.SHIPMENTS, np.int64(15))
    assert type(sid.goods) is int and sid.label == "S.15"
    assert sid == SeriesId(2, 15) and hash(sid) == hash(SeriesId(2, 15))
    assert sid.flat(np.int32(21)) == 36
    assert SeriesId.from_flat(np.uint8(36), np.int64(21)) == sid


@given(st.integers(1, 10**9), st.data())
def test_flat_index_round_trips(n_goods, data):
    sid = SeriesId(data.draw(st.sampled_from(list(Variable))), data.draw(st.integers(1, n_goods)))
    flat = sid.flat(n_goods)
    assert 1 <= flat <= 3 * n_goods
    assert SeriesId.from_flat(flat, n_goods) == sid
    flat = data.draw(st.integers(1, 3 * n_goods))
    assert SeriesId.from_flat(flat, n_goods).flat(n_goods) == flat


def test_series_id_parse_and_label():
    sid = SeriesId.parse("P.20")
    assert sid == SeriesId(Variable.PRODUCTION, 20)
    assert sid.label == "P.20"
    assert SeriesId.parse("I.3").alpha == Variable.INVENTORY
    with pytest.raises(SchemaError):
        SeriesId.parse("X.1")
    with pytest.raises(SchemaError):
        SeriesId.parse("P20")


@pytest.mark.parametrize("value, member", [
    (1, Variable.PRODUCTION), ("S", Variable.SHIPMENTS), ("i", Variable.INVENTORY),
    ("production", Variable.PRODUCTION), ("Inventory", Variable.INVENTORY),
])
def test_variable_from_number_or_code(value, member):
    assert Variable(value) is member


@pytest.mark.parametrize("call, match", [
    (lambda: Variable(4), "unknown variable class"),
    (lambda: Variable(0), "unknown variable class"),
    (lambda: Variable("X"), "unknown variable class"),
    (lambda: Variable(None), "unknown variable class"),
    (lambda: SeriesId(4, 1), "unknown variable class"),
    (lambda: PhaseTable(np.zeros(3), "T=40").class_average(4),
     "unknown variable class"),
    (lambda: PhaseTable(np.zeros(3), "T=40").class_average("X"),
     "unknown variable class"),
    (lambda: PhaseTable(np.zeros(3), "T=40").class_average(0),
     "unknown variable class"),
    (lambda: SeriesId.parse("P.22").flat(21), r"goods index 22 outside \[1, 21\]"),
    (lambda: SeriesId.from_flat(64, 21), r"flat index 64 outside \[1, 63\]"),
], ids=["Variable(4)", "Variable(0)", "Variable('X')", "Variable(None)", "SeriesId(4, 1)",
        "class_average(4)", "class_average('X')", "class_average(0)", "flat(21)",
        "from_flat(64, 21)"])
def test_out_of_range_argument_is_a_bad_parameter(call, match):
    with pytest.raises(BadParameter, match=match) as exc:
        call()
    assert isinstance(exc.value, ValueError)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def csv_for_levels(levels, start="1988-01"):
    """CSV text for a G=1 panel with identical P/S/I columns."""
    months = month_list(start, len(levels))
    return panel_csv_text(months, {"P.1": levels, "S.1": levels, "I.1": levels})


def test_load_panel_full_grid(tmp_path):
    n = 240
    months = month_list("1988-01", n)
    rng = np.random.default_rng(0)
    columns = {}
    for sid in canonical_ids(21):
        columns[sid.label] = list(np.round(100.0 + rng.uniform(-5, 5, size=n), 4))
    path = tmp_path / "panel.csv"
    path.write_text(panel_csv_text(months, columns))
    panel = load_panel(path)
    assert panel.n_months == 240
    assert panel.n_series == 63
    assert panel.n_goods == 21
    assert str(panel.months[0]) == "1988-01"
    assert str(panel.months[-1]) == "2007-12"


def test_load_panel_window_and_missing():
    months = month_list("1987-11", 6)
    # missing value in the first month, outside the window below
    levels = [None, 1.0, 2.0, 3.0, 4.0, 5.0]
    text = panel_csv_text(
        months, {"P.1": levels, "S.1": [1] * 6, "I.1": [1] * 6}
    )
    panel = load_panel(io.StringIO(text), window=("1987-12", "1988-04"))
    assert panel.n_months == 5
    with pytest.raises(MissingData) as exc:
        load_panel(io.StringIO(text), window="1987-11:1988-04")
    assert exc.value.series == "P.1"
    assert exc.value.date == "1987-11"


def test_load_panel_nonpositive_level():
    text = csv_for_levels([1.0, 0.0, 2.0])
    with pytest.raises(NonPositiveLevel):
        load_panel(io.StringIO(text))


def test_load_panel_duplicate_series():
    months = month_list("1988-01", 3)
    text = "date,P.1,P.1,S.1,I.1\n" + "\n".join(
        f"{m},1,1,1,1" for m in months
    )
    with pytest.raises(SchemaError, match=r"duplicate series P\.1"):
        load_panel(io.StringIO(text))


def test_load_panel_gap_in_months():
    months = ["1988-01", "1988-02", "1988-04"]
    text = panel_csv_text(months, {"P.1": [1, 1, 1], "S.1": [1, 1, 1], "I.1": [1, 1, 1]})
    with pytest.raises(SchemaError, match="not consecutive: 1988-04 follows 1988-02"):
        load_panel(io.StringIO(text))


@pytest.mark.parametrize("window", ["1990-01:1990-12", ("1987-01", "1987-12")])
def test_load_panel_window_without_months_is_the_month_count_error(window):
    text = csv_for_levels([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(SchemaError, match="at least 3 months, got 0"):
        load_panel(io.StringIO(text), window=window)


def test_load_panel_incomplete_grid():
    months = month_list("1988-01", 3)
    text = panel_csv_text(months, {"P.1": [1, 1, 1], "S.1": [1, 1, 1]})
    with pytest.raises(SchemaError):
        load_panel(io.StringIO(text))


def test_load_panel_rows_out_of_order_are_sorted():
    text = csv_for_levels([1.0, 2.0, 3.0])
    lines = text.strip().split("\n")
    shuffled = "\n".join([lines[0], lines[3], lines[1], lines[2]])
    panel = load_panel(io.StringIO(shuffled))
    assert list(panel.values[0]) == [1.0, 2.0, 3.0]


def test_load_panel_skips_comment_lines():
    text = "# config: {}\n" + csv_for_levels([1.0, 2.0, 3.0])
    panel = load_panel(io.StringIO(text))
    assert panel.n_months == 3


def test_write_panel_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    panel = make_panel(100.0 + rng.uniform(0, 10, size=(3, 8)))
    path = tmp_path / "out.csv"
    write_panel_csv(panel, path)
    back = load_panel(path)
    assert np.array_equal(back.values, panel.values)
    assert np.array_equal(back.months, panel.months)


def test_parse_window():
    lo, hi = parse_window("1988-01:2007-12")
    assert str(lo) == "1988-01" and str(hi) == "2007-12"
    with pytest.raises(SchemaError):
        parse_window("1988-01")
    with pytest.raises(SchemaError):
        parse_window("2000-01:1990-01")


MONTHS4 = parse_month("1988-01") + np.arange(4)


# a call on bad input, its error type and a message fragment
REFUSED = {
    "Panel, no series": (
        lambda: Panel(MONTHS4, np.zeros((0, 4))), SchemaError, "at least 3 series, got 0"),
    "Panel, months != columns": (
        lambda: Panel(MONTHS4[:3], np.ones((3, 4))), SchemaError, "3 months for 4 columns"),
    "Panel, 2 months": (
        lambda: Panel(MONTHS4[:2], np.ones((3, 2))), SchemaError, "at least 3 months, got 2"),
    "Panel, M not 3G": (
        lambda: Panel(MONTHS4, np.ones((4, 4))), SchemaError, "series count 4 is not 3 x G"),
    "Panel, gap": (
        lambda: Panel(MONTHS4 + np.array([0, 0, 0, 1]), np.ones((3, 4))),
        SchemaError, "not consecutive: 1988-05 follows 1988-03"),
    "Panel, zero level": (
        lambda: Panel(MONTHS4, np.array([[1.0] * 4, [1.0, 1.0, 0.0, 1.0], [1.0] * 4])),
        NonPositiveLevel, "level 0.0 for series S.1 at 1988-03"),
    "Panel, duplicate month": (
        lambda: Panel(MONTHS4 + np.array([0, 0, 0, -1]), np.ones((3, 4))),
        SchemaError, "duplicate month 1988-03"),
    "Panel, inf level": (
        lambda: Panel(MONTHS4, np.array([[1.0] * 4, [1.0] * 4, [1.0, math.inf, 1.0, 1.0]])),
        SchemaError, "infinite level inf for series I.1 at 1988-02"),
    "GrowthPanel, months": (
        lambda: GrowthPanel(MONTHS4, np.ones((3, 3))), SchemaError, "months are inconsistent"),
    "GrowthPanel, no series": (
        lambda: GrowthPanel(MONTHS4, np.zeros((0, 4))),
        SchemaError, "growth rates are empty: 0 series, 4 months"),
    "GrowthPanel, no months": (
        lambda: GrowthPanel(MONTHS4[:0], np.zeros((3, 0))),
        SchemaError, "growth rates are empty: 3 series, 0 months"),
    "StandardizedPanel, months": (
        lambda: StandardizedPanel(MONTHS4, np.zeros((3, 3))),
        SchemaError, "months are inconsistent"),
    "StandardizedPanel, no series": (
        lambda: StandardizedPanel.from_values(np.zeros((0, 10))),
        SchemaError, "standardized values are empty: 0 series, 10 months"),
    "StandardizedPanel.from_values, 1-D values": (
        lambda: StandardizedPanel.from_values(np.zeros(4)),
        SchemaError, "standardized values and months are inconsistent"),
    "Panel, 1-D values": (
        lambda: Panel(MONTHS4, np.ones(4)), SchemaError, "panel values must be a 2-D array"),
    "SeriesId, goods 0": (
        lambda: SeriesId(1, 0), SchemaError, "^goods index must be >= 1, got 0$"),
    "SeriesId, goods -3": (
        lambda: SeriesId(Variable.INVENTORY, -3), SchemaError, "^goods index must be >= 1, got -3$"),
    "SeriesId, goods a string": (
        lambda: SeriesId(1, "2"), BadParameter, "^goods must be an integer, got '2'$"),
    "SeriesId, goods None": (
        lambda: SeriesId(1, None), BadParameter, "^goods must be an integer, got None$"),
    "SeriesId, goods a float": (
        lambda: SeriesId(1, 1.5), BadParameter, r"^goods must be an integer, got 1\.5$"),
    "SeriesId, goods a bool": (
        lambda: SeriesId(1, True), BadParameter, "^goods must be an integer, got True$"),
    "SeriesId.flat, n_goods a string": (
        lambda: SeriesId(1, 2).flat("21"), BadParameter,
        "^n_goods must be an integer, got '21'$"),
    "SeriesId.from_flat, flat a float": (
        lambda: SeriesId.from_flat(2.0, 21), BadParameter, r"^flat must be an integer, got 2\.0$"),
    "SeriesId.from_flat, n_goods None": (
        lambda: SeriesId.from_flat(2, None), BadParameter,
        "^n_goods must be an integer, got None$"),
    "parse_window, no colon": (
        lambda: parse_window("1988-01"), SchemaError, r"bad window '1988-01' \(expected START:END\)"),
    "parse_window, reversed": (
        lambda: parse_window("2000-01:1990-01"), SchemaError, "window start 2000-01 after end 1990-01"),
    "StandardizedPanel, no months": (
        lambda: StandardizedPanel(MONTHS4[:0], np.zeros((3, 0))),
        SchemaError, "standardized values are empty: 3 series, 0 months"),
    "PhaseTable, M not 3G": (
        lambda: PhaseTable(np.zeros(4), "x").class_average(1),
        SchemaError, "phase count 4 is not 3 x G"),
    "PhaseTable, no phases": (
        lambda: PhaseTable(np.zeros(0), "x"),
        SchemaError, "phase count 0 is not 3 x G"),
    "RippleReport, M not 3G": (
        lambda: RippleReport(np.zeros(4)),
        SchemaError, "response count 4 is not 3 x G"),
    "RippleReport, 2-D": (
        lambda: RippleReport(np.zeros((3, 3))),
        SchemaError, "response values must be a 1-D array"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_bad_panel_input_is_refused(case):
    call, error, message = REFUSED[case]
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------------------
# growth rates
# ---------------------------------------------------------------------------


def test_log_growth_powers_of_ten():
    panel = make_panel([[1, 10, 100]] * 3)
    rates = log_growth(panel).rates
    assert np.allclose(rates, 1.0, atol=1e-12)
    assert rates.shape == (3, 2)


def test_log_growth_constant_series():
    panel = make_panel([[5, 5, 5]] * 3)
    assert np.allclose(log_growth(panel).rates, 0.0, atol=0)


def test_log_growth_closed_form():
    panel = make_panel([[100, 110, 121]] * 3)
    assert log_growth(panel).rates[0][0] == pytest.approx(0.04139268515822507, abs=1e-15)


def test_simple_growth():
    panel = make_panel([[100, 110, 121]] * 3)
    rates = simple_growth(panel).rates
    assert rates[0][0] == pytest.approx(0.10, abs=1e-14)
    assert rates[0][1] == pytest.approx(0.10, abs=1e-14)
    const = make_panel([[7, 7, 7]] * 3)
    assert np.allclose(simple_growth(const).rates, 0.0, atol=0)


def test_log_vs_simple_growth_small_changes():
    # |dS/S| <= 1e-4: the two definitions agree to 1e-7 after the ln(10) scale
    rng = np.random.default_rng(11)
    steps = rng.uniform(-1e-4, 1e-4, size=(3, 50))
    levels = 100.0 * np.cumprod(1.0 + steps, axis=1)
    panel = make_panel(levels)
    diff = log_growth(panel).rates * math.log(10) - simple_growth(panel).rates
    assert np.abs(diff).max() <= 1e-7


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def test_standardize_two_points():
    panel = make_panel([[1, 10, 1]] * 3)  # rates (1, -1) in log10
    w = standardize(log_growth(panel))
    assert np.allclose(w.values, [[1.0, -1.0]] * 3, atol=1e-12)


def test_standardize_affine_invariance():
    rng = np.random.default_rng(5)
    base = rng.uniform(50, 150, size=(3, 30))
    panel = make_panel(base)
    w1 = standardize(log_growth(panel)).values
    # multiplying a series by a positive constant shifts log rates by a
    # constant, which centering removes
    scaled = base.copy()
    scaled[1] *= 37.5
    w2 = standardize(log_growth(make_panel(scaled))).values
    assert np.allclose(w1, w2, atol=1e-10)


def test_standardize_affine_rates_invariance():
    rng = np.random.default_rng(6)
    rates = rng.normal(0, 0.01, size=(3, 40))
    months = parse_month("1988-01") + np.arange(40)
    g1 = GrowthPanel(months=months, rates=rates)
    g2 = GrowthPanel(months=months, rates=3.7 * rates + 0.42)
    assert np.allclose(standardize(g1).values, standardize(g2).values, atol=1e-10)


def test_standardize_degenerate_series():
    panel = make_panel([[3, 3, 3], [1, 2, 3], [1, 2, 3]])
    with pytest.raises(DegenerateSeries):
        standardize(log_growth(panel))


def test_growth_panel_ids_follow_its_rows():
    months = parse_month("1988-01") + np.arange(10)
    rates = np.random.default_rng(3).normal(0, 0.01, size=(6, 10))
    g = GrowthPanel(months=months, rates=rates)
    assert g.ids == canonical_ids(2) and g.n_goods == 2
    w = standardize(g)
    assert w.ids == canonical_ids(2) and w.n_goods == 2
    # a constant series is named by its label in the 3 x G layout
    rates[4] = 0.25
    with pytest.raises(DegenerateSeries, match=r"series I\.1 has zero variance"):
        standardize(GrowthPanel(months=months, rates=rates))
    # and by its 1-based index without one
    four = GrowthPanel(months=months, rates=rates[:4])
    assert four.ids is None and four.n_goods is None
    with pytest.raises(DegenerateSeries) as exc:
        standardize(GrowthPanel(months=months, rates=rates[[0, 1, 4, 2]]))
    assert exc.value.series == 3


def test_n_goods_builds_no_series_ids(monkeypatch):
    # G is read off the row count; only ``ids`` builds the M identifiers
    built = []
    post_init = SeriesId.__post_init__
    monkeypatch.setattr(SeriesId, "__post_init__", lambda sid: (built.append(sid), post_init(sid)))
    months = parse_month("1988-01") + np.arange(10)
    g = GrowthPanel(months=months, rates=np.random.default_rng(3).normal(0, 0.01, size=(63, 10)))
    w = standardize(g)
    assert (g.n_goods, w.n_goods) == (21, 21) and built == []
    assert len(w.ids) == 63 and len(built) == 63


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_standardize_invariants_across_magnitudes(scale):
    rng = np.random.default_rng(int(scale * 1000) % 2**31)
    levels = scale * np.exp(rng.normal(0, 0.05, size=(3, 60)).cumsum(axis=1))
    w = standardize(log_growth(make_panel(levels)))
    assert np.abs(w.values.mean(axis=1)).max() <= 1e-10
    assert np.abs(w.values.std(axis=1) - 1.0).max() <= 1e-10
