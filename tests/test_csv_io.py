"""Panel ingest against its per-cell oracle, CSV fuzzing, and exact round trips."""

import csv
import io
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panelresponse import (
    NullEnsemble,
    Panel,
    canonical_ids,
    corr_from_csv,
    corr_to_csv,
    correlation_matrix,
    eigendecompose,
    genuine_matrix,
    load_panel,
    parse_month,
    parse_window,
    write_panel_csv,
)
from panelresponse import _files, cli
from panelresponse import panel as panel_module
from panelresponse.errors import MissingData, NonPositiveLevel, PanelResponseError, SchemaError
from panelresponse.panel import StandardizedPanel

from oracles import csv_writer_text, explicit_load_panel, month_list, traced_peak


def outcome(loader, text, window):
    """('ok', months, values, ids) or ('error', type, message)."""
    try:
        panel = loader(io.StringIO(text), window=window)
    except PanelResponseError as exc:
        return ("error", type(exc), str(exc))
    return ("ok", panel.months.tolist(), panel.values.tolist(), panel.ids)


# ---------------------------------------------------------------------------
# the vectorised loader against the per-cell oracle
# ---------------------------------------------------------------------------

GOOD_CELLS = ["1.5", "2", "100.25", "7e2", "1_0", "١٢", "\xa03\xa0", " 2 ", '"4.5"']
# cells that convert but are missing, non-positive or not finite
ODD_CELLS = ["", " ", "0", "-1.5", "-0", "-inf", "nan", "inf", "1e400"]
DATE_CELLS = ["", "NaT", "1988-13", "x", "1988-01-15", " 1988-02 "]
DEFECTS = ["bad token", "bad date", "ragged row", "duplicate month", "gap"]


# each window (none, a string or a pair) with the month its panels start near
WINDOWS = [
    (None, "1987-11"), ("1987-12:1988-04", "1987-12"), ("1988-01:1988-03", "1988-01"),
    ("1999-12:2000-06", "1999-12"), (("1987-11", "1988-02"), "1987-11"),
]


@st.composite
def panel_texts(draw):
    """(text, window): small panel CSVs, valid, with odd cells, or broken in up to two ways.

    Each panel has 3 to 9 months, starting from two months before its
    window's first month to one after it, so every panel overlaps its
    window.
    """
    window, first = draw(st.sampled_from(WINDOWS))
    g = draw(st.integers(1, 2))
    labels = draw(st.permutations([sid.label for sid in canonical_ids(g)]))
    edit = draw(st.sampled_from([None] * 6 + ["drop", "duplicate", "bad id"]))
    if edit == "drop":
        labels = labels[:-1]
    elif edit == "duplicate":
        labels = labels + labels[:1]
    elif edit == "bad id":
        labels = labels[:-1] + ["X.1"]
    n = draw(st.integers(3, 9))
    months = month_list(str(parse_month(first) + draw(st.integers(-2, 1))), n)
    odd = draw(st.sampled_from([0.0, 0.0, 0.1, 0.3]))
    table = [
        [draw(st.sampled_from(ODD_CELLS if draw(st.floats(0, 1)) < odd else GOOD_CELLS))
         for _ in labels]
        for _ in months
    ]
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=2)):
        j = draw(st.integers(0, n - 1))
        if defect == "bad token":
            table[j][draw(st.integers(0, len(table[j]) - 1))] = draw(
                st.sampled_from(["x", "1__0", "0x1"]))
        elif defect == "bad date":
            months[j] = draw(st.sampled_from(DATE_CELLS))
        elif defect == "ragged row":
            table[j] = table[j][:-1] if draw(st.booleans()) else table[j] + ["1"]
        else:
            months[j] = months[max(j - 1, 0)] if defect == "duplicate month" else "2003-05"
    rows = draw(st.permutations([",".join([m] + cells) for m, cells in zip(months, table)]))
    for extra in draw(st.lists(st.sampled_from(["# note", "", ",,", "  "]), max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), extra)
    header = draw(st.sampled_from(["date", "Date", " date "]))
    return "\n".join([",".join([header] + labels)] + rows) + "\n", window


def test_load_panel_matches_per_cell_oracle():
    reached = set()

    # one in-window level per kind of bad level, so each kind is compared
    # whatever the derandomized draw holds
    @settings(max_examples=400)
    @given(panel_texts())
    @example(("date,I.1,S.1,P.1\n1988-01,1,2,3\n1988-02,0,1,-1\n1988-03,1,1,1\n", None))
    @example(("date,I.1,S.1,P.1\n1988-01,1,2,3\n1988-02,1e400,1,1\n1988-03,1,1,1\n", None))
    @example(("date,I.1,S.1,P.1\n1988-01,1,2,3\n1988-02,inf,1,nan\n1988-03,1,1,1\n", None))
    def check(case):
        text, window = case
        new = outcome(load_panel, text, window)
        assert new == outcome(explicit_load_panel, text, window)
        reached.add("ok" if new[0] == "ok" else new[1].__name__)
        if new[0] == "error" and new[1] is SchemaError:
            reached.update(k for k in ("bad value", "bad date", "row has", "infinite level",
                                       "duplicate month", "duplicate series") if k in new[2])
            if "not consecutive" in new[2]:
                reached.add("gap")

    check()
    # the comparison means little unless panels load and fail in every way
    assert reached >= {
        "ok", "MissingData", "NonPositiveLevel", "duplicate month", "gap", "duplicate series",
        "SchemaError", "bad value", "bad date", "row has", "infinite level",
    }


@st.composite
def late_start_panels(draw):
    """Panels whose series start late, with a window inside or across the blanks.

    Each series is blank before its own first month, as in IIP files where
    a series begins after the panel does.  One in four panels also holds a
    level that reads as +inf.
    """
    g = draw(st.integers(1, 2))
    labels = draw(st.permutations([sid.label for sid in canonical_ids(g)]))
    n = draw(st.integers(3, 9))
    months = month_list("1987-11", n)
    starts = [draw(st.integers(0, n - 1)) for _ in labels]
    table = [
        [draw(st.sampled_from(["", " "])) if j < s else draw(st.sampled_from(GOOD_CELLS))
         for s in starts]
        for j in range(n)
    ]
    if draw(st.integers(0, 3)) == 0:
        # one level that reads as +inf, after its series' start
        c = draw(st.integers(0, len(labels) - 1))
        table[draw(st.integers(starts[c], n - 1))][c] = draw(st.sampled_from(["inf", "1e400"]))
    rows = [",".join([m] + cells) for m, cells in zip(months, table)]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    window = draw(st.sampled_from([None, (months[lo], months[hi]), f"{months[lo]}:{months[hi]}"]))
    return "\n".join([",".join(["date"] + labels)] + rows) + "\n", window


def test_load_panel_matches_per_cell_oracle_on_late_starting_series():
    reached = set()

    @settings(max_examples=200)
    @given(late_start_panels())
    def check(case):
        text, window = case
        new = outcome(load_panel, text, window)
        assert new == outcome(explicit_load_panel, text, window)
        reached.add("ok" if new[0] == "ok" else new[1].__name__)
        if new[0] == "error" and "infinite level" in new[2]:
            reached.add("infinite level")

    check()
    # windows after every series' start load; windows over a blank or an
    # infinite level do not
    assert reached >= {"ok", "MissingData", "infinite level"}


def test_blank_outside_the_window_reads_only_its_own_row_cell_by_cell(monkeypatch):
    read_cells = panel_module._read_cells
    rows_read = []

    def counting(name, raw, month, col_ids):
        rows_read.append(str(month))
        return read_cells(name, raw, month, col_ids)

    monkeypatch.setattr(panel_module, "_read_cells", counting)
    labels = [sid.label for sid in canonical_ids(2)]
    rows = [[m] + ["1.5"] * len(labels) for m in month_list("1987-12", 25)]
    rows[0][3] = ""
    panel = load_panel(io.StringIO(csv_writer_text([["date"] + labels] + rows)),
                       window="1988-01:1989-12")
    assert rows_read == ["1987-12"]
    assert panel.n_months == 24 and np.all(panel.values == 1.5)


@pytest.mark.parametrize("from_path", [True, False], ids=["path", "stream"])
def test_ingest_buffer_grows_and_trims_to_the_oracle(tmp_path, from_path):
    # about 1,000 kept months, so the ingest buffer grows past its first
    # rows several times; shuffled rows and series exercise both reorders
    rng = np.random.default_rng(8)
    labels = [sid.label for sid in canonical_ids(2)]
    labels = [labels[i] for i in rng.permutation(len(labels))]
    rows = [[m] + [repr(v) for v in rng.uniform(50.0, 150.0, len(labels)).tolist()]
            for m in month_list("1920-01", 1010)]
    rows[2][4] = ""  # a blank before the window
    rows = [rows[i] for i in rng.permutation(len(rows))]
    text = csv_writer_text([["date"] + labels] + rows)
    window = "1920-06:2003-10"
    path = tmp_path / "panel.csv"
    path.write_text(text)
    source = path if from_path else io.StringIO(text)
    panel = load_panel(source, window=window)
    want = explicit_load_panel(io.StringIO(text), window=window)
    assert panel.n_months == 1001 > 8 * panel_module._FIRST_ROWS
    assert panel.months.tobytes() == want.months.tobytes()
    assert panel.values.tobytes() == want.values.tobytes()


def test_load_panel_peak_memory_is_a_few_panels(tmp_path):
    # the 300 x 1200 shape: holding every cell's text at once peaks near
    # 12x the panel's bytes, a row-at-a-time reader near 2x
    g, n = 100, 1200
    values = np.random.default_rng(3).uniform(50.0, 150.0, (3 * g, n))
    path = tmp_path / "panel.csv"
    write_panel_csv(
        Panel(months=parse_month("1900-01") + np.arange(n), values=values),
        path,
    )
    panel, peak = traced_peak(lambda: load_panel(path))
    assert np.array_equal(panel.values, values)
    assert peak < 4 * panel.values.nbytes + (1 << 20)


def test_corr_to_csv_peak_memory_is_below_its_text(tmp_path):
    x = np.random.default_rng(4).standard_normal((300, 400))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    c = correlation_matrix(StandardizedPanel.from_values(x))
    _, peak = traced_peak(lambda: corr_to_csv(c, tmp_path / "corr.csv"))
    # the file holds ~1.8 MB of text
    assert peak < 1 << 20
    assert np.array_equal(corr_from_csv(tmp_path / "corr.csv").values, c.values)


def test_pooled_to_csv_peak_memory_is_below_its_text(tmp_path):
    # each sample's spectrum in descending order, as null_ensemble keeps it
    pooled = -np.sort(-np.random.default_rng(5).uniform(0.2, 3.0, (10_000, 63)), axis=1)
    e = NullEnsemble(lambda_max=pooled[:, 0], pooled=pooled)
    _, peak = traced_peak(lambda: e.pooled_to_csv(tmp_path / "pooled.csv"))
    # the file holds ~15 MB of text; rows taken all at once peak near 24 MB
    assert peak < 1 << 20
    assert (tmp_path / "pooled.csv").read_text().count("\n") == 1 + pooled.size


def test_eigenvector_rows_peak_memory_is_below_their_text(tmp_path):
    x = np.random.default_rng(4).standard_normal((300, 400))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    basis = eigendecompose(correlation_matrix(StandardizedPanel.from_values(x)))
    labels = [str(i + 1) for i in range(300)]
    path = tmp_path / "eigenvectors.csv"
    out = cli._Artifacts(tmp_path, {})
    _, peak = traced_peak(lambda: out.table(
        path.name, ["mode", "series", "component"], cli._eigenvector_rows(basis, labels)))
    out.commit()
    # the file holds ~2.5 MB of text; rows taken all at once peak near 3 MB
    assert peak < 1 << 20
    rows = list(csv.reader(path.read_text().splitlines()[2:]))
    assert len(rows) == 300 * 300
    assert [float(r[2]) for r in rows[300:600]] == basis.vectors[:, 1].tolist()


def test_first_bad_cell_is_first_in_month_then_series_order():
    # I.1 in February comes before S.1 in March, though S.1 is the earlier
    # series and column
    text = "date,P.1,S.1,I.1\n1988-03,1,,1\n1988-01,1,1,1\n1988-02,1,1,0\n"
    with pytest.raises(NonPositiveLevel) as exc:
        load_panel(io.StringIO(text))
    assert (exc.value.series, exc.value.date, exc.value.value) == ("I.1", "1988-02", 0.0)
    with pytest.raises(MissingData, match="S.1 at 1988-03"):
        load_panel(io.StringIO(text.replace(",0\n", ",1\n")))
    # within a month the series' flat order decides, not the header's:
    # P.1 is reported though I.1 is the earlier column
    text = "date,I.1,S.1,P.1\n1988-01,1,1,1\n1988-02,inf,1,nan\n1988-03,1,1,1\n"
    with pytest.raises(MissingData, match="P.1 at 1988-02"):
        load_panel(io.StringIO(text))
    with pytest.raises(SchemaError, match="infinite level inf for series I.1 at 1988-02"):
        load_panel(io.StringIO(text.replace("nan", "1").replace("inf,", "1e400,")))


def test_empty_date_cell_is_a_bad_date():
    text = "date,P.1,S.1,I.1\n1988-01,1,1,1\n,1,1,1\n1988-02,1,1,1\n1988-03,1,1,1\n"
    with pytest.raises(SchemaError, match="bad date ''"):
        load_panel(io.StringIO(text), window="1988-01:1988-03")
    with pytest.raises(SchemaError, match="bad date 'NaT'"):
        parse_month("NaT")
    # a datetime64 that is not a month: its repr differs across numpy versions
    with pytest.raises(SchemaError, match=r"^bad date .*NaT.*: not a month$"):
        parse_month(np.datetime64("NaT"))


@pytest.mark.parametrize("date", ["today", "now", "99999999999999999999-01"])
def test_only_yyyy_mm_strings_are_months(date):
    text = f"date,P.1,S.1,I.1\n1988-01,1,1,1\n1988-02,1,1,1\n{date},1,1,1\n"
    with pytest.raises(SchemaError, match=f"bad date '{date}'"):
        load_panel(io.StringIO(text))
    with pytest.raises(SchemaError, match="bad date"):
        parse_month(date)


def test_window_and_long_years_still_parse():
    assert parse_window("1988-01:2007-12") == (np.datetime64("1988-01"), np.datetime64("2007-12"))
    assert parse_month(" 10000-03 ") == np.datetime64("10000-03")


@pytest.mark.parametrize("month", [5, True, 1988.0, None])
def test_a_month_is_a_string_or_a_datetime64(month):
    # numpy reads 5 as 1970-06 and True as 1970-02
    with pytest.raises(SchemaError, match="bad date"):
        parse_month(month)
    text = "date,P.1,S.1,I.1\n1988-01,1,1,1\n1988-02,1,1,1\n1988-03,1,1,1\n"
    with pytest.raises(SchemaError, match="bad date"):
        load_panel(io.StringIO(text), window=(month, "1988-03"))
    assert parse_month(np.datetime64("1988-02-17")) == np.datetime64("1988-02")


# ---------------------------------------------------------------------------
# the header check is bounded by the header, not by the goods index it names
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("header, goods", [("date,P.12", 12), ("date,S.3,P.1", 3)])
def test_incomplete_grid_names_the_first_ten_sorted_labels(header, goods):
    text = header + "\n1988-01,1\n"
    columns = header.count(",")
    expected = [sid.label for sid in canonical_ids(goods) if sid.label not in header.split(",")]
    with pytest.raises(SchemaError) as exc:
        load_panel(io.StringIO(text))
    more = 3 * goods - columns - 10
    tail = f" and {more} more" if more > 0 else ""
    assert str(exc.value) == f"<stream>: incomplete series grid, missing {expected[:10]}{tail}"


def test_huge_goods_index_fails_fast():
    # a loader that builds the whole grid takes seconds on this header and
    # lists all 299,999 missing labels; a larger index grows both without bound
    start = time.perf_counter()
    with pytest.raises(SchemaError) as exc:
        load_panel(io.StringIO("date,P.100000\n1988-01,1\n"))
    assert time.perf_counter() - start < 1.0
    assert str(exc.value).endswith(" and 299989 more")
    assert len(str(exc.value)) < 300


def test_series_id_with_too_many_digits_is_a_schema_error():
    with pytest.raises(SchemaError, match="bad series id"):
        load_panel(io.StringIO("date,P." + "9" * 5000 + "\n"))


# a panel file the reader refuses before it reads a value, and the whole message
MALFORMED_PANELS = {
    "empty file": ("", "<stream>: empty file"),
    "only comments": ("# a note\n", "<stream>: empty file"),
    "first column": ("month,P.1,S.1,I.1\n1988-01,1,2,3\n", "<stream>: first column must be 'date'"),
    "no series": ("date\n1988-01\n", "<stream>: no series columns"),
    "ragged row": ("date,P.1,S.1,I.1\n1988-01,1,2\n", "<stream>: row has 3 cells, expected 4"),
    "no data rows": ("date,P.1,S.1,I.1\n\n# a note\n", "<stream>: no data rows"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PANELS))
def test_malformed_panel_file_is_a_schema_error(case):
    text, message = MALFORMED_PANELS[case]
    with pytest.raises(SchemaError) as exc:
        load_panel(io.StringIO(text))
    assert str(exc.value) == message


BOM = "\ufeff"
BOM_PANEL = "date,P.1,S.1,I.1\n1988-01,1,2,3\n1988-02,2,3,4\n1988-03,3,4,5\n"


@pytest.mark.parametrize("prefix", [BOM, BOM + "# saved by a spreadsheet\n"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, prefix):
    plain = load_panel(io.StringIO(BOM_PANEL))
    path = tmp_path / "bom.csv"
    path.write_bytes((prefix + BOM_PANEL).encode("utf-8"))
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    for source in (path, io.StringIO(prefix + BOM_PANEL)):
        panel = load_panel(source)
        assert np.array_equal(panel.values, plain.values)
        assert np.array_equal(panel.months, plain.months)
        assert panel.ids == plain.ids
    w = StandardizedPanel.from_values(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    matrix = correlation_matrix(w)
    buf = io.StringIO()
    corr_to_csv(matrix, buf)
    back = corr_from_csv(io.StringIO(prefix + buf.getvalue()))
    assert np.array_equal(back.values, matrix.values)


@pytest.mark.parametrize("text, message", [
    (BOM + BOM_PANEL, "^<stream>: first column must be 'date'$"),  # a second mark
    (BOM_PANEL.replace("1988-02", BOM + "1988-02"),
     r"^bad date '\\ufeff1988-02': expected YYYY-MM$"),
    (BOM_PANEL.replace(",2,3,4", "," + BOM + "2,3,4"),
     r"^<stream>: bad value '\\ufeff2' for P.1 at 1988-02$"),
])
def test_a_byte_order_mark_elsewhere_is_refused(text, message):
    with pytest.raises(SchemaError, match=message):
        load_panel(io.StringIO(BOM + text))


# ---------------------------------------------------------------------------
# fuzzing: every failure is a PanelResponseError
# ---------------------------------------------------------------------------

FUZZ_ALPHABET = list('date,PSI.0123456789-#\n\r" e+nai_x\x00\xa0١\t')


@given(
    st.one_of(
        st.text(FUZZ_ALPHABET, max_size=120),
        st.text(FUZZ_ALPHABET, max_size=120).map(lambda t: "date,P.1,S.1,I.1\n" + t),
        st.text(FUZZ_ALPHABET, max_size=120).map(
            lambda t: "date,P.1,S.1,I.1\n1988-01,1,2,3\n1988-02,2,3,4\n" + t),
    ),
    st.sampled_from([window for window, _ in WINDOWS]),
)
def test_load_panel_raises_only_panelresponse_errors(text, window):
    try:
        panel = load_panel(io.StringIO(text), window=window)
    except PanelResponseError:
        return
    assert isinstance(panel, Panel)


def test_undecodable_file_is_a_schema_error(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_bytes(b"date,P.1,S.1,I.1\n1988-01,\xff\xfe,1,1\n")
    with pytest.raises(SchemaError, match="unreadable CSV"):
        load_panel(path)
    matrix = tmp_path / "matrix.csv"
    matrix.write_bytes(b"kind,m,goods,k\nraw,1,,\n\xff\n")
    with pytest.raises(SchemaError, match="unreadable CSV"):
        corr_from_csv(matrix)


def test_unreadable_byte_outranks_an_earlier_bad_cell(tmp_path):
    # the whole file is still read before a cell error is raised
    path = tmp_path / "panel.csv"
    path.write_bytes(b"date,P.1,S.1,I.1\n1988-01,x,1,1\n1988-02,1,1,1\n1988-03,\xff,1,1\n")
    with pytest.raises(SchemaError, match="unreadable CSV"):
        load_panel(path)


# ---------------------------------------------------------------------------
# exact round trips, in the bytes csv.writer gave
# ---------------------------------------------------------------------------

levels = st.floats(min_value=5e-324, max_value=1e300, allow_nan=False, allow_infinity=False)


@given(
    st.integers(1, 3),
    st.integers(3, 12),
    st.sampled_from(["1988-01", "1999-11", "0001-01", "9999-10"]),
    st.data(),
)
def test_write_panel_csv_load_panel_round_trip(g, n, start, data):
    values = np.array(data.draw(st.lists(levels, min_size=3 * g * n, max_size=3 * g * n)))
    panel = Panel(
        months=parse_month(start) + np.arange(n),
        values=values.reshape(3 * g, n),
    )
    buf = io.StringIO()
    write_panel_csv(panel, buf)
    assert buf.getvalue() == csv_writer_text(
        [["date"] + [sid.label for sid in panel.ids]]
        + [[str(m)] + [repr(float(v)) for v in panel.values[:, j]]
           for j, m in enumerate(panel.months)]
    )
    back = load_panel(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.values, panel.values)
    assert np.array_equal(back.months, panel.months)
    assert back.ids == panel.ids


@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_corr_to_csv_corr_from_csv_round_trip(g, seed, data):
    m = 3 * g
    x = np.random.default_rng(seed).standard_normal((m, 4 * m))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    raw = correlation_matrix(StandardizedPanel.from_values(x))
    c = raw if data.draw(st.booleans()) else genuine_matrix(
        eigendecompose(raw), data.draw(st.integers(0, m)))
    buf = io.StringIO()
    corr_to_csv(c, buf)
    assert buf.getvalue() == csv_writer_text(
        [["kind", "m", "goods", "k"],
         [c.kind, c.m, "" if c.n_goods is None else c.n_goods,
          "" if c.n_modes is None else c.n_modes]]
        + [[repr(float(v)) for v in row] for row in c.values]
    )
    back = corr_from_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.values, c.values)
    assert (back.kind, back.n_goods, back.n_modes) == (c.kind, c.n_goods, c.n_modes)


@pytest.mark.parametrize(
    "text",
    [
        "kind,m,goods,k\nraw,2,,\n1.0,0.5\n0.5\n",  # ragged row
        "kind,m,goods,k\nraw,2,,\n1.0,0.5\n0.5,one\n",  # non-numeric cell
        "kind,m,goods,k\nraw,2.0,,\n1.0,0.5\n0.5,1.0\n",  # non-integer m
        "kind,m,goods,k\nraw,x,,\n1.0,0.5\n0.5,1.0\n",  # non-numeric m
        "kind,m,goods,k\nraw\n1.0,0.5\n0.5,1.0\n",  # header row without m
        "kind,m,goods,k\nraw,3,,\n1.0,0.5\n0.5,1.0\n",  # fewer rows than m
        "kind,m,goods,k\nraw,2,one,\n1.0,0.5\n0.5,1.0\n",  # non-integer goods
    ],
)
def test_corr_from_csv_malformed_is_a_schema_error(text):
    with pytest.raises(SchemaError):
        corr_from_csv(io.StringIO(text))


def test_corr_from_csv_field_past_the_csv_limit_is_a_schema_error():
    text = "kind,m,goods,k\nraw,1,,\n" + "1" * (1 << 18) + "\n"
    with pytest.raises(SchemaError, match="unreadable CSV"):
        corr_from_csv(io.StringIO(text))


# ---------------------------------------------------------------------------
# the one CSV writer renders what csv.writer does, in blocks of any size
# ---------------------------------------------------------------------------

ODD_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 2.2e-308,
              1e16, 1e-5, 0.1, -1.5e300]
cells = st.one_of(
    st.integers(-10**20, 10**20),
    st.sampled_from(ODD_FLOATS),
    st.floats(),
    # labels the package writes need no quoting: no comma, quote or line break
    st.text(st.characters(exclude_characters=',"\r\n', exclude_categories=("Cs",)),
            min_size=1, max_size=8),
)


@pytest.mark.parametrize("block_cells", [1, 3, _files._BLOCK_CELLS])
def test_write_rows_matches_csv_writer(monkeypatch, block_cells):
    monkeypatch.setattr(_files, "_BLOCK_CELLS", block_cells)

    @given(st.lists(st.lists(cells, max_size=6).map(tuple), max_size=40))
    def check(rows):
        buf = io.StringIO()
        _files.write_rows(buf, iter(rows))
        assert buf.getvalue() == csv_writer_text(rows)

    check()
