"""Monthly index panels: ingestion, validation, growth rates, standardization.

A panel holds monthly index levels for M = 3G series: three variable classes
(production, shipments, inventory) times G goods categories.  Series are kept
in canonical flat order ``l = G*(alpha-1) + g`` with ``l`` running 1..M.

The usual pipeline is::

    panel = load_panel("iip.csv", window=("1988-01", "2007-12"))
    w = standardize(log_growth(panel))

after which ``w.values`` is an M x N' array of zero-mean, unit-variance
growth rates (population normalization, so the downstream correlation matrix
has an exactly unit diagonal).
"""

from __future__ import annotations

import enum
import itertools
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO, Union

import numpy as np

from ._files import open_text, read_rows, write_rows
from .errors import (
    BadParameter,
    DegenerateSeries,
    MissingData,
    NonPositiveLevel,
    PanelResponseError,
    SchemaError,
)


class Variable(enum.IntEnum):
    """Variable class of a series: production, shipments, or inventory.

    ``Variable(x)`` takes the class number 1, 2 or 3, or a code: ``P``,
    ``S`` or ``I``, or the class name, in any case.  Anything else is a
    :class:`BadParameter`.
    """

    PRODUCTION = 1
    SHIPMENTS = 2
    INVENTORY = 3

    @property
    def code(self) -> str:
        return {1: "P", 2: "S", 3: "I"}[int(self)]

    @classmethod
    def _missing_(cls, value) -> "Variable":
        # Enum raises this in place of its own ValueError
        if isinstance(value, str):
            for member in cls:
                if value.upper() == member.code or value.lower() == member.name.lower():
                    return member
        raise BadParameter(f"unknown variable class {value!r}")


#: Standard 21-category classification of the Japanese Indices of Industrial
#: Production (by use of goods).  Categories 1-19 are final demand goods,
#: 20-21 producer (intermediate) goods.
DEFAULT_GOODS_LABELS: dict[int, str] = {
    1: "Manufacturing Equipment",
    2: "Electricity",
    3: "Communication and Broadcasting",
    4: "Agriculture",
    5: "Construction (capital)",
    6: "Transport",
    7: "Offices",
    8: "Other Capital Goods",
    9: "Construction",
    10: "Engineering",
    11: "House Work (durable)",
    12: "Heating/Cooling Equipment",
    13: "Furniture & Furnishings",
    14: "Education & Amusement (durable)",
    15: "Motor Vehicles",
    16: "House Work (nondurable)",
    17: "Education & Amusement (nondurable)",
    18: "Clothing & Footwear",
    19: "Food & Beverage",
    20: "Mining & Manufacturing",
    21: "Others",
}

_SERIES_RE = re.compile(r"^([PSI])\.(\d+)$")


@dataclass(frozen=True, order=True)
class SeriesId:
    """Identifier of one panel series: variable class plus goods category."""

    alpha: Variable
    goods: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Variable(self.alpha))
        object.__setattr__(self, "goods", _integer("goods", self.goods))
        if self.goods < 1:
            raise SchemaError(f"goods index must be >= 1, got {self.goods}")

    def flat(self, n_goods: int) -> int:
        """1-based flat index l = G*(alpha-1) + g."""
        n_goods = _integer("n_goods", n_goods)
        if not 1 <= self.goods <= n_goods:
            raise BadParameter(f"goods index {self.goods} outside [1, {n_goods}]")
        return n_goods * (int(self.alpha) - 1) + self.goods

    @classmethod
    def from_flat(cls, flat: int, n_goods: int) -> "SeriesId":
        """Inverse of :meth:`flat`."""
        flat, n_goods = _integer("flat", flat), _integer("n_goods", n_goods)
        if not 1 <= flat <= 3 * n_goods:
            raise BadParameter(f"flat index {flat} outside [1, {3 * n_goods}]")
        alpha, g = divmod(flat - 1, n_goods)
        return cls(Variable(alpha + 1), g + 1)

    @property
    def label(self) -> str:
        return f"{self.alpha.code}.{self.goods}"

    @classmethod
    def parse(cls, text: str) -> "SeriesId":
        m = _SERIES_RE.match(text.strip())
        try:
            goods = int(m.group(2)) if m is not None else None
        except ValueError:  # more digits than int() converts
            goods = None
        if goods is None:
            raise SchemaError(f"bad series id {text!r} (expected P.g, S.g, or I.g)")
        return cls(Variable(m.group(1)), goods)


def canonical_ids(n_goods: int) -> tuple[SeriesId, ...]:
    """All 3*G series ids in flat order."""
    return tuple(_flat_ids(n_goods))


def _flat_ids(n_goods: int) -> Iterator[SeriesId]:
    """The 3*G series ids in flat order, one at a time."""
    return (SeriesId(alpha, g) for alpha in Variable for g in range(1, n_goods + 1))


# The 3 x G layout of an M-row container (a panel's series, a matrix's rows
# and columns, a basis's components, a table's entries) is known here alone.


def _goods(m: int) -> int | None:
    """G of an M-row container in the 3 x G layout: M // 3 if M = 3G, else None."""
    return m // 3 if m % 3 == 0 else None


def _series_ids(m: int) -> tuple[SeriesId, ...] | None:
    """Flat-order ids of an M-row container in the 3 x G layout, else None."""
    return None if (g := _goods(m)) is None else canonical_ids(g)


def _class_rows(alpha: Variable | int | str, m: int) -> slice:
    """The rows of variable class ``alpha`` in an M-row container, M = 3G."""
    g, a = _goods(m), int(Variable(alpha))
    return slice((a - 1) * g, a * g)


def _row(sid: SeriesId, m: int) -> int:
    """0-based row of ``sid`` in an M-row container; BadParameter unless its layout holds it."""
    g = _goods(m)
    if g is None:
        raise BadParameter(f"series {sid.label}: {m} series have no 3 x G layout")
    if sid.goods > g:
        raise BadParameter(f"series {sid.label} not in a {g}-goods layout")
    return sid.flat(g) - 1


def _layout_entries(values, what: str) -> np.ndarray:
    """``values`` read-only, one ``what`` per series of a 3 x G layout, else SchemaError."""
    v = _freeze(np.asarray(values))
    if v.ndim != 1:
        raise SchemaError(f"{what} values must be a 1-D array")
    if not v.size or _goods(v.size) is None:
        raise SchemaError(f"{what} count {v.size} is not 3 x G")
    return v


# ---------------------------------------------------------------------------
# month handling
# ---------------------------------------------------------------------------

MonthLike = Union[str, np.datetime64]

_MONTH_RE = re.compile(r"[0-9]{4,}-[0-9]{2}")


def parse_month(text: MonthLike) -> np.datetime64:
    """Parse a 'YYYY-MM' string, or a datetime64 truncated, to month granularity.

    Surrounding whitespace is ignored.  Any other string is a bad date,
    including the 'today', 'now' and 'NaT' numpy would read, and a year
    too large for numpy to hold (it would wrap).  Years past 9999 keep
    their extra digits, as ``str`` of such a month writes them.  A number or
    a bool is a bad date too (numpy would read 5 as 1970-06).
    """
    value = text
    if isinstance(text, str):
        value = text.strip()
        if not _MONTH_RE.fullmatch(value):
            raise SchemaError(f"bad date {text!r}: expected YYYY-MM")
    elif not isinstance(text, np.datetime64):
        raise SchemaError(f"bad date {text!r}: expected a YYYY-MM string")
    try:
        month = np.datetime64(value, "M")
    except ValueError as exc:
        raise SchemaError(f"bad date {text!r}: {exc}") from None
    if np.isnat(month):
        raise SchemaError(f"bad date {text!r}: not a month")
    if isinstance(value, str) and str(month) != value:
        raise SchemaError(f"bad date {text!r}: year out of range")
    return month


def parse_window(text: str) -> tuple[np.datetime64, np.datetime64]:
    """Parse a 'YYYY-MM:YYYY-MM' inclusive month range."""
    parts = text.split(":")
    if len(parts) != 2:
        raise SchemaError(f"bad window {text!r} (expected START:END)")
    lo, hi = parse_month(parts[0]), parse_month(parts[1])
    if lo > hi:
        raise SchemaError(f"window start {lo} after end {hi}")
    return lo, hi


def _freeze(a: np.ndarray) -> np.ndarray:
    """``a`` read-only for a container: adopted if frozen and owning its data, else copied."""
    dtype = a.dtype if a.dtype.kind == "M" else np.dtype(float)
    if a.dtype == dtype and a.flags.owndata and not a.flags.writeable:
        return a
    return _frozen(np.array(a, dtype=dtype, copy=True))


def _frozen(a: np.ndarray) -> np.ndarray:
    """Make a fresh array read-only, so a container adopts it without a copy."""
    a.setflags(write=False)
    return a


def _integer(name: str, value, error: type[PanelResponseError] = BadParameter) -> int:
    """``value`` as a Python int; a bool, float or string is an ``error`` naming ``name``."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# panel containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Panel:
    """Validated monthly index levels for a complete 3 x G series grid.

    Attributes
    ----------
    months : np.ndarray
        datetime64[M], strictly increasing, one-month spacing, length N >= 3.
    values : np.ndarray
        M x N positive finite levels, rows in canonical flat order, M = 3G >= 3.

    ``ids`` (the M = 3G flat-order identifiers, :func:`canonical_ids`),
    ``n_goods``, ``n_series`` and ``n_months`` are derived from ``values``.

    This is the one judge of a level panel; :func:`load_panel` hands it the
    file's months and values unchecked.  After the shape, it checks, in
    order: at least 3 months; consecutive months (a repeated month is told
    apart from a gap, and either error names the month); and the first bad
    level, month by month and then over series in flat order.  A NaN level
    (a blank cell) is :class:`MissingData`, a level <= 0 (``-inf``
    included) :class:`NonPositiveLevel`, and ``+inf`` a :class:`SchemaError`
    naming the value, the series and the month.
    """

    months: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        months = np.asarray(self.months, dtype="datetime64[M]")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise SchemaError("panel values must be a 2-D array")
        m, n = values.shape
        if months.shape != (n,):
            raise SchemaError(f"{months.size} months for {n} columns")
        if n < 3:
            raise SchemaError(f"panel needs at least 3 months, got {n}")
        if m < 3:
            raise SchemaError(f"panel needs at least 3 series, got {m}")
        if _goods(m) is None:
            raise SchemaError(f"series count {m} is not 3 x G")
        steps = np.diff(months.astype("int64"))
        if np.any(steps != 1):
            j = int(np.argmax(steps != 1))
            if steps[j] == 0:
                raise SchemaError(f"duplicate month {months[j]}")
            raise SchemaError(
                f"months are not consecutive: {months[j + 1]} follows {months[j]}"
            )
        good = (values > 0.0) & (values < np.inf)
        if not good.all():
            # the first bad level in (month, series) order
            col, row = divmod(int(np.argmin(good.T)), m)
            label = SeriesId.from_flat(row + 1, _goods(m)).label
            month, level = str(months[col]), float(values[row, col])
            if np.isnan(level):
                raise MissingData(label, month)
            if level <= 0.0:
                raise NonPositiveLevel(label, month, level)
            raise SchemaError(f"infinite level {level!r} for series {label} at {month}")
        object.__setattr__(self, "months", _freeze(months))
        object.__setattr__(self, "values", _freeze(values))

    @property
    def ids(self) -> tuple[SeriesId, ...]:
        return canonical_ids(self.n_goods)

    @property
    def n_goods(self) -> int:
        return _goods(self.values.shape[0])

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_months(self) -> int:
        return self.values.shape[1]


def _series_by_month(months, values, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``months`` and ``values`` as arrays, if they are N' months and a non-empty M x N' grid."""
    months = np.asarray(months, dtype="datetime64[M]")
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or months.shape != (values.shape[1],):
        raise SchemaError(f"{what} and months are inconsistent")
    if not values.size:
        m, n = values.shape
        raise SchemaError(f"{what} are empty: {m} series, {n} months")
    return months, values


@dataclass(frozen=True, eq=False)
class GrowthPanel:
    """Month-over-month growth rates, one column per transition t_j -> t_{j+1}.

    At least one series and one month.  ``ids`` and ``n_goods`` are derived
    from the row count M: the :func:`canonical_ids` of the 3 x G layout
    when M = 3G, else None.
    """

    months: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        months, rates = _series_by_month(self.months, self.rates, "growth rates")
        object.__setattr__(self, "months", _freeze(months))
        object.__setattr__(self, "rates", _freeze(rates))

    @property
    def ids(self) -> tuple[SeriesId, ...] | None:
        return _series_ids(self.rates.shape[0])

    @property
    def n_goods(self) -> int | None:
        return _goods(self.rates.shape[0])


_MEAN_TOL = 1e-10
_STD_TOL = 1e-10


def check_standardized(mean: np.ndarray, mean_square: np.ndarray) -> None:
    """Raise SchemaError unless every series has mean 0 and std 1.

    Takes each series' first two moments, E[x] and E[x^2], for one M x N'
    panel or a stack of them, so a caller that already holds X X^T / N'
    reads E[x^2] off its diagonal instead of passing over the values again.
    The std is sqrt(E[x^2] - E[x]^2); the mean is tested first, and NaN
    fails both tests.  The tolerances are those every
    :class:`StandardizedPanel` is held to.
    """
    resid_mean = np.abs(mean).max()
    if not resid_mean <= _MEAN_TOL:
        raise SchemaError(f"series mean off zero by {resid_mean:.3e}")
    resid_std = np.abs(np.sqrt(mean_square - mean * mean) - 1.0).max()
    if not resid_std <= _STD_TOL:
        raise SchemaError(f"series std off one by {resid_std:.3e}")


@dataclass(frozen=True, eq=False)
class StandardizedPanel:
    """Zero-mean, unit-variance growth-rate series w_l(t_j).

    Each series has population mean 0 and std 1 (divide by N', not N'-1);
    the statistics removed to get there are not kept.  It holds at least
    one series and one month, and ``ids`` and ``n_goods`` are derived from
    the row count, as for :class:`GrowthPanel`.
    """

    months: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        months, values = _series_by_month(self.months, self.values, "standardized values")
        n = values.shape[1]
        check_standardized(values.sum(axis=1) / n, np.einsum("ij,ij->i", values, values) / n)
        object.__setattr__(self, "months", _freeze(months))
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_obs(self) -> int:
        """Number of monthly observations N'."""
        return self.values.shape[1]

    @property
    def ids(self) -> tuple[SeriesId, ...] | None:
        return _series_ids(self.values.shape[0])

    @property
    def n_goods(self) -> int | None:
        return _goods(self.values.shape[0])

    @classmethod
    def from_values(
        cls, values: np.ndarray, months: np.ndarray | None = None
    ) -> "StandardizedPanel":
        """Wrap an already-standardized M x N' array (used by tests and demos).

        ``months`` defaults to N' consecutive months from 1988-01.  The
        values are checked as every :class:`StandardizedPanel`'s are.
        """
        values = np.asarray(values, dtype=float)
        if months is None:
            months = np.datetime64("1988-01") + np.arange(values.shape[-1])
        return cls(months=months, values=values)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def load_panel(
    source: str | Path | TextIO,
    window: tuple[MonthLike, MonthLike] | str | None = None,
) -> Panel:
    """Load a monthly index panel from CSV; :class:`Panel` judges its values.

    The file must have a header ``date,<id>,...`` where each id is ``P.g``,
    ``S.g``, or ``I.g``, and one row per month with dates formatted
    ``YYYY-MM``.  Together the id columns must cover the complete
    3 x G grid.  Lines starting with ``#`` are ignored.  Values are read
    with Python's ``float``, and an empty cell reads as NaN.

    The loader checks the header, raises the first ragged row, bad date or
    bad value in file order, and raises on a file with no data rows.  It
    then keeps the months inside ``window``, sorts them, puts the series in
    flat order and hands the result to :class:`Panel`, which checks the
    month count, the time axis and every level: so a cell may be empty
    outside the window, and inside it is :class:`MissingData`.

    The file is read one row at a time, and only rows inside the window are
    kept, so besides the result only one row of text is held at once.

    Parameters
    ----------
    source : path or open text file
    window : optional (start, end) months, inclusive, or "START:END" string
    """
    if isinstance(window, str):
        window = parse_window(window)
    elif window is not None:
        window = parse_month(window[0]), parse_month(window[1])

    with open_text(source) as fh:
        name = str(getattr(fh, "name", "<stream>"))
        rows = read_rows(fh)
        try:
            col_ids, months, cells = _read_rows(name, rows, window)
        except PanelResponseError:
            # an unreadable byte anywhere in the file is reported first, as
            # when the whole file was read before any check
            for _ in rows:
                pass
            raise

    order = np.argsort(months)
    months = months[order]
    if window is not None:
        keep = (months >= window[0]) & (months <= window[1])
        order, months = order[keep], months[keep]
    # one column per kept month, rows in header order; the file's rows are
    # freed here, so at most two copies of the values are alive at once
    values = np.empty((len(col_ids), months.size))
    for j, i in enumerate(order.tolist()):
        values[:, j] = cells[i]
    del cells
    canonical = np.argsort([_row(sid, len(col_ids)) for sid in col_ids])
    if np.any(canonical != np.arange(canonical.size)):
        values = values[canonical]
    return Panel(months=_frozen(months), values=_frozen(values))


#: Missing series named in an incomplete-grid error; the rest are counted.
_MISSING_SHOWN = 10


def _read_rows(
    name: str,
    rows: Iterator[list[str]],
    window: tuple[np.datetime64, np.datetime64] | None,
) -> tuple[list[SeriesId], np.ndarray, list[np.ndarray | None]]:
    """Header ids, months and cells of a panel's rows.

    ``cells`` holds one float array per data row in file order (None for a
    row outside ``window``), in header column order, with NaN for an empty
    cell.  Every row is checked.  Each is converted with one numpy call; a
    row that call rejects is read cell by cell, which raises at its first
    bad cell, so the first error in file order is raised.
    """
    header = next(rows, None)
    if header is None:
        raise SchemaError(f"{name}: empty file")
    header = [c.strip() for c in header]
    if not header or header[0].lower() != "date":
        raise SchemaError(f"{name}: first column must be 'date'")
    col_ids = []
    seen: set[SeriesId] = set()
    for cell in header[1:]:
        sid = SeriesId.parse(cell)
        if sid in seen:
            raise SchemaError(f"duplicate series {sid.label}")
        seen.add(sid)
        col_ids.append(sid)
    if not col_ids:
        raise SchemaError(f"{name}: no series columns")

    # distinct ids with goods in [1, G]: the grid is complete iff there are 3G
    n_goods = max(sid.goods for sid in col_ids)
    if len(col_ids) != 3 * n_goods:
        absent = 3 * n_goods - len(col_ids)
        # lazy, so a header naming one huge goods index costs O(len(seen)), not O(G)
        missing = [sid.label for sid in itertools.islice(
            (sid for sid in _flat_ids(n_goods) if sid not in seen), _MISSING_SHOWN)]
        more = f" and {absent - len(missing)} more" if absent > len(missing) else ""
        raise SchemaError(f"{name}: incomplete series grid, missing {missing}{more}")

    width = len(header)
    months: list[np.datetime64] = []
    cells: list[np.ndarray | None] = []
    for raw in rows:
        if not raw or not "".join(raw).strip():
            continue
        if len(raw) != width:
            raise SchemaError(f"{name}: row has {len(raw)} cells, expected {width}")
        month = parse_month(raw[0].strip())
        try:
            row = np.array(raw[1:], dtype=float)
        except ValueError:
            # a bad value or an empty cell
            row = _read_cells(name, raw[1:], month, col_ids)
        months.append(month)
        in_window = window is None or window[0] <= month <= window[1]
        cells.append(row if in_window else None)
    if not cells:
        raise SchemaError(f"{name}: no data rows")
    return col_ids, np.array(months, dtype="datetime64[M]"), cells


def _read_cells(
    name: str, raw: list[str], month: np.datetime64, col_ids: Sequence[SeriesId]
) -> np.ndarray:
    """Values of one data row, read one cell at a time.

    Raises at the row's first bad value; an empty cell reads as NaN.
    """
    cells = np.empty(len(col_ids))
    for c, (sid, cell) in enumerate(zip(col_ids, raw)):
        text = cell.strip()
        try:
            cells[c] = float(text) if text else np.nan
        except ValueError:
            raise SchemaError(
                f"{name}: bad value {cell!r} for {sid.label} at {month}"
            ) from None
    return cells


def write_panel_csv(panel: Panel, target: str | Path | TextIO) -> None:
    """Write a panel back out in the `date,P.1,...` schema."""
    write_rows(target, itertools.chain(
        [["date"] + [sid.label for sid in panel.ids]],
        ([month] + column.tolist() for month, column in zip(panel.months, panel.values.T)),
    ))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def log_growth(panel: Panel) -> GrowthPanel:
    """Base-10 logarithmic growth rate log10(S(t_{j+1}) / S(t_j))."""
    rates = panel.values[:, 1:] / panel.values[:, :-1]
    np.log10(rates, out=rates)
    return GrowthPanel(months=panel.months[:-1], rates=_frozen(rates))


def simple_growth(panel: Panel) -> GrowthPanel:
    """Plain relative growth rate (S(t_{j+1}) - S(t_j)) / S(t_j).

    To first order in the change this is ln(10) times the base-10 log growth
    rate, but the two differ at second order, and standardizing does not
    remove that difference.  On synthetic 63 x 239 panels whose largest
    monthly change is about 9% (a log10 growth of 0.039), the correlation
    eigenvalues of the two methods differ by up to 1% relative (lambda_1
    7.868 against 7.871).
    """
    v = panel.values
    rates = v[:, 1:] - v[:, :-1]
    rates /= v[:, :-1]
    return GrowthPanel(months=panel.months[:-1], rates=_frozen(rates))


def standardize(growth: GrowthPanel) -> StandardizedPanel:
    """Center each series and scale to unit population standard deviation."""
    rates = growth.rates
    mu = rates.mean(axis=1)
    sigma = rates.std(axis=1)  # population: divide by N'
    for i, s in enumerate(sigma):
        if s == 0.0 or not np.isfinite(s):
            raise DegenerateSeries(growth.ids[i].label if growth.ids else i + 1)
    w = rates - mu[:, None]
    w /= sigma[:, None]
    return StandardizedPanel(months=growth.months, values=_frozen(w))
