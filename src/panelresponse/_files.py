"""Text-file plumbing shared by every reader and writer in the package.

Each accepts either a path or an already-open text stream.  A path is opened
with ``newline=""`` (so the csv module controls line endings) and closed on
exit; a stream is used as given and left open for its owner.  Every CSV row
passes through :func:`read_rows` or :func:`write_rows`.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import PanelResponseError, SchemaError

#: Cells per write of :func:`write_rows`: few writes, never a whole artifact's text.
_BLOCK_CELLS = 4096


@contextlib.contextmanager
def open_text(target: str | Path | TextIO, mode: str = "r") -> Iterator[TextIO]:
    """Yield ``target`` if it is a stream, else the opened path (closed on exit)."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target  # type: ignore[misc]
    else:
        with open(target, mode, newline="") as fh:
            yield fh


def read_rows(fh: TextIO) -> Iterator[list[str]]:
    """The non-``#`` rows of a CSV stream, one at a time; unreadable text is a SchemaError.

    One byte-order mark (U+FEFF) at the start of the text is dropped, as a
    spreadsheet's "CSV UTF-8" writes one; anywhere else it is kept.
    """
    try:
        lines = iter(fh)
        first = (line.removeprefix("\ufeff") for line in itertools.islice(lines, 1))
        for row in csv.reader(itertools.chain(first, lines)):
            if not (row and row[0].startswith("#")):
                yield row
    except (csv.Error, UnicodeDecodeError) as exc:
        raise SchemaError(f"{getattr(fh, 'name', '<stream>')}: unreadable CSV: {exc}") from None


def write_rows(target: str | Path | TextIO, rows: Iterable[Sequence]) -> None:
    """Write ``rows`` lazily as CSV lines, in blocks of at most :data:`_BLOCK_CELLS` cells.

    A wider row is a block of its own.  Each cell is rendered with ``str`` (a
    Python float's repr) and never quoted: the package writes only numbers,
    ``YYYY-MM`` months and fixed labels.
    """
    with open_text(target, "w") as fh:
        for width, run in itertools.groupby(rows, len):
            # one %-format call renders a block of equal-width rows; %s is str
            line = ",".join(["%s"] * width) + "\n"
            step = max(1, _BLOCK_CELLS // max(width, 1))
            while block := list(itertools.islice(run, step)):
                fh.write(line * len(block) % tuple(itertools.chain.from_iterable(block)))


def write_json(target: str | Path | TextIO, doc: dict, **fmt) -> None:
    """Write ``doc`` as the text of ``json.dumps(doc, **fmt)``.

    A top-level value may be a NumPy array; it is written as its nested
    lists would be, a 2-D array one row per write, so neither the whole
    array as lists nor the whole document as one string is ever built.
    Every piece comes from the C encoder (``json.dump`` would walk the
    document in Python).  ``fmt`` is for documents without arrays.
    """
    with open_text(target, "w") as fh:
        if not any(isinstance(value, np.ndarray) for value in doc.values()):
            fh.write(json.dumps(doc, **fmt))
            return
        if fmt:
            raise TypeError("write_json formats only documents without arrays")
        # json.dumps's default separators: ", " between items, ": " after a key
        sep = "{"
        for key, value in doc.items():
            fh.write(f"{sep}{json.dumps(key)}: ")
            sep = ", "
            if isinstance(value, np.ndarray) and value.ndim == 2:
                fh.write("[")
                for i, row in enumerate(value):
                    fh.write((", " if i else "") + json.dumps(row.tolist()))
                fh.write("]")
            else:
                fh.write(json.dumps(value.tolist() if isinstance(value, np.ndarray) else value))
        fh.write("}")


def read_json(source: str | Path | TextIO | dict) -> dict:
    """A JSON document from a path or stream (a dict is returned as is), else SchemaError."""
    if isinstance(source, dict):
        return source
    with open_text(source) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            name = getattr(fh, "name", "<stream>")
            raise SchemaError(f"{name}: unreadable JSON: {exc}") from None


@contextlib.contextmanager
def json_fields(what: str) -> Iterator[None]:
    """Raise a missing (named) or malformed field of a ``what`` document as a SchemaError."""
    try:
        yield
    except PanelResponseError:
        raise
    except KeyError as exc:
        raise SchemaError(f"{what} lacks field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed {what}: {exc}") from None
