"""Text-file plumbing shared by every reader and writer in the package.

Each accepts either a path or an already-open text stream.  A path is opened
with ``newline=""`` (so the csv module controls line endings) and closed on
exit; a stream is used as given and left open for its owner.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Iterator, TextIO


@contextlib.contextmanager
def open_text(target: str | Path | TextIO, mode: str = "r") -> Iterator[TextIO]:
    """Yield ``target`` if it is a stream, else the opened path (closed on exit)."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target  # type: ignore[misc]
    else:
        with open(target, mode, newline="") as fh:
            yield fh


def write_json(target: str | Path | TextIO, doc: dict, **fmt) -> None:
    """Write ``doc`` as JSON with one ``json.dumps`` and one write.

    ``fmt`` is passed to ``json.dumps``.  The text equals what ``json.dump``
    streams, but without ``indent`` it comes from the C encoder, where
    ``json.dump`` always walks the document in Python.
    """
    text = json.dumps(doc, **fmt)
    with open_text(target, "w") as fh:
        fh.write(text)


def read_json(source: str | Path | TextIO | dict) -> dict:
    """A JSON document from a path or stream; a dict is returned as is."""
    if isinstance(source, dict):
        return source
    with open_text(source) as fh:
        return json.load(fh)
