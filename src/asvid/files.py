"""Atomic text writes and JSON files, with the standard library alone.

``storage`` re-exports these; they live here so that a command that only
reads and writes JSON (``asvid report``) never loads numpy.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

from .errors import SchemaError

__all__ = ["atomic_write_text", "read_json", "write_json"]


@contextlib.contextmanager
def _atomic_open(path: Path):
    """A text handle on a temp file in ``path``'s directory, renamed to ``path``
    when the block ends; the temp file is removed if the block raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    with _atomic_open(Path(path)) as fh:
        fh.write(text)


def read_json(path: str | Path):
    """The document in a JSON file; one that does not parse is a :class:`SchemaError`."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{path.name}: not valid JSON: {exc}") from None


def write_json(path: str | Path, doc) -> None:
    atomic_write_text(Path(path), json.dumps(doc, indent=2) + "\n")
