"""Atomic text writes, JSON files and typed JSON sections, with the standard library alone.

``storage`` re-exports the file helpers; they live here so that a command
that only reads and writes JSON (``asvid report``) never loads numpy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
import os
import sys
import tempfile
import types
import typing
from pathlib import Path

from .errors import SchemaError

__all__ = ["atomic_write_text", "from_json", "read_json", "write_json"]


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


def _error(source: str, key: str, problem: str) -> SchemaError:
    return SchemaError(f"{source}: {key!r}: {problem}")


def from_json(target, doc, key: str, source: str, **fixed):
    """``target(**doc, **fixed)``: the parameters of ``target``, a dataclass or
    a function, and their annotations are the schema of the JSON object ``doc``.

    Keys must name parameters that ``fixed`` does not set, and parameters
    without a default must be given.  A ``float`` is a finite number, an
    ``int`` an integer (neither a boolean), a ``Literal`` one of its strings,
    an N-tuple a list of N, ``dict[str, T]`` an object of ``T``, a dataclass
    an object read recursively, and ``T | None`` also ``null``.  A violation,
    or a ``ValueError``/``TypeError`` from ``target``, is a :class:`SchemaError`
    naming the file ``source`` and the dotted key: ``key`` (``""`` at the top of
    the file) and the parameter the message starts with, if any.  Any other
    annotation is a ``TypeError``, a fault of the program.
    """
    if not isinstance(doc, dict):
        raise _error(source, key, f"must be a JSON object, got {doc!r}")
    hints, params = typing.get_type_hints(target), inspect.signature(target).parameters
    dotted = {name: f"{key}.{name}" if key else name for name in (*params, *doc)}
    for name in sorted(doc):
        if name not in params or name in fixed:
            raise _error(source, dotted[name], "is not a known key")
    for name, param in params.items():
        if param.default is param.empty and name not in doc and name not in fixed:
            raise _error(source, dotted[name], "is missing")
    kwargs = {name: _read(hints[name], value, dotted[name], source) for name, value in doc.items()}
    try:
        return target(**kwargs, **fixed)
    except (TypeError, ValueError) as exc:
        first = str(exc).split(" ", 1)[0]
        raise _error(source, dotted[first] if first in params else key, str(exc)) from None


def _read(tp, value, key: str, source: str):
    """``value`` read as the annotation ``tp`` (see :func:`from_json`)."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        if value is None:
            return None
        tp = args[args[0] is type(None)]
        origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, key, source)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is float:
        if number and abs(value) <= sys.float_info.max:
            return float(value)
        want = "a finite number"
    elif tp is int:
        if number and isinstance(value, int):
            return value
        want = "an integer"
    elif tp is str or origin is typing.Literal:
        if isinstance(value, str) and (tp is str or value in args):
            return value
        want = "a string" if tp is str else f"one of {list(args)}"
    elif origin is tuple and ... not in args:
        if isinstance(value, list) and len(value) == len(args):
            items = enumerate(zip(args, value))
            return tuple(_read(arg, item, f"{key}[{i}]", source) for i, (arg, item) in items)
        want = f"a list of {len(args)} values"
    elif tp is dict or origin is dict:
        if isinstance(value, dict) and not args:
            return value
        if isinstance(value, dict):
            return {k: _read(args[1], v, f"{key}.{k}", source) for k, v in value.items()}
        want = "a JSON object"
    else:
        raise TypeError(f"{key!r}: from_json cannot read the annotation {tp!r}")
    raise _error(source, key, f"must be {want}, got {value!r}")
