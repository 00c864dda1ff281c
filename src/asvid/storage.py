"""File formats: raw log CSVs, prepared datasets, model files, metrics.

Every file is UTF-8 and written atomically (temp file in the target
directory, then rename).

* CSV (raw logs ``gnss.csv``, ``heading.csv``, ``pwm.csv``; prepared
  datasets; ``metrics.csv``, ``traces.csv``): one header line of column
  names, then one line per row.  Lines that start with ``#`` are records,
  not rows: a prepared dataset has ``# h=<repr(h)>`` right after its header.
  A ``#`` anywhere else in a row is an error.  Floats are written with
  ``repr``, so they read back bit for bit.  The prepared ``region`` column
  holds operating-region names (``FF``, ``FR``, ``RF``, ``RR``).
* JSON (config, model, expected-x, ground truth, summary, metrics):
  indented by two spaces.

Reading a CSV takes one pass over its text for the header and the ``#``
records, then numpy's C reader (``np.loadtxt``) for the needed columns; a
cell is a number as that reader takes it (``float`` syntax, ASCII, no ``_``
separators, surrounding whitespace allowed, optionally quoted).  The
prepared ``segment`` column is an int64 as that reader takes it (``3.0`` is
not one), and ``region`` is read as text and mapped once per distinct name.
Lines may end in LF, CRLF or CR.  Writing formats rows with one ``%``
format per file and streams them to the temp file in blocks, so neither
side holds a log as per-cell Python objects.  Raw logs drop rows with a
non-finite cell and exact repeats of the row before, with one warning for
each that names the file, the count and the first line.

A missing file raises ``FileNotFoundError``.  A malformed one raises
:class:`SchemaError` naming the file, and the line of a bad CSV cell
(``prepared.csv:12: column 'u': ...``).  The CLI exits 2 on either.

Loading this module loads only the CSV layer's own modules (``dataprep``,
``model``): every CLI command reads or writes a CSV.  The model-file,
expected-x, ground-truth and provenance functions import the estimator,
regressor, simulator and hash modules when they are called, so ``prepare``
compiles none of them.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
import warnings
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .dataprep import RAW_STREAMS, PreparedDataset, RawLogBundle, off_grid_row
from .errors import DataError, SchemaError
from .files import _atomic_open, atomic_write_text, from_json, read_json, write_json
from .model import OperatingRegion, ThrustDynamicParams, ThrustStaticParams

if TYPE_CHECKING:
    from .estimator import IdentifiedModel
    from .oracle import GroundTruth

__all__ = [
    "atomic_write_text", "write_csv", "read_json", "write_json", "read_raw_logs", "write_raw_logs",
    "write_prepared_csv", "read_prepared_csv", "write_model_file", "read_model_file",
    "write_expected_x", "write_ground_truth", "parse_ground_truth", "MODEL_FILE_VERSION",
]

MODEL_FILE_VERSION = 1


# Rows that write_csv formats and writes at a time.  A block's Python floats
# and strings take about 80 bytes a cell, so the block stays small beside the
# arrays a command holds while it writes its last file.
_WRITE_BLOCK = 1024


def _line_at(text: str, pos: int) -> tuple[str, int]:
    """The line of ``text`` that starts at ``pos``, without its end, and the
    position of the next line."""
    end = text.find("\n", pos)
    end = len(text) if end < 0 else end + 1
    return text[pos:end].rstrip("\n"), end


def _scan(path: Path) -> tuple[list[str], int, list[str], bool]:
    """The header cells of a CSV file, its line number, the ``#`` records and
    whether any data row follows, from one pass over the file's text.

    The header is the first line that is neither blank nor a record.  A ``#``
    after it that does not start a line is a :class:`SchemaError` naming the
    line and the column it sits in.
    """
    try:
        text = path.read_text(encoding="utf-8")  # universal newlines, as np.loadtxt reads
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path.name}: not UTF-8 text: {exc}") from None
    records: list[str] = []
    header, line_num, pos = None, 0, 0
    while header is None:
        if pos >= len(text):
            raise SchemaError(f"{path.name}: no header line")
        line, pos = _line_at(text, pos)
        line_num += 1
        if line.startswith("#"):
            records.append(line)
        elif line:
            header = next(csv.reader([line]))
    body = pos
    while (at := text.find("#", pos)) >= 0:
        start = text.rfind("\n", 0, at) + 1
        if start != at:
            cell = len(next(csv.reader([text[start:at]]))) - 1
            column = header[cell] if cell < len(header) else f"#{cell + 1}"
            line_num = text.count("\n", 0, at) + 1
            raise SchemaError(
                f"{path.name}:{line_num}: column {column!r}: '#' may only start a record line"
            )
        line, pos = _line_at(text, at)
        records.append(line)
    has_rows, pos = False, body
    while not has_rows and pos < len(text):
        line, pos = _line_at(text, pos)
        has_rows = bool(line) and not line.startswith("#")
    return header, line_num, records, has_rows


def _data_rows(path: Path):
    """``(line number, cells)`` of each data row of a CSV file, in file order:
    the rows after the header, without blank lines and ``#`` records.

    The one locator behind the lines that errors and warnings name; only
    fault paths scan a file this way.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = ((reader.line_num, row) for row in reader if row and not row[0].startswith("#"))
        next(rows, None)  # the header
        yield from rows


def _line(path: Path, row: int) -> int:
    """The file line of data row ``row`` (0-based) of a CSV file."""
    return next(itertools.islice(_data_rows(path), row, None))[0]


def _number(cell: str) -> float:
    """``float(cell)`` restricted to what ``np.loadtxt`` parses: ASCII, no ``_``."""
    value = float(cell)
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return value


def _integer(cell: str) -> int:
    """``int(cell)`` restricted to what ``np.loadtxt`` parses as int64: ASCII,
    no ``_``, in range."""
    value = int(cell)
    if "_" in cell or not cell.strip().isascii() or not -2**63 <= value < 2**63:
        raise ValueError(f"could not convert string to int64: {cell!r}")
    return value


def _bad_cell(path: Path, index: dict[str, int], converters: dict,
              finite: bool) -> SchemaError | None:
    """The error for the first cell, in row order and then column order, that
    does not parse, or that is not finite when ``finite`` is set."""
    for line_num, row in _data_rows(path):
        for name, i in index.items():
            try:
                if i >= len(row):
                    raise IndexError
                value = converters[name][1](row[i]) if name in converters else _number(row[i])
                if finite and not math.isfinite(value):
                    raise ValueError(f"not a finite number: {row[i]!r}")
            except (IndexError, ValueError) as exc:
                why = "missing from a short row" if isinstance(exc, IndexError) else exc
                return SchemaError(f"{path.name}:{line_num}: column {name!r}: {why}")
    return None


def _read_csv(path: Path, columns, adapter: dict | None = None,
              converters: dict | None = None, finite: bool = False):
    """The named columns of a CSV file as arrays, and its ``#`` records.

    ``adapter`` maps a column name to the one in the header.  Cells are
    float64 unless ``converters`` maps the column name to ``(dtype, parser,
    result dtype)``: ``np.loadtxt`` reads the column as ``dtype``, and
    ``parser``, a function of one cell's text, names a cell that does not
    parse.  A text column (a ``str`` dtype) is then mapped through ``parser``
    once per distinct value, into the result dtype.  With ``finite`` set, a
    non-finite float is an error.
    """
    rename, converters = adapter or {}, converters or {}
    header, skip, records, has_rows = _scan(path)
    names = {name: rename.get(name, name) for name in columns}
    missing = [col for col in names.values() if col not in header]
    if missing:
        raise SchemaError(f"{path.name}: missing column {missing[0]!r} (have {header})")
    index = {name: header.index(col) for name, col in names.items()}
    dtype = np.dtype([(name, converters.get(name, (np.float64,))[0]) for name in columns])
    try:
        with warnings.catch_warnings():
            # numpy < 2 still reads an integer cell like "3.0" into an int
            # column, with this warning.
            warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float",
                                    DeprecationWarning)
            table = np.empty(0, dtype) if not has_rows else np.loadtxt(
                path, dtype=dtype, delimiter=",", quotechar='"', skiprows=skip,
                usecols=list(index.values()), ndmin=1, encoding="utf-8",
            )
        cols = {name: table[name].copy() for name in columns}  # contiguous, not record fields
        for name, (read, parse, result) in converters.items():
            if np.dtype(read).kind == "U":
                values, inverse = np.unique(cols[name], return_inverse=True)
                cols[name] = np.array([parse(v) for v in values.tolist()], result)[inverse]
        if finite and not all(np.isfinite(cols[name]).all() for name in columns
                              if name not in converters):
            raise ValueError("a non-finite cell")
    except (ValueError, DeprecationWarning) as exc:
        raise _bad_cell(path, index, converters, finite) or SchemaError(
            f"{path.name}: malformed CSV: {exc}"
        ) from None
    return cols, records


def write_csv(path: str | Path, header, columns, records=()) -> None:
    """Header line, ``#`` records, then one line per row of the equal-length
    ``columns``.

    The rows go out in blocks of ``_WRITE_BLOCK``.  A block's cells become
    Python scalars (``tolist`` of an array column; other columns keep their
    objects) and each row is formatted with the file's one ``"%s,...,%s"``
    format, so a float cell reads ``repr(float(x))`` and any other ``str(x)``.
    """
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    row_format = ",".join(["%s"] * len(columns)) + "\n"
    with _atomic_open(Path(path)) as fh:
        fh.write("".join(f"{line}\n" for line in (",".join(header), *records)))
        for start in range(0, n_rows, _WRITE_BLOCK):
            block = zip(*(col[start:start + _WRITE_BLOCK].tolist() for col in columns))
            fh.write("".join([row_format % row for row in block]))


def _clean_stream(path: Path, cols: list[np.ndarray]) -> list[np.ndarray]:
    """One raw stream without its rows that have a non-finite cell, nor its
    exact repeats of the row before; one warning for each kind of drop names
    the count and the first line.  A timestamp that still does not increase
    is a :class:`SchemaError` naming its line."""
    table = np.stack(cols)  # (columns, rows); row 0 is t
    rows = np.arange(table.shape[1])  # each kept row's place in the file

    def drop(mask: np.ndarray, what: str) -> None:
        nonlocal table, rows
        if mask.any():
            first = _line(path, int(rows[np.argmax(mask)]))
            warnings.warn(
                f"{path.name}: dropped {int(mask.sum())} row(s) {what}, the first at line {first}",
                stacklevel=4,
            )
            table, rows = table[:, ~mask], rows[~mask]

    drop(~np.isfinite(table).all(axis=0), "with a non-finite cell")
    repeats = np.zeros(table.shape[1], dtype=bool)
    repeats[1:] = (table[:, 1:] == table[:, :-1]).all(axis=0)
    drop(repeats, "that repeat the row before")
    back = np.flatnonzero(np.diff(table[0]) <= 0)
    if back.size:
        raise SchemaError(
            f"{path.name}:{_line(path, int(rows[back[0] + 1]))}: column 't': "
            "timestamps must be strictly increasing"
        )
    return list(table)


def read_raw_logs(log_dir: str | Path, adapter: dict | None = None) -> RawLogBundle:
    """Load gnss.csv / heading.csv / pwm.csv from a directory.

    ``adapter`` optionally maps canonical column names to the names actually
    present, per stream: ``{"gnss": {"lat": "latitude"}, ...}``.  Rows with a
    non-finite cell and exact repeats of the row before are dropped with a
    warning; any other timestamp that does not increase names its line.
    """
    log_dir = Path(log_dir)
    adapter = adapter or {}
    fields = {}
    for stream, columns, names in RAW_STREAMS:
        path = log_dir / f"{stream}.csv"
        cols, _ = _read_csv(path, columns, adapter.get(stream))
        fields.update(zip(names, _clean_stream(path, [cols[c] for c in columns])))
    return RawLogBundle(**fields)


def write_raw_logs(log_dir: str | Path, bundle: RawLogBundle) -> None:
    log_dir = Path(log_dir)
    for stream, columns, names in RAW_STREAMS:
        write_csv(log_dir / f"{stream}.csv", columns, [getattr(bundle, n) for n in names])


PREPARED_HEADER = ("t", "segment", "u", "v", "r", "delta_mean", "delta_diff", "region")
H_RECORD = "# h="
_REGION_NAMES = np.array([region.name for region in sorted(OperatingRegion)])  # by code


def _region(cell: str) -> int:
    try:
        return OperatingRegion[cell].value
    except KeyError:
        raise ValueError(f"unknown operating region {cell!r}") from None


# The prepared columns that are not float64: (dtype read, cell parser, result
# dtype).  The region names are read as text one character wider than the
# longest name, so a longer cell is cut to a string that is no name, never to
# a name.
_PREPARED_CONVERTERS = {
    "segment": (np.int64, _integer, np.int64),
    "region": (f"U{max(len(r.name) for r in OperatingRegion) + 1}", _region, np.int8),
}


def write_prepared_csv(path: str | Path, ds: PreparedDataset) -> None:
    """One CSV row per row of ``ds``, in its order."""
    cols = ds.columns()
    cols["region"] = _REGION_NAMES[cols["region"]]
    write_csv(path, PREPARED_HEADER, [cols[name] for name in PREPARED_HEADER],
              (f"{H_RECORD}{float(ds.h)!r}",))


def _parse_h_record(path: Path, text: str) -> float:
    try:
        h = float(text)
    except ValueError:
        h = float("nan")
    if not (np.isfinite(h) and h > 0.0):
        raise SchemaError(
            f"{path.name}: sampling-period record must be a finite positive number: {text!r}"
        )
    return h


def read_prepared_csv(path: str | Path) -> PreparedDataset:
    """Read a file written by :func:`write_prepared_csv`.

    Files without the ``# h=`` record (asvid 0.1.0, or written by hand) get
    ``h`` inferred as the median timestamp step of the first segment with
    two or more points; that value is only approximate, since the steps of
    ``repr``-written timestamps differ from ``h`` by a few ulps.  Rows may
    come in any order; the dataset groups them by segment, each segment in
    file order.
    """
    path = Path(path)
    cols, records = _read_csv(path, PREPARED_HEADER, converters=_PREPARED_CONVERTERS, finite=True)
    h = None
    for line in records:
        if line.startswith(H_RECORD):
            h = _parse_h_record(path, line[len(H_RECORD):].strip())
    if h is None:
        import statistics  # np.median, like a bare np.unique, would load numpy.ma

        ids, counts = np.unique(cols["segment"], return_counts=True)
        if np.any(counts >= 2):
            seg_t = cols["t"][cols["segment"] == ids[np.argmax(counts >= 2)]]
            h = statistics.median(np.diff(seg_t).tolist())
    if h is None:
        raise SchemaError(f"{path.name}: cannot infer sampling period from single-point segments")
    try:
        return PreparedDataset(h, **cols)
    except DataError as exc:
        bad = off_grid_row(cols["t"], cols["segment"], h)
        if bad is not None:
            raise SchemaError(f"{path.name}:{_line(path, bad)}: column 't': {exc}") from None
        raise


def _vector_rows(kind: str, axis: str, vec: np.ndarray) -> list[dict]:
    from .regressors import TERMS

    terms = TERMS[(kind, axis)]
    return [
        {"index": i + 1, "value": float(v), "unit": terms[i].unit} for i, v in enumerate(vec)
    ]


def write_model_file(
    path: str | Path,
    model: IdentifiedModel,
    provenance: dict | None = None,
) -> None:
    """Write a model file; ``provenance`` defaults to the one the model was read with.

    ``h``, ``alpha_stable``, ``residual_norms`` and ``rows_used`` come from
    ``model.metadata``, so a model read by :func:`read_model_file` writes
    back the same bytes.
    """
    doc = {
        "format_version": MODEL_FILE_VERSION,
        "kind": model.kind,
        "h": model.metadata.get("h"),
        "alpha": model.alpha,
        "alpha_stable": model.metadata.get("alpha_stable"),
        "vectors": {
            "u": _vector_rows(model.kind, "u", model.surge),
            "v": _vector_rows(model.kind, "v", model.sway),
            "r": _vector_rows(model.kind, "r", model.yaw),
        },
        "residual_norms": model.metadata.get("residual_norms"),
        "rows_used": model.metadata.get("rows_used"),
        "provenance": provenance or model.metadata.get("provenance") or {},
    }
    write_json(path, doc)


def read_model_file(path: str | Path) -> IdentifiedModel:
    """Read a file written by :func:`write_model_file`.

    The version, the keys and the vector lengths of the model kind are
    checked; a file that fails a check is a :class:`SchemaError` naming it.
    """
    from .estimator import IdentifiedModel

    path = Path(path)
    doc = read_json(path)
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != MODEL_FILE_VERSION:
        raise SchemaError(f"{path.name}: unsupported model file version {version!r}")
    try:
        vectors = [
            np.array([row["value"] for row in doc["vectors"][axis]], dtype=float)
            for axis in ("u", "v", "r")
        ]
        return IdentifiedModel(
            doc["kind"],
            *vectors,
            alpha=doc.get("alpha"),
            metadata={
                key: doc.get(key)
                for key in ("h", "alpha_stable", "residual_norms", "rows_used", "provenance")
            },
        )
    except KeyError as exc:
        raise SchemaError(f"{path.name}: model file lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path.name}: not a valid model: {exc}") from None


def write_expected_x(path: str | Path, kind: str, vectors: dict[str, np.ndarray],
                     alpha: float | None = None) -> None:
    """Sidecar with the exact lumped vectors a synthetic dataset encodes."""
    doc = {
        "kind": kind,
        "alpha": alpha,
        "vectors": {axis: _vector_rows(kind, axis, vec) for axis, vec in vectors.items()},
    }
    write_json(path, doc)


_GT_UNITS = {
    "m": "kg", "x_g": "m", "i_z": "kg*m^2",
    "x_udot": "kg", "y_vdot": "kg", "y_rdot": "kg*m", "n_rdot": "kg*m^2",
    "x_u": "kg/s", "x_uu": "kg/m",
    "y_v": "kg/s", "y_vv": "kg/m", "y_rv": "kg/rad", "y_r": "kg*m/s",
    "y_vr": "kg", "y_rr": "kg*m/rad",
    "n_v": "kg*m/s", "n_vv": "kg", "n_rv": "kg*m/rad", "n_r": "kg*m^2/s",
    "n_vr": "kg*m", "n_rr": "kg*m^2/rad",
    "d": "m", "bias": "(m/s^2, m/s^2, rad/s^2)", "h": "s",
}


def write_ground_truth(path: str | Path, gt: GroundTruth) -> None:
    """The ground truth as JSON; a ``sigma_override`` has no file form."""
    if gt.sigma_override is not None:
        raise ValueError("a ground truth with a sigma_override cannot be written")
    thrust = {key: value for key, value in asdict(gt.static_thrust).items() if value is not None}
    if isinstance(gt.thrust, ThrustDynamicParams):
        thrust.update(alpha=gt.thrust.alpha, beta=gt.thrust.beta)
    doc = {f.name: getattr(gt, f.name) for f in fields(gt) if f.name != "sigma_override"}
    write_json(path, {**doc, "thrust": thrust, "_units": _GT_UNITS})


def parse_ground_truth(doc: dict, source: str) -> GroundTruth:
    """Ground truth from a document in the :func:`write_ground_truth` layout.

    The keys and value types are the fields of :class:`GroundTruth` but
    ``sigma_override``; under ``thrust``, those of :class:`ThrustStaticParams`
    and, given together, ``alpha`` and ``beta``.  A bad key or value is a
    :class:`SchemaError` naming ``source`` and the key (``files.from_json``).
    ``_units`` is documentation and never read.
    """
    from .oracle import GroundTruth

    thrust = doc.get("thrust", {})
    if not isinstance(thrust, dict):
        raise SchemaError(f"{source}: 'ground_truth.thrust': must be a JSON object, got {thrust!r}")
    static = {key: value for key, value in thrust.items() if key not in ("alpha", "beta")}
    lag = {key: value for key, value in thrust.items() if key in ("alpha", "beta")}
    thrust = from_json(ThrustStaticParams, static, "ground_truth.thrust", source)
    if lag:
        thrust = from_json(ThrustDynamicParams, lag, "ground_truth.thrust", source,
                           static_part=thrust)
    params = {key: value for key, value in doc.items() if key not in ("thrust", "_units")}
    return from_json(GroundTruth, params, "ground_truth", source, thrust=thrust,
                     sigma_override=None)


def sha256_of_file(path: str | Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def provenance_stamp(dataset_path: str | Path | None, config: dict | None) -> dict:
    """Dataset/config hashes plus a timestamp (SOURCE_DATE_EPOCH overrides)."""
    import hashlib

    stamp: dict = {}
    if dataset_path is not None:
        stamp["dataset_sha256"] = sha256_of_file(dataset_path)
    if config is not None:
        canon = json.dumps(config, sort_keys=True).encode()
        stamp["config_sha256"] = hashlib.sha256(canon).hexdigest()
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp["created_unix"] = int(epoch) if epoch is not None else int(time.time())
    return stamp
