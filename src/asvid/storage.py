"""File formats: raw log CSVs, prepared datasets, model files, metrics.

Every file is UTF-8 and written atomically (temp file in the target
directory, then rename).

* CSV (raw logs ``gnss.csv``, ``heading.csv``, ``pwm.csv``; prepared
  datasets; ``metrics.csv``, ``traces.csv``): one header line of column
  names, then one line per row.  Lines that start with ``#`` are records,
  not rows: a prepared dataset has ``# h=<repr(h)>`` right after its header.
  Floats are written with ``repr``, so they read back bit for bit.  The
  prepared ``region`` column holds operating-region names (``FF``, ``FR``,
  ``RF``, ``RR``); the pose columns ``x``, ``y``, ``psi`` are not stored.
* JSON (config, model, expected-x, ground truth, summary, metrics):
  indented by two spaces.

A missing file raises ``FileNotFoundError``.  A malformed one raises
:class:`SchemaError` naming the file, and the line of a bad CSV cell
(``prepared.csv:12: column 'u': ...``).  The CLI exits 2 on either.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dataprep import RAW_STREAMS, PreparedDataset, RawLogBundle, off_grid_row
from .errors import DataError, SchemaError
from .estimator import IdentifiedModel
from .model import OperatingRegion, ThrustDynamicParams, ThrustStaticParams
from .oracle import GroundTruth, SigmaSurge, SigmaSwayYaw
from .regressors import TERMS

__all__ = [
    "atomic_write_text",
    "write_csv",
    "read_json",
    "write_json",
    "read_raw_logs",
    "write_raw_logs",
    "write_prepared_csv",
    "read_prepared_csv",
    "write_model_file",
    "read_model_file",
    "write_expected_x",
    "write_ground_truth",
    "parse_ground_truth",
    "MODEL_FILE_VERSION",
]

MODEL_FILE_VERSION = 1


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def _lines(fh, records: list[str]):
    """``(line number, row)`` for the header and data rows of a CSV file;
    blank lines are skipped and ``#`` lines appended to ``records``."""
    reader = csv.reader(fh)
    for row in reader:
        if not row:
            continue
        if row[0].startswith("#"):
            records.append(",".join(row))
        else:
            yield reader.line_num, row


def _read_csv(path: Path, columns, adapter: dict | None = None, parsers: dict | None = None):
    """The named columns of a CSV file as arrays, and its ``#`` records.

    ``adapter`` maps a column name to the one in the header; ``parsers`` maps
    a column name to the function that parses its cells (default ``float``).
    """
    rename, parsers = adapter or {}, parsers or {}
    out: dict[str, list] = {name: [] for name in columns}
    records: list[str] = []
    cells = None
    with open(path, newline="", encoding="utf-8") as fh:
        for line_num, row in _lines(fh, records):
            if cells is None:
                names = {name: rename.get(name, name) for name in columns}
                missing = [col for col in names.values() if col not in row]
                if missing:
                    raise SchemaError(f"{path.name}: missing column {missing[0]!r} (have {row})")
                cells = [(name, row.index(col), parsers.get(name, float), out[name].append)
                         for name, col in names.items()]
            else:
                try:
                    for name, i, parse, append in cells:
                        append(parse(row[i]))
                except (IndexError, ValueError) as exc:
                    why = "missing from a short row" if isinstance(exc, IndexError) else exc
                    raise SchemaError(
                        f"{path.name}:{line_num}: column {name!r}: {why}"
                    ) from None
    if cells is None:
        raise SchemaError(f"{path.name}: no header line")
    return {name: np.asarray(values) for name, values in out.items()}, records


def _row_line(path: Path, index: int) -> int:
    """The file line of row ``index`` (0-based, after the header) of a CSV
    that :func:`_read_csv` read."""
    with open(path, newline="", encoding="utf-8") as fh:
        line_num, _ = next(itertools.islice(_lines(fh, []), index + 1, None))
        return line_num


def write_csv(path: str | Path, header, rows, records=()) -> None:
    """Header line, ``#`` records, then one line per row; floats as ``repr``."""
    lines = [",".join(header), *records]
    for row in rows:
        lines.append(",".join(
            repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in row
        ))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_raw_logs(log_dir: str | Path, adapter: dict | None = None) -> RawLogBundle:
    """Load gnss.csv / heading.csv / pwm.csv from a directory.

    ``adapter`` optionally maps canonical column names to the names actually
    present, per stream: ``{"gnss": {"lat": "latitude"}, ...}``.
    """
    log_dir = Path(log_dir)
    adapter = adapter or {}
    fields = {}
    for stream, columns, names in RAW_STREAMS:
        cols, _ = _read_csv(log_dir / f"{stream}.csv", columns, adapter.get(stream))
        fields.update(zip(names, (cols[c] for c in columns)))
    return RawLogBundle(**fields)


def write_raw_logs(log_dir: str | Path, bundle: RawLogBundle) -> None:
    log_dir = Path(log_dir)
    for stream, columns, names in RAW_STREAMS:
        write_csv(log_dir / f"{stream}.csv", columns, zip(*(getattr(bundle, n) for n in names)))


PREPARED_HEADER = ("t", "segment", "u", "v", "r", "delta_mean", "delta_diff", "region")
H_RECORD = "# h="
_REGION_NAMES = {region.value: region.name for region in OperatingRegion}


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {cell!r}")
    return value


def _region(cell: str) -> int:
    try:
        return OperatingRegion[cell].value
    except KeyError:
        raise ValueError(f"unknown operating region {cell!r}") from None


_PREPARED_PARSERS = {
    **{name: _finite for name in PREPARED_HEADER},
    "segment": int,
    "region": _region,
}


def write_prepared_csv(path: str | Path, ds: PreparedDataset) -> None:
    """One CSV row per row of ``ds``, in its order."""
    cols = ds.columns()
    cols["region"] = [_REGION_NAMES[code] for code in cols["region"].tolist()]
    rows = zip(*(cols[name] for name in PREPARED_HEADER))
    write_csv(path, PREPARED_HEADER, rows, (f"{H_RECORD}{float(ds.h)!r}",))


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
    file order.  The pose columns ``x``, ``y`` and ``psi`` read back as ``None``.
    """
    path = Path(path)
    cols, records = _read_csv(path, PREPARED_HEADER, parsers=_PREPARED_PARSERS)
    h = None
    for line in records:
        if line.startswith(H_RECORD):
            h = _parse_h_record(path, line[len(H_RECORD):].strip())
    if h is None:
        for sid in np.unique(cols["segment"]):
            seg_t = cols["t"][cols["segment"] == sid]
            if seg_t.size >= 2:
                h = float(np.median(np.diff(seg_t)))
                break
    if h is None:
        raise SchemaError(f"{path.name}: cannot infer sampling period from single-point segments")
    cols["region"] = cols["region"].astype(np.int8)
    try:
        return PreparedDataset(h, **cols)
    except DataError as exc:
        bad = off_grid_row(cols["t"], cols["segment"], h)
        if bad is not None:
            raise SchemaError(f"{path.name}:{_row_line(path, bad)}: column 't': {exc}") from None
        raise


def _vector_rows(kind: str, axis: str, vec: np.ndarray) -> list[dict]:
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
    thrust: dict = {}
    static = gt.static_thrust
    thrust["a_f"], thrust["b_f"] = static.a_f, static.b_f
    thrust["a_r"], thrust["b_r"] = static.a_r, static.b_r
    if static.has_dead_zone:
        thrust["dead_zone_forward"] = static.dead_zone_forward
        thrust["dead_zone_reverse"] = static.dead_zone_reverse
    if isinstance(gt.thrust, ThrustDynamicParams):
        thrust["alpha"] = gt.thrust.alpha
        thrust["beta"] = gt.thrust.beta
    doc = {
        name: getattr(gt, name)
        for name in _GT_UNITS
        if name not in ("d", "bias", "h")
    }
    doc.update({"thrust": thrust, "d": gt.d, "bias": list(gt.bias), "h": gt.h})
    if gt.sigma_override is not None:
        su, sv, sr = gt.sigma_override
        doc["sigma_override"] = {"u": asdict(su), "v": asdict(sv), "r": asdict(sr)}
    doc["_units"] = _GT_UNITS
    write_json(path, doc)


def parse_ground_truth(doc: dict, source: str) -> GroundTruth:
    """Ground truth from a document in the :func:`write_ground_truth` layout.

    ``source`` names where the document came from in error messages.
    """
    try:
        traw = doc["thrust"]
        static = ThrustStaticParams(
            a_f=traw["a_f"],
            b_f=traw["b_f"],
            a_r=traw["a_r"],
            b_r=traw["b_r"],
            dead_zone_forward=traw.get("dead_zone_forward"),
            dead_zone_reverse=traw.get("dead_zone_reverse"),
        )
        thrust: ThrustStaticParams | ThrustDynamicParams = static
        if "alpha" in traw:
            thrust = ThrustDynamicParams(
                alpha=traw["alpha"], beta=traw["beta"], static_part=static
            )
        fields = {
            name: doc[name]
            for name in _GT_UNITS
            if name not in ("d", "bias", "h")
        }
        override = None
        if "sigma_override" in doc:
            raw = doc["sigma_override"]
            override = (
                SigmaSurge(**raw["u"]),
                SigmaSwayYaw(**raw["v"]),
                SigmaSwayYaw(**raw["r"]),
            )
        return GroundTruth(
            thrust=thrust, d=doc["d"], bias=tuple(doc["bias"]), h=doc["h"],
            sigma_override=override, **fields
        )
    except KeyError as exc:
        raise SchemaError(f"{source}: missing ground-truth field {exc}") from exc


def sha256_of_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def provenance_stamp(dataset_path: str | Path | None, config: dict | None) -> dict:
    """Dataset/config hashes plus a timestamp (SOURCE_DATE_EPOCH overrides)."""
    stamp: dict = {}
    if dataset_path is not None:
        stamp["dataset_sha256"] = sha256_of_file(dataset_path)
    if config is not None:
        canon = json.dumps(config, sort_keys=True).encode()
        stamp["config_sha256"] = hashlib.sha256(canon).hexdigest()
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp["created_unix"] = int(epoch) if epoch is not None else int(time.time())
    return stamp
