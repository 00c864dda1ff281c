"""File formats: raw log CSVs, prepared datasets, model files, metrics.

All CSVs are UTF-8 with a header row and ``.`` decimal separator; floats
are written with ``repr`` so they round-trip bit for bit.  Files are
written atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dataprep import PreparedDataset, RawLogBundle, Segment
from .errors import SchemaError
from .estimator import IdentifiedModel
from .model import OperatingRegion, ThrustDynamicParams, ThrustStaticParams
from .oracle import GroundTruth, SigmaSurge, SigmaSwayYaw
from .regressors import TERMS

__all__ = [
    "atomic_write_text",
    "read_raw_logs",
    "write_raw_logs",
    "write_prepared_csv",
    "read_prepared_csv",
    "write_model_file",
    "read_model_file",
    "write_expected_x",
    "write_ground_truth",
    "read_ground_truth",
    "parse_ground_truth",
    "MODEL_FILE_VERSION",
]

MODEL_FILE_VERSION = 1

RAW_SCHEMAS = {
    "gnss": ("t", "lat", "lon"),
    "heading": ("t", "psi"),
    "pwm": ("t", "pwm_l", "pwm_r"),
}


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


def _read_csv_columns(path: Path, columns: tuple[str, ...], adapter: dict | None) -> dict:
    """Read the named columns, applying an optional canonical->actual rename."""
    if not path.exists():
        raise FileNotFoundError(f"required log file is missing: {path}")
    rename = adapter or {}
    actual = {canon: rename.get(canon, canon) for canon in columns}
    out: dict[str, list[float]] = {canon: [] for canon in columns}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for canon, col in actual.items():
            if col not in header:
                raise SchemaError(f"{path.name}: missing column {col!r} (have {header})")
        for line_no, row in enumerate(reader, start=2):
            for canon, col in actual.items():
                try:
                    out[canon].append(float(row[col]))
                except (TypeError, ValueError) as exc:
                    raise SchemaError(
                        f"{path.name}:{line_no}: column {col!r} is not numeric: {row[col]!r}"
                    ) from exc
    return {k: np.asarray(v) for k, v in out.items()}


def read_raw_logs(log_dir: str | Path, adapter: dict | None = None) -> RawLogBundle:
    """Load gnss.csv / heading.csv / pwm.csv from a directory.

    ``adapter`` optionally maps canonical column names to the names actually
    present, per stream: ``{"gnss": {"lat": "latitude"}, ...}``.
    """
    log_dir = Path(log_dir)
    adapter = adapter or {}
    gnss = _read_csv_columns(log_dir / "gnss.csv", RAW_SCHEMAS["gnss"], adapter.get("gnss"))
    heading = _read_csv_columns(
        log_dir / "heading.csv", RAW_SCHEMAS["heading"], adapter.get("heading")
    )
    pwm = _read_csv_columns(log_dir / "pwm.csv", RAW_SCHEMAS["pwm"], adapter.get("pwm"))
    return RawLogBundle(
        gnss_t=gnss["t"],
        lat=gnss["lat"],
        lon=gnss["lon"],
        heading_t=heading["t"],
        psi=heading["psi"],
        pwm_t=pwm["t"],
        pwm_l=pwm["pwm_l"],
        pwm_r=pwm["pwm_r"],
    )


def _csv_text(header: tuple[str, ...], rows, records: tuple[str, ...] = ()) -> str:
    lines = [",".join(header), *records]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def write_raw_logs(log_dir: str | Path, bundle: RawLogBundle) -> None:
    log_dir = Path(log_dir)
    atomic_write_text(
        log_dir / "gnss.csv",
        _csv_text(RAW_SCHEMAS["gnss"], zip(bundle.gnss_t, bundle.lat, bundle.lon)),
    )
    atomic_write_text(
        log_dir / "heading.csv",
        _csv_text(RAW_SCHEMAS["heading"], zip(bundle.heading_t, bundle.psi)),
    )
    atomic_write_text(
        log_dir / "pwm.csv",
        _csv_text(RAW_SCHEMAS["pwm"], zip(bundle.pwm_t, bundle.pwm_l, bundle.pwm_r)),
    )


PREPARED_HEADER = ("t", "segment", "u", "v", "r", "delta_mean", "delta_diff", "region")
H_RECORD = "# h="


def write_prepared_csv(path: str | Path, ds: PreparedDataset) -> None:
    """Write a prepared dataset as one CSV row per grid point.

    The first line is the column header ``PREPARED_HEADER``.  The line right
    after it is the sampling-period record ``# h=<repr(ds.h)>``, so that
    :func:`read_prepared_csv` gets ``h`` back bit for bit.  The pose columns
    ``x``, ``y``, ``psi`` of :class:`Segment` are not stored.
    """
    rows = []
    for seg in ds.segments:
        for i in range(len(seg)):
            rows.append(
                (
                    float(seg.t[i]),
                    seg.segment_id,
                    float(seg.u[i]),
                    float(seg.v[i]),
                    float(seg.r[i]),
                    float(seg.delta_mean[i]),
                    float(seg.delta_diff[i]),
                    OperatingRegion(int(seg.region[i])).name,
                )
            )
    record = f"{H_RECORD}{float(ds.h)!r}"
    atomic_write_text(Path(path), _csv_text(PREPARED_HEADER, rows, (record,)))


def _skip_comments(lines, comments: list[str]):
    """Yield the lines that do not start with ``#``; collect the others."""
    for line in lines:
        if line.startswith("#"):
            comments.append(line)
        else:
            yield line


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

    Lines that start with ``#`` are not data.  If the file holds the record
    ``# h=<value>`` (written on the line after the header), ``h`` is that
    value verbatim; a value that is not a finite positive number raises
    :class:`SchemaError`.  Files without the record (asvid 0.1.0, or written
    by hand) get ``h`` inferred as the median timestamp step of the first
    segment with two or more points; that value is only approximate, since
    the steps of ``repr``-written timestamps differ from ``h`` by a few ulps.
    The pose columns are not stored, so each segment read back has ``x``,
    ``y`` and ``psi`` set to ``None``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"prepared dataset is missing: {path}")
    cols: dict[str, list] = {name: [] for name in PREPARED_HEADER}
    comments: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(_skip_comments(fh, comments))
        for name in PREPARED_HEADER:
            if name not in (reader.fieldnames or []):
                raise SchemaError(f"{path.name}: missing column {name!r}")
        for row in reader:
            for name in PREPARED_HEADER:
                cols[name].append(row[name])
    seg_ids = np.asarray(cols["segment"], dtype=int)
    t = np.asarray(cols["t"], dtype=float)
    region = np.array([OperatingRegion[name].value for name in cols["region"]], dtype=np.int8)
    arrays = {k: np.asarray(cols[k], dtype=float) for k in ("u", "v", "r", "delta_mean", "delta_diff")}

    h = None
    for line in comments:
        if line.startswith(H_RECORD):
            h = _parse_h_record(path, line[len(H_RECORD):].strip())
    if h is None:
        for sid in np.unique(seg_ids):
            seg_t = t[seg_ids == sid]
            if seg_t.size >= 2:
                h = float(np.median(np.diff(seg_t)))
                break
    if h is None:
        raise SchemaError(f"{path.name}: cannot infer sampling period from single-point segments")
    segments = []
    for sid in np.unique(seg_ids):
        idx = np.flatnonzero(seg_ids == sid)
        segments.append(
            Segment(
                segment_id=int(sid),
                t=t[idx],
                u=arrays["u"][idx],
                v=arrays["v"][idx],
                r=arrays["r"][idx],
                delta_mean=arrays["delta_mean"][idx],
                delta_diff=arrays["delta_diff"][idx],
                region=region[idx],
                h=h,
            )
        )
    return PreparedDataset(segments=segments, h=h)


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
    atomic_write_text(Path(path), json.dumps(doc, indent=2) + "\n")


def read_model_file(path: str | Path) -> IdentifiedModel:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model file is missing: {path}")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != MODEL_FILE_VERSION:
        raise SchemaError(f"{path.name}: unsupported model file version {version!r}")
    kind = doc["kind"]
    vectors = {
        axis: np.array([row["value"] for row in doc["vectors"][axis]]) for axis in ("u", "v", "r")
    }
    return IdentifiedModel(
        kind=kind,
        surge=vectors["u"],
        sway=vectors["v"],
        yaw=vectors["r"],
        alpha=doc.get("alpha"),
        metadata={
            key: doc.get(key)
            for key in ("h", "alpha_stable", "residual_norms", "rows_used", "provenance")
        },
    )


def write_expected_x(path: str | Path, kind: str, vectors: dict[str, np.ndarray],
                     alpha: float | None = None) -> None:
    """Sidecar with the exact lumped vectors a synthetic dataset encodes."""
    doc = {
        "kind": kind,
        "alpha": alpha,
        "vectors": {axis: _vector_rows(kind, axis, vec) for axis, vec in vectors.items()},
    }
    atomic_write_text(Path(path), json.dumps(doc, indent=2) + "\n")


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
    atomic_write_text(Path(path), json.dumps(doc, indent=2) + "\n")


def read_ground_truth(path: str | Path) -> GroundTruth:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"ground-truth config is missing: {path}")
    with open(path, encoding="utf-8") as fh:
        return parse_ground_truth(json.load(fh), path.name)


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
