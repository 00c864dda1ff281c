"""Raw sensor logs -> a synchronized, filtered table of usable grid points.

The pipeline resamples the multi-rate streams (GNSS position, AHRS heading,
PWM commands) onto a uniform grid anchored to the GNSS stream by holding
each stream's newest sample, converts geodetic fixes to a local NED frame,
derives body velocities by backward differencing, and smooths them.  Every
stage uses only past samples, so a perturbation of a raw sample can never
change prepared values at earlier grid times.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .model import classify_regions

__all__ = [
    "EARTH_RADIUS_M", "GeoReference", "RAW_STREAMS", "RawLogBundle", "SavGolConfig", "PwmMapConfig",
    "PrepareConfig", "PreparedDataset", "geodetic_to_ned", "ned_to_geodetic", "lever_arm_correct",
    "resample_causal", "savitzky_golay", "body_velocities_from_pose", "normalize_pwm",
    "denormalize_pwm", "build_prepared_dataset",
]

# Mean spherical earth radius; adequate for the sub-kilometre fields this
# toolkit targets (flat-earth tangent plane).
EARTH_RADIUS_M = 6371000.0

# Raw samples stamped within this of a grid time still count as "past".
_TIME_TOL = 1e-9


def _ulps(*stamps: np.ndarray) -> float:
    """Four float spacings at the largest |stamp|: the rounding that grid times
    ``t0 + h*k`` and raw stamps carry, ~1e-6 s for Unix epoch stamps (~1.7e9 s)."""
    return 4 * float(np.spacing(max(float(np.max(np.abs(t), initial=0.0)) for t in stamps)))


def off_grid_row(t: np.ndarray, segment: np.ndarray, h: float) -> int | None:
    """Index of the first row whose stamp is not ``h`` after the row before it
    in its segment; segments are taken in ascending id order."""
    order = np.argsort(segment, kind="stable")
    t, segment = t[order], segment[order]
    tol = max(_TIME_TOL, _ulps(t))
    steps_off = ~np.isclose(np.diff(t), h, rtol=0.0, atol=tol)
    bad = np.flatnonzero(steps_off & (segment[1:] == segment[:-1]))
    return int(order[bad[0] + 1]) if bad.size else None


@dataclass(frozen=True)
class GeoReference:
    """Geodetic origin of the local NED frame plus the GNSS antenna lever arm.

    ``antenna_offset`` is the antenna position relative to the body origin,
    expressed in the body frame (m).
    """

    lat0: float
    lon0: float
    antenna_offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if abs(self.lat0) > 90.0:
            raise ValueError(f"lat0 must lie within [-90, 90], got {self.lat0!r}")
        if abs(self.lon0) > 180.0:
            raise ValueError(f"lon0 must lie within [-180, 180], got {self.lon0!r}")


def _finite_increasing(t: np.ndarray) -> bool:
    # ``diff(t) <= 0`` is False for NaN, so test the complement; comparing
    # neighbours needs no float temporary the size of ``t``.
    return bool(np.isfinite(t).all() and (t[1:] > t[:-1]).all())


def _check_stream(name: str, t: np.ndarray, *cols: np.ndarray) -> None:
    if t.size == 0:
        raise DataError(f"{name} stream is empty")
    if not _finite_increasing(t):
        raise DataError(f"{name} timestamps must be finite and strictly increasing")
    for c in cols:
        if c.shape != t.shape:
            raise DataError(f"{name} columns must match timestamp length")


# Per raw stream: its name (the log file's stem), CSV columns, RawLogBundle fields.
RAW_STREAMS = (
    ("gnss", ("t", "lat", "lon"), ("gnss_t", "lat", "lon")),
    ("heading", ("t", "psi"), ("heading_t", "psi")),
    ("pwm", ("t", "pwm_l", "pwm_r"), ("pwm_t", "pwm_l", "pwm_r")),
)


@dataclass
class RawLogBundle:
    """Unsynchronized sensor logs: GNSS fixes, heading, and raw PWM in us."""

    gnss_t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    heading_t: np.ndarray
    psi: np.ndarray
    pwm_t: np.ndarray
    pwm_l: np.ndarray
    pwm_r: np.ndarray

    def __post_init__(self) -> None:
        for stream, _, names in RAW_STREAMS:
            for name in names:
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))
            _check_stream(stream, *(getattr(self, name) for name in names))


@dataclass(frozen=True)
class SavGolConfig:
    """Savitzky-Golay filter settings: odd window length, order < window."""

    window_length: int = 11
    poly_order: int = 3

    def __post_init__(self) -> None:
        if self.window_length % 2 != 1 or self.window_length < 1:
            raise ValueError("window_length must be a positive odd integer")
        if not 0 <= self.poly_order < self.window_length:
            raise ValueError("poly_order must satisfy 0 <= order < window_length")


@dataclass(frozen=True)
class PwmMapConfig:
    """Affine map between PWM pulse widths (us) and normalized commands.

    Defaults follow the common RC convention 1100/1500/1900 us.  Samples
    farther than ``oob_fraction`` beyond the endpoints are flagged.
    """

    neutral_us: float = 1500.0
    half_span_us: float = 400.0
    oob_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not self.half_span_us > 0:
            raise ValueError("half_span_us must be > 0")


@dataclass(frozen=True)
class PrepareConfig:
    """Settings for the raw-log pipeline.

    Every stream is resampled onto the grid of step ``h`` by holding its
    newest sample: the PWM stream is a piecewise-constant command, and the
    hold suits position and heading streams sampled at or above the grid rate.
    A grid point whose held sample in any stream is older than
    ``gap_factor * h`` is unusable, which also drops the points before a
    stream's first sample.
    """

    h: float = 0.2
    pwm_map: PwmMapConfig = field(default_factory=PwmMapConfig)
    savgol: SavGolConfig = field(default_factory=SavGolConfig)
    gap_factor: float = 3.0  # stream silence > gap_factor*h splits segments

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise ValueError("h must be > 0")


_ROW_COLUMNS = ("t", "u", "v", "r", "delta_mean", "delta_diff", "region")


@dataclass
class PreparedDataset:
    """Uniformly sampled identification dataset: one row per usable grid point.

    Each segment is a contiguous run of the grid.  Rows are grouped by
    ``segment`` in ascending id order; the constructor sorts them stably, so
    a segment keeps its rows in the order given.  ``k`` is the row's index
    within its segment.
    """

    h: float
    segment: np.ndarray
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    r: np.ndarray
    delta_mean: np.ndarray
    delta_diff: np.ndarray
    region: np.ndarray  # OperatingRegion codes, int8
    k: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.segment = np.asarray(self.segment, dtype=np.int64)
        for name in _ROW_COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name)))
            if getattr(self, name).shape != self.segment.shape:
                raise DataError(f"prepared column {name} length mismatch")
        if np.any(np.diff(self.segment) < 0):
            order = np.argsort(self.segment, kind="stable")
            for name in ("segment", *_ROW_COLUMNS):
                setattr(self, name, getattr(self, name)[order])
        _, starts, counts = np.unique(self.segment, return_index=True, return_counts=True)
        self.k = np.arange(self.segment.size) - np.repeat(starts, counts)
        for name in _ROW_COLUMNS[:-1]:  # all but the region codes
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"prepared column {name} has non-finite values")
        if self.region.dtype.kind not in "iu" or np.any((self.region < 0) | (self.region > 3)):
            raise DataError("prepared column region must hold OperatingRegion codes 0-3")
        if off_grid_row(self.t, self.segment, self.h) is not None:
            raise DataError("segment timestamps must step by exactly h")

    def columns(self) -> dict[str, np.ndarray]:
        """The row columns, then ``segment`` and ``k``, by name."""
        return {name: getattr(self, name) for name in (*_ROW_COLUMNS, "segment", "k")}

    @property
    def n_samples(self) -> int:
        return int(self.t.size)

    @property
    def duration_minutes(self) -> float:
        return self.n_samples * self.h / 60.0

    def summary(self) -> dict:
        return {
            "points": self.n_samples,
            "segments": int(np.count_nonzero(self.k == 0)),
            "minutes": self.duration_minutes,
            "h": self.h,
        }


def geodetic_to_ned(lat, lon, ref: GeoReference):
    """Project geodetic coordinates (deg) to local north/east (m) about the origin.

    Flat-earth tangent plane on a spherical earth; the down component is
    dropped.  Accepts scalars or arrays.
    """
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    if np.any(np.abs(lat) > 90.0):
        raise ValueError("latitude out of [-90, 90]")
    x = np.radians(lat - ref.lat0) * EARTH_RADIUS_M
    y = np.radians(lon - ref.lon0) * EARTH_RADIUS_M * math.cos(math.radians(ref.lat0))
    if x.ndim == 0:
        return float(x), float(y)
    return x, y


def ned_to_geodetic(x, y, ref: GeoReference):
    """Inverse of :func:`geodetic_to_ned` (same tangent-plane approximation)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lat = ref.lat0 + np.degrees(x / EARTH_RADIUS_M)
    lon = ref.lon0 + np.degrees(y / (EARTH_RADIUS_M * math.cos(math.radians(ref.lat0))))
    if lat.ndim == 0:
        return float(lat), float(lon)
    return lat, lon


def lever_arm_correct(x, y, psi, offset: tuple[float, float]):
    """Translate antenna positions to the body origin: pos - R2(psi) @ offset."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    psi = np.asarray(psi, dtype=float)
    ox, oy = offset
    c, s = np.cos(psi), np.sin(psi)
    cx = x - (c * ox - s * oy)
    cy = y - (s * ox + c * oy)
    if cx.ndim == 0:
        return float(cx), float(cy)
    return cx, cy


def resample_causal(
    t_raw: np.ndarray, y_raw: np.ndarray, t_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hold the newest raw sample stamped at or before each grid time.

    ``y_raw`` is 1-D or ``(n, k)``, one row per raw stamp.  Returns
    ``(values, age)``: ``age`` is how old the held sample is at each grid
    time.  Before the first sample ``age`` is ``inf`` and the values are NaN.
    """
    t_raw = np.asarray(t_raw, dtype=float)
    y_raw = np.asarray(y_raw, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if y_raw.shape[:1] != t_raw.shape:
        raise ValueError(
            f"y_raw needs one row per raw stamp: shape {y_raw.shape} for {t_raw.size} stamps"
        )
    if not _finite_increasing(t_raw):
        raise ValueError("raw timestamps t_raw must be finite and strictly increasing")
    tol = max(_TIME_TOL, _ulps(t_raw, t_grid))
    # Index 0 is a NaN sample stamped at -inf, held before the first raw one.
    idx = np.searchsorted(t_raw, t_grid + tol, side="right")
    held_t = np.concatenate(([-np.inf], t_raw))[idx]
    values = np.concatenate((np.full((1, *y_raw.shape[1:]), np.nan), y_raw))[idx]
    return values, t_grid - held_t


def _window_vandermonde(window: int, order: int) -> np.ndarray:
    """Polynomial basis of one window of equally spaced points scaled to [-1, 1]."""
    basis = 2.0 * np.arange(window) / max(window - 1, 1) - 1.0
    return np.vander(basis, order + 1, increasing=True)


def _causal_edge_weights(window: int, order: int) -> np.ndarray:
    """Convolution weights of the trailing-window polynomial fit at its edge."""
    pinv = np.linalg.pinv(_window_vandermonde(window, order))
    return pinv.sum(axis=0)  # row vector of the edge fit


def savitzky_golay(signal: np.ndarray, cfg: SavGolConfig, causal: bool = False) -> np.ndarray:
    """Local least-squares polynomial smoothing.

    The default is the classic centered filter.  With ``causal=True`` each
    output uses only the trailing window (fitted polynomial evaluated at the
    window's newest point), so the filter never looks ahead; start-up points
    with short history use a shrinking window.  Both variants reproduce
    polynomials up to ``poly_order`` exactly.

    The centered filter handles its edges like ``scipy.signal.savgol_filter``
    with ``mode="interp"``, without needing scipy: the first and last
    ``window_length // 2`` outputs evaluate the polynomial fitted to the
    first and last full window.  All outputs come from the hat matrix
    ``V @ pinv(V)`` of one window: its middle row is the interior kernel,
    its other rows are the edge fits.
    """
    signal = np.asarray(signal, dtype=float)
    w, order = cfg.window_length, cfg.poly_order
    n = signal.size
    if not causal:
        if n < w:
            raise ValueError(f"signal length {n} is shorter than window {w}")
        vand = _window_vandermonde(w, order)
        hat = vand @ np.linalg.pinv(vand)
        half = w // 2
        out = np.empty_like(signal)
        out[half : n - half] = np.convolve(signal, hat[half, ::-1], mode="valid")
        out[:half] = hat[:half] @ signal[:w]
        out[n - half :] = hat[w - half :] @ signal[n - w :]
        return out

    out = np.empty_like(signal)
    head = min(w - 1, n)
    for i in range(head):
        if i <= order:
            out[i] = signal[i]  # fit interpolates when points <= order+1
        else:
            vand = _window_vandermonde(i + 1, order)
            coef, *_ = np.linalg.lstsq(vand, signal[: i + 1], rcond=None)
            out[i] = coef.sum()
    if n >= w:
        weights = _causal_edge_weights(w, order)
        out[w - 1 :] = np.convolve(signal, weights[::-1], mode="valid")
    return out


def body_velocities_from_pose(
    t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    psi: np.ndarray,
    h: float,
    savgol: SavGolConfig | None = None,
    causal: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Derive (u, v, r) from a pose track on the uniform grid.

    Backward differences of position are rotated into the body frame at the
    midpoint heading of each step (the displacement accrues over the whole
    step; rotating at the endpoint heading leaks r*u*h/2 worth of surge
    into the much smaller sway channel).  The yaw rate differentiates the
    unwrapped heading.  Each series is then Savitzky-Golay filtered.
    Output arrays align with ``t[1:]`` (the first grid point has no
    backward difference).
    """
    if t.size < 2:
        raise DataError("need at least two samples to differentiate")
    dx = np.diff(x) / h
    dy = np.diff(y) / h
    psi_mid = 0.5 * (psi[1:] + psi[:-1])
    c, s = np.cos(psi_mid), np.sin(psi_mid)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    r = np.diff(psi) / h
    if savgol is not None:
        u = savitzky_golay(u, savgol, causal=causal)
        v = savitzky_golay(v, savgol, causal=causal)
        r = savitzky_golay(r, savgol, causal=causal)
    return u, v, r


def normalize_pwm(pwm_us, cfg: PwmMapConfig) -> tuple[np.ndarray, np.ndarray]:
    """Map PWM pulse widths (us) to [-1, 1].

    Returns ``(delta, flagged)``: values are clamped to [-1, 1] and samples
    beyond the endpoints by more than ``oob_fraction`` are flagged.
    """
    pwm_us = np.asarray(pwm_us, dtype=float)
    delta = (pwm_us - cfg.neutral_us) / cfg.half_span_us
    flagged = np.abs(delta) > 1.0 + cfg.oob_fraction
    return np.clip(delta, -1.0, 1.0), flagged


def denormalize_pwm(delta, cfg: PwmMapConfig) -> np.ndarray:
    """Inverse of :func:`normalize_pwm` for emitting synthetic logs."""
    return np.asarray(delta, dtype=float) * cfg.half_span_us + cfg.neutral_us


def build_prepared_dataset(
    raw: RawLogBundle,
    ref: GeoReference,
    cfg: PrepareConfig | None = None,
) -> PreparedDataset:
    """Run the full preparation pipeline on a raw log bundle.

    The grid is anchored to the first GNSS timestamp with step ``cfg.h``.
    A grid point is usable only when every stream has a sample at or before
    it that is at most ``gap_factor * h`` old; contiguous usable runs become
    segments, and the first point of each run is consumed by the backward
    difference.
    """
    cfg = cfg or PrepareConfig()
    h = cfg.h

    t0 = raw.gnss_t[0]
    n_grid = int(math.floor((raw.gnss_t[-1] - t0) / h + max(1e-9, _ulps(raw.gnss_t) / h))) + 1
    if n_grid < 2:
        raise DataError("GNSS stream spans less than one grid step")
    grid = t0 + h * np.arange(n_grid)

    latlon, age_gnss = resample_causal(raw.gnss_t, np.column_stack((raw.lat, raw.lon)), grid)
    psi, age_heading = resample_causal(raw.heading_t, np.unwrap(raw.psi), grid)
    pwm, age_pwm = resample_causal(raw.pwm_t, np.column_stack((raw.pwm_l, raw.pwm_r)), grid)
    usable = np.maximum.reduce([age_gnss, age_heading, age_pwm]) <= cfg.gap_factor * h
    if not np.any(usable):
        raise DataError("no usable grid points: each lacks a stream sample within gap_factor*h")

    x, y = geodetic_to_ned(*latlon.T, ref)
    x, y = lever_arm_correct(x, y, psi, ref.antenna_offset)
    (delta_l, delta_r), flagged = normalize_pwm(pwm.T, cfg.pwm_map)
    n_flagged = int(np.sum(flagged.any(axis=0) & usable))
    if n_flagged:
        warnings.warn(
            f"{n_flagged} grid points hold PWM out of configured bounds by "
            f">{100 * cfg.pwm_map.oob_fraction:g}%", stacklevel=2,
        )
    region = classify_regions(delta_l, delta_r)
    delta_mean = 0.5 * (delta_l + delta_r)
    delta_diff = delta_l - delta_r

    rows, velocities = [], []
    run_edges = np.flatnonzero(np.diff(np.concatenate(([0], usable.view(np.int8), [0]))))
    for start, stop in zip(run_edges[::2], run_edges[1::2]):
        if stop - start < 2:
            warnings.warn(f"dropping singleton segment at t={grid[start]:.3f}", stacklevel=2)
            continue
        sl = slice(start, stop)
        velocities.append(body_velocities_from_pose(
            grid[sl], x[sl], y[sl], psi[sl], h, savgol=cfg.savgol, causal=True
        ))
        rows.append(np.arange(start + 1, stop))  # backward difference consumes the first point
    if not rows:
        raise DataError("no segments with at least two usable points")
    u, v, r = (np.concatenate(series) for series in zip(*velocities))
    keep = np.concatenate(rows)
    return PreparedDataset(
        h, np.repeat(np.arange(len(rows)), [run.size for run in rows]),
        t=grid[keep], u=u, v=v, r=r, delta_mean=delta_mean[keep], delta_diff=delta_diff[keep],
        region=region[keep],
    )
