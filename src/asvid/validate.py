"""Train/validation partitioning, one-step prediction and metrics.

Two partition methods are supported, mirroring how the vessel experiments
are evaluated: random selection of individual regression rows, and random
grouping of whole trajectory segments.

Work is done per row block, not per axis (:func:`_blocks`): the surge rows
are one block and the sway/yaw rows another (they share one by
construction), matching the split between forward and turning manoeuvres.
Each block is split once, surge first, and its axes get the same row
indices; a fit on a point split solves the sway/yaw block once, reading its
rows chunk by chunk, and a prediction is one product of each block's matrix
with the vectors of the axes that share it, computed on all its rows and
then indexed, so no row-gathered copy of a matrix is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataprep import PreparedDataset
from .errors import DataError
from .estimator import IdentifiedModel, identify_from_systems
from .regressors import RegressionSystem, RowBlock, build_systems

__all__ = [
    "PartitionSpec",
    "RowSplit",
    "MetricsReport",
    "SensitivityReport",
    "partition",
    "fit_split",
    "r_squared",
    "mae",
    "evaluate",
    "sensitivity_study",
    "check_sweep_fractions",
    "training_fraction_sweep",
]

AXES = ("u", "v", "r")
TRACE_COLUMNS = ("t", "axis", "truth", "prediction")
_TRACE_DTYPE = np.dtype(list(zip(TRACE_COLUMNS, (np.float64, "U1", np.float64, np.float64))))
# The validation share of the training-fraction sweep.
VALIDATION_FRACTION = 0.3


@dataclass(frozen=True)
class PartitionSpec:
    """How to split rows into training and validation sets."""

    method: str = "by_points"
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in ("by_points", "by_segments"):
            raise ValueError(f"unknown partition method {self.method!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly inside (0, 1)")


@dataclass
class RowSplit:
    """Row indices (per axis) of a train/validation partition.

    For segment partitions the chosen segment ids are recorded too;
    ``realized_train_fraction`` reports the share actually achieved (whole
    segments rarely hit the requested fraction exactly).
    """

    spec: PartitionSpec
    train: dict[str, np.ndarray]
    val: dict[str, np.ndarray]
    realized_train_fraction: float
    train_segments: frozenset[int] | None = None
    val_segments: frozenset[int] | None = None

    def describe(self) -> dict:
        out = {
            "method": self.spec.method,
            "train_fraction": self.spec.train_fraction,
            "realized_train_fraction": self.realized_train_fraction,
            "seed": self.spec.seed,
        }
        if self.train_segments is not None:
            out["train_segments"] = sorted(self.train_segments)
        return out


def _blocks(systems: dict[str, RegressionSystem]) -> dict[RowBlock, tuple[str, ...]]:
    """Each row block of ``systems`` and the axes on it, in first-seen axis order."""
    blocks: dict[RowBlock, tuple[str, ...]] = {}
    for axis in AXES:
        block = systems[axis].block
        blocks[block] = blocks.get(block, ()) + (axis,)
    return blocks


def _per_axis(blocks: dict[RowBlock, tuple[str, ...]], sides: dict[RowBlock, tuple]
              ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Per-axis train and validation rows from each block's (train, validation) pair."""
    return tuple({axis: sides[block][i] for block, axes in blocks.items() for axis in axes}
                 for i in (0, 1))


def _split_points(n: int, fraction: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n_train = int(round(fraction * n))
    if n_train <= 0 or n_train >= n:
        raise DataError(f"partition leaves an empty side ({n_train} of {n} rows)")
    perm = rng.permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def partition(
    ds: PreparedDataset,
    spec: PartitionSpec,
    kind: str = "static",
    systems: dict[str, RegressionSystem] | None = None,
) -> RowSplit:
    """Draw a seeded, reproducible train/validation split.

    Each row block is split once, and every axis on it gets the same
    indices.  ``by_points`` samples exactly round(fraction * n) rows of each
    block, the surge block first; ``by_segments`` walks a shuffled segment
    order accumulating whole segments until the prepared-point count is as
    close to the requested fraction as the first crossing allows (the first
    seeded draw is kept and its realized fraction reported).
    """
    systems = systems if systems is not None else build_systems(ds, kind)
    blocks = _blocks(systems)

    if spec.method == "by_points":
        rng = np.random.default_rng(spec.seed)
        sides = {block: _split_points(block.n_rows, spec.train_fraction, rng) for block in blocks}
        realized = sum(train.size for train, _ in sides.values()) / sum(b.n_rows for b in blocks)
        train, val = _per_axis(blocks, sides)
        return RowSplit(spec=spec, train=train, val=val, realized_train_fraction=realized)

    # by_segments: whole segments, shared across the three axes
    ids, counts = np.unique(ds.segment, return_counts=True)
    lengths = dict(zip(ids.tolist(), counts.tolist()))
    if len(lengths) < 2:
        raise DataError("segment partition needs at least two segments")
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(sorted(lengths))
    total_points = sum(lengths.values())
    target = spec.train_fraction * total_points
    train_ids: list[int] = []
    cum = 0
    for sid in order:
        if cum >= target:
            break
        train_ids.append(int(sid))
        cum += lengths[int(sid)]
    if len(train_ids) > 1 and abs(cum - lengths[train_ids[-1]] - target) < abs(cum - target):
        cum -= lengths[train_ids.pop()]
    train_set = frozenset(train_ids)
    val_set = frozenset(lengths) - train_set
    if not train_set or not val_set:
        raise DataError("segment partition leaves an empty side")

    sides = {}
    for block, axes in blocks.items():
        in_train = np.isin(block.segment, sorted(train_set))
        sides[block] = np.flatnonzero(in_train), np.flatnonzero(~in_train)
        if in_train.all() or not in_train.any():
            raise DataError(
                f"segment partition leaves the {axes[0]} system without rows on one side"
            )
    train, val = _per_axis(blocks, sides)
    return RowSplit(
        spec=spec,
        train=train,
        val=val,
        realized_train_fraction=cum / total_points,
        train_segments=train_set,
        val_segments=val_set,
    )


def fit_split(
    kind: str, systems: dict[str, RegressionSystem], h: float, split: RowSplit
) -> IdentifiedModel:
    """Identify on the training side of a split.

    A segment split is fitted from its segments' merged R factors, a point
    split from its rows, read chunk by chunk.
    """
    if split.train_segments is not None:
        return identify_from_systems(kind, systems, h, segments=split.train_segments)
    return identify_from_systems(kind, systems, h, rows=split.train)


def _changes(model: IdentifiedModel, systems: dict[str, RegressionSystem]) -> dict[str, np.ndarray]:
    """Each system's predicted one-step change A @ X on all its rows: one
    product per block, with each system's vector placed in its columns."""
    for sys in systems.values():
        if sys.model_kind != model.kind:
            raise ValueError(f"{model.kind} model cannot predict on a {sys.model_kind} system")
    products: dict[RowBlock, np.ndarray] = {}
    for block, axes in _blocks(systems).items():
        x = np.zeros((block.matrix.shape[1], block.rhs.shape[0]))
        for axis in axes:
            x[systems[axis].columns, systems[axis].slot] = model.vector(axis)
        products[block] = block.matrix @ x
    return {axis: products[sys.block][:, sys.slot] for axis, sys in systems.items()}


def _rows(rows: dict[str, np.ndarray] | None, axis: str):
    return slice(None) if rows is None else np.asarray(rows[axis], dtype=int)


def r_squared(truth, prediction) -> float:
    """Coefficient of determination of a prediction series.

    ``1 - sum((truth - pred)^2) / sum((truth - mean(truth))^2)`` with the
    mean taken over the evaluated set.  Undefined for constant truth.
    """
    truth = np.asarray(truth, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if truth.shape != prediction.shape or truth.ndim != 1:
        raise ValueError("series must be one-dimensional and of equal length")
    if truth.size < 2:
        raise ValueError("need at least two points")
    denom = float(np.sum((truth - truth.mean()) ** 2))
    if denom == 0.0:
        raise ValueError("truth series is constant; R^2 is undefined")
    return 1.0 - float(np.sum((truth - prediction) ** 2)) / denom


def mae(truth, prediction) -> float:
    """Mean absolute error between two equal-length series."""
    truth = np.asarray(truth, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if truth.shape != prediction.shape or truth.ndim != 1:
        raise ValueError("series must be one-dimensional and of equal length")
    if truth.size == 0:
        raise ValueError("series are empty")
    return float(np.mean(np.abs(truth - prediction)))


@dataclass
class MetricsReport:
    """Per-axis R^2 and MAE of one evaluation pass."""

    kind: str
    r2: dict[str, float]
    mae: dict[str, float]
    evaluated: dict[str, int]
    skipped: dict[str, int]
    partition: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for axis in self.r2:
            if self.r2[axis] > 1.0 + 1e-12:
                raise ValueError("R^2 cannot exceed 1")
            if self.mae[axis] < 0.0:
                raise ValueError("MAE cannot be negative")


def evaluate(
    model: IdentifiedModel,
    systems: dict[str, RegressionSystem],
    rows: dict[str, np.ndarray] | None = None,
    partition_info: dict | None = None,
) -> MetricsReport:
    """One-step metrics of a model over (a row subset of) the systems."""
    r2d: dict[str, float] = {}
    maed: dict[str, float] = {}
    counts: dict[str, int] = {}
    skipped: dict[str, int] = {}
    changes = _changes(model, systems)
    for axis in AXES:
        sys, idx = systems[axis], _rows(rows, axis)
        base = sys.base[idx]
        truth, pred = base + sys.b[idx], base + changes[axis][idx]
        r2d[axis] = r_squared(truth, pred)
        maed[axis] = mae(truth, pred)
        counts[axis] = truth.size
        skipped[axis] = systems[axis].n_skipped
    return MetricsReport(
        kind=model.kind,
        r2=r2d,
        mae=maed,
        evaluated=counts,
        skipped=skipped,
        partition=partition_info or {},
    )


def prediction_traces(
    model: IdentifiedModel,
    systems: dict[str, RegressionSystem],
    ds: PreparedDataset,
    rows: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-sample (time, axis, truth, prediction) records for external plotting.

    One structured array with a field per column (``TRACE_COLUMNS``), its
    rows sorted by axis name and then by time.  The time stamps the predicted
    instant (one step past the row's k).
    """
    ids, starts = np.unique(ds.segment, return_index=True)
    changes = _changes(model, systems)
    parts = []
    for axis in sorted(AXES):
        sys, idx = systems[axis], _rows(rows, axis)
        times = ds.t[starts[np.searchsorted(ids, sys.segment[idx])] + sys.k[idx]] + ds.h
        order = np.argsort(times, kind="stable")
        base = sys.base[idx]
        part = np.empty(order.size, dtype=_TRACE_DTYPE)
        part["t"] = times[order]
        part["axis"] = axis
        part["truth"] = (base + sys.b[idx])[order]
        part["prediction"] = (base + changes[axis][idx])[order]
        parts.append(part)
    return np.concatenate(parts)


@dataclass
class SensitivityReport:
    """Mean and sample SD of the metrics over repeated random partitions."""

    kind: str
    method: str
    repetitions: int
    mean_r2: dict[str, float]
    sd_r2: dict[str, float]
    mean_mae: dict[str, float]
    sd_mae: dict[str, float]


def sensitivity_study(
    ds: PreparedDataset,
    kind: str,
    spec_base: PartitionSpec,
    repetitions: int = 20,
    systems: dict[str, RegressionSystem] | None = None,
) -> SensitivityReport:
    """Repeat partition -> identify -> evaluate with counter-derived seeds.

    Validation-side metrics are aggregated with the sample (n-1) standard
    deviation.  Any failing repetition aborts the study with its index.
    """
    if repetitions < 2:
        raise ValueError("need at least two repetitions")
    systems = systems if systems is not None else build_systems(ds, kind)
    r2s = {axis: [] for axis in AXES}
    maes = {axis: [] for axis in AXES}
    for rep in range(repetitions):
        spec = PartitionSpec(spec_base.method, spec_base.train_fraction, spec_base.seed + rep)
        try:
            split = partition(ds, spec, kind, systems=systems)
            model = fit_split(kind, systems, ds.h, split)
            metrics = evaluate(model, systems, split.val)
        except Exception as exc:
            raise RuntimeError(f"sensitivity repetition {rep} failed: {exc}") from exc
        for axis in AXES:
            r2s[axis].append(metrics.r2[axis])
            maes[axis].append(metrics.mae[axis])
    return SensitivityReport(
        kind=kind,
        method=spec_base.method,
        repetitions=repetitions,
        mean_r2={a: float(np.mean(r2s[a])) for a in AXES},
        sd_r2={a: float(np.std(r2s[a], ddof=1)) for a in AXES},
        mean_mae={a: float(np.mean(maes[a])) for a in AXES},
        sd_mae={a: float(np.std(maes[a], ddof=1)) for a in AXES},
    )


def check_sweep_fractions(fractions: tuple[float, ...]) -> None:
    """Reject a training fraction that leaves no room for ``VALIDATION_FRACTION``."""
    if any(f + VALIDATION_FRACTION > 1.0 + 1e-12 for f in fractions):
        raise ValueError(
            "train fraction plus validation fraction exceeds 1: a training fraction "
            f"may be at most {1.0 - VALIDATION_FRACTION:g}"
        )


def training_fraction_sweep(
    ds: PreparedDataset,
    kind: str,
    fractions: tuple[float, ...] = (0.7, 0.6, 0.5),
    seed: int = 0,
    systems: dict[str, RegressionSystem] | None = None,
) -> list[dict]:
    """Vary the training share against one fixed validation share,
    ``VALIDATION_FRACTION`` of the rows.

    A seeded permutation per row block (the surge block first) fixes the
    validation rows once; each requested fraction then trains on that share
    of the block's row count, drawn from the remaining rows (at most all of
    them, so shares that sum to 1 never fail on rounding), and every axis on
    a block gets the same rows.  Returns one entry per fraction with train-
    and validation-side metrics.
    """
    check_sweep_fractions(fractions)
    systems = systems if systems is not None else build_systems(ds, kind)
    blocks = _blocks(systems)
    rng = np.random.default_rng(seed)
    perms = {block: rng.permutation(block.n_rows) for block in blocks}

    out: list[dict] = []
    for f in fractions:
        sides = {}
        for block, perm in perms.items():
            n = perm.size
            n_val = int(round(VALIDATION_FRACTION * n))
            # Rounded separately, shares that fill the rows exactly can overshoot by one.
            n_train = min(int(round(f * n)), n - n_val)
            if n_val <= 0 or n_train <= 0:
                raise DataError(f"infeasible shares: {f} train + {VALIDATION_FRACTION} validation")
            sides[block] = np.sort(perm[n_val : n_val + n_train]), np.sort(perm[:n_val])
        rows_train, rows_val = _per_axis(blocks, sides)
        model = identify_from_systems(kind, systems, ds.h, rows=rows_train)
        info = {"method": "by_points", "seed": seed, "train_fraction": f,
                "validation_fraction": VALIDATION_FRACTION}
        out.append(
            {
                "train_fraction": f,
                "train": evaluate(model, systems, rows_train, {**info, "side": "train"}),
                "validation": evaluate(model, systems, rows_val, {**info, "side": "validation"}),
            }
        )
    return out
