"""Least-squares solves and the shared-pole resolution.

The per-axis parameter vectors come from SVD-based least squares (orthogonal
factorization; minimum-norm solution when a system is rank deficient, which
happens by construction when a dataset contains no asymmetric-thrust rows).
Every fit takes one path: the ``[A | b]`` rows it uses are reduced to at most
one chunk of rows with the same Gram matrix, and one ``lstsq`` runs on
those.  All rows are read by slice and a row subset by index, chunk by
chunk, with no gathered copy of the block
(:meth:`~asvid.regressors.RowBlock.reduced`); a union of whole segments
stacks the segments' cached R factors and reduces that stack.  The stack is
an orthogonal transform of the rows, so its A part has their singular
values and its residual norms are theirs.  A system that fits one chunk goes
to ``lstsq`` as its own rows.  Sway and yaw share one matrix
(:class:`~asvid.regressors.RowBlock`), so each fit solves both right-hand
sides in one ``lstsq``; each axis still gets its own report, with the shared
rank and condition and its own residual.
For the first-order propeller model the three solved vectors overdetermine
the shared pole.  :func:`resolve_alpha` fits it to the six pole-coupled
entries by variable projection: each axis' damping-like term is eliminated
in closed form, which leaves a rational cost in the pole alone whose
stationary points are the roots of one quintic.  The root of lowest cost
wins; near-equal costs go to the largest pole.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .regressors import TERMS, RegressionSystem, reduce_stack, term_index

__all__ = [
    "CONDITION_WARN_THRESHOLD",
    "LeastSquaresReport",
    "AlphaResolution",
    "IdentifiedModel",
    "solve_least_squares",
    "identify_from_systems",
    "resolve_alpha",
]

CONDITION_WARN_THRESHOLD = 1e8


@dataclass
class LeastSquaresReport:
    """Solution of one system plus the numerical health indicators."""

    solution: np.ndarray
    residual_norm: float
    condition_estimate: float
    rank: int
    rows_used: int
    rank_deficient: bool

    def __post_init__(self) -> None:
        if self.residual_norm < 0:
            raise ValueError("residual norm cannot be negative")


@dataclass
class AlphaResolution:
    """Shared pole and the per-axis damping-like terms it was entangled with."""

    alpha: float
    r_u1: float
    r_v2: float
    r_r3: float
    residual: float

    @property
    def stable(self) -> bool:
        return self.alpha < 1.0


@dataclass
class IdentifiedModel:
    """Identified parameter vectors for one propeller-model kind."""

    kind: str
    surge: np.ndarray
    sway: np.ndarray
    yaw: np.ndarray
    alpha: float | None = None
    alpha_resolution: AlphaResolution | None = None
    reports: dict[str, LeastSquaresReport] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("static", "dynamic"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        expected = tuple(len(TERMS[(self.kind, axis)]) for axis in ("u", "v", "r"))
        got = (self.surge.size, self.sway.size, self.yaw.size)
        if got != expected:
            raise ValueError(f"{self.kind} model needs vector lengths {expected}, got {got}")
        if self.kind == "dynamic" and self.alpha is None:
            raise ValueError("dynamic model must carry the shared pole")
        if self.kind == "static" and self.alpha is not None:
            raise ValueError("static model has no pole")

    def vector(self, axis: str) -> np.ndarray:
        return {"u": self.surge, "v": self.sway, "r": self.yaw}[axis]


@dataclass(frozen=True)
class _Fit:
    """Minimum-norm solve of every right-hand side of one block."""

    solution: np.ndarray  # one column per right-hand side, in the block's column order
    residual_norm: np.ndarray
    condition: float
    rank: int
    rows_used: int


def _fit(rows: np.ndarray, p: int, rows_used: int) -> _Fit:
    """One minimum-norm ``lstsq`` of ``A X = B`` for rows ``[A | B]``, ``A`` of
    ``p`` columns: a system's own rows or a stack reduced from them."""
    a, b = rows[:, :p], rows[:, p:]
    solution, _, rank, sv = np.linalg.lstsq(a, b, rcond=np.finfo(float).eps)
    # A column of exact zeros (structural cancellation) has minimum-norm
    # coefficient exactly zero; clear the rounding dust the SVD leaves there.
    dead = ~np.any(a != 0.0, axis=0)
    if np.any(dead):
        solution[dead] = 0.0
    residual_norm = np.linalg.norm(a @ solution - b, axis=0)
    smallest = sv[min(rank, len(sv)) - 1] if rank > 0 else 0.0
    condition = float(sv[0] / smallest) if smallest > 0 else np.inf
    return _Fit(solution, residual_norm, condition, int(rank), rows_used)


def _report(fit: _Fit, sys: RegressionSystem) -> LeastSquaresReport:
    """The part of a block's fit that belongs to ``sys``, in its column order."""
    label = f"{sys.model_kind}/{sys.axis}"
    if fit.condition > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"{label} system condition estimate {fit.condition:.2e} "
            f"exceeds {CONDITION_WARN_THRESHOLD:.0e}",
            stacklevel=3,
        )
    return LeastSquaresReport(
        solution=fit.solution[sys.columns, sys.slot],
        residual_norm=float(fit.residual_norm[sys.slot]),
        condition_estimate=fit.condition,
        rank=fit.rank,
        rows_used=fit.rows_used,
        rank_deficient=fit.rank < sys.n_cols,
    )


def _check_rows(sys: RegressionSystem, m: int) -> None:
    if m < sys.n_cols:
        raise DataError(
            f"{sys.model_kind}/{sys.axis}: {m} rows cannot determine {sys.n_cols} columns"
        )


def solve_least_squares(
    sys: RegressionSystem, rows: np.ndarray | None = None
) -> LeastSquaresReport:
    """Minimize ||A x - b|| by SVD (minimum-norm solution if rank deficient).

    ``rows`` (indices into the system's rows) fits that subset; they are
    read from the block chunk by chunk, never gathered whole.  LAPACK gelsd
    treats singular values at or below ``eps * sigma_max`` (``eps`` = float64
    machine epsilon) as zero; ``rank`` and the condition estimate ``sigma_max
    / sigma_rank`` follow that threshold.  numpy's default ``rcond`` (``eps *
    max(m, n)``) would drop more directions on tall, nearly rank-deficient
    systems, so the threshold is passed explicitly.  The first system of a
    shared block to be solved solves every right-hand side of the block in
    the same ``lstsq``; the others read their part of it, the latest row
    subset's by equal indices.
    """
    block = sys.block
    p = block.matrix.shape[1]
    if rows is None:
        _check_rows(sys, sys.n_rows)
        if None not in block.fits:
            block.fits[None] = _fit(block.reduced(range(block.n_rows)), p, block.n_rows)
        return _report(block.fits[None], sys)
    rows = np.asarray(rows, dtype=int)
    _check_rows(sys, rows.size)
    last = block.fits.get("rows")
    if last is None or not np.array_equal(last[0], rows):
        # A copy of the indices, so a caller reusing its array cannot stale the fit.
        block.fits["rows"] = last = (rows.copy(), _fit(block.reduced(rows), p, rows.size))
    return _report(last[1], sys)


def _solve_segments(sys: RegressionSystem, segments: Collection[int]) -> LeastSquaresReport:
    """:func:`solve_least_squares` on the rows of whole segments, from their R factors.

    The R factors of the chosen segments' ``[A | b_1 | ... | b_m]`` rows (one
    ``b`` per system of the block) are stacked, and the stack is reduced
    until it fits one chunk; ``lstsq`` runs on it.  Segment ids without rows
    in this system contribute nothing.  Like the full solve, the merged fit
    is kept on the block.
    """
    block = sys.block
    factors = block.segment_factors
    ids = tuple(s for s in sorted(segments) if s in factors)
    m = sum(factors[s][1] for s in ids)
    _check_rows(sys, m)
    if ids not in block.fits:
        stack = reduce_stack(np.vstack([factors[s][0] for s in ids]))
        block.fits[ids] = _fit(stack, block.matrix.shape[1], m)
    return _report(block.fits[ids], sys)


def resolve_alpha(xu: np.ndarray, xv: np.ndarray, xr: np.ndarray) -> AlphaResolution:
    """Recover the shared pole from the three dynamic parameter vectors.

    Each axis j pins two entries of its vector, its own velocity at k and at
    k-1: ``first_j = alpha + r_j`` and ``paired_j = -alpha * (1 + r_j)``.  The
    pole minimizes the six squared residuals.  At fixed alpha each r_j enters
    linearly; projecting it out, ``r_j = (first_j - alpha - alpha * (paired_j
    + alpha)) / (1 + alpha^2)``, leaves the cost ``Q / (1 + alpha^2)`` with
    ``Q = sum_j q_j^2`` and ``q_j = paired_j + (1 + first_j) * alpha - alpha^2``.
    Its stationary points are the roots of the quintic ``Q' * (1 + alpha^2) -
    2 * alpha * Q``.  Each root's real part takes two Newton steps on that
    quintic, evaluated from the q_j rather than its expanded coefficients;
    the candidate of lowest cost wins and takes two more.  Each axis admits a
    mirrored solution (alpha and 1 + r_j swap roles), so among costs within
    1e-18 of each other the largest pole wins, deterministically.
    """
    pairs = np.empty((3, 2))
    for j, (axis, x) in enumerate((("u", xu), ("v", xv), ("r", xr))):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != len(TERMS[("dynamic", axis)]):
            raise ValueError(f"resolve_alpha expects dynamic vectors, got {x.size} {axis} entries")
        pairs[j] = x[[term_index("dynamic", axis, name) for name in (axis, f"{axis}[k-1]")]]
        if not np.all(np.isfinite(pairs[j])):
            raise ValueError(f"resolve_alpha: the {axis} axis has a non-finite pole entry")
    first, paired = pairs[:, :1], pairs[:, 1:]  # one row per axis, one column per pole

    def cost(alpha: np.ndarray) -> np.ndarray:
        q = paired + (1.0 + first - alpha) * alpha
        return np.sum(q * q, axis=0) / (1.0 + alpha * alpha)

    def newton(alpha: np.ndarray) -> np.ndarray:
        # Steps on half the quintic, g = (q . q') s - alpha Q with s = 1 + alpha^2,
        # whose slope is (q' . q' + q . q'') s - Q, where q'' = -2.
        for _ in range(2):
            q, dq = paired + (1.0 + first - alpha) * alpha, 1.0 + first - 2.0 * alpha
            s, big = 1.0 + alpha * alpha, np.sum(q * q, axis=0)
            g = np.sum(q * dq, axis=0) * s - alpha * big
            slope = np.sum(dq * dq - 2.0 * q, axis=0) * s - big
            alpha = alpha - g / np.where(slope, slope, np.inf)  # a flat point stays put
        return alpha

    big_q = sum(np.convolve(c, c) for c in np.column_stack((-np.ones(3), 1.0 + first, paired)))
    quintic = np.convolve(np.polyder(big_q), [1.0, 0.0, 1.0]) - np.append(2.0 * big_q, 0.0)
    candidates = newton(np.roots(quintic).real)
    best, best_cost = -math.inf, math.inf
    for alpha, c in zip(candidates.tolist(), cost(candidates).tolist()):
        if c < best_cost - 1e-18 or (abs(c - best_cost) <= 1e-18 and alpha > best):
            best, best_cost = alpha, c
    # A candidate still short of its root can tie with the root and win on size.
    alpha = newton(np.array([best]))
    r = (first - alpha - alpha * (paired + alpha)) / (1.0 + alpha * alpha)
    return AlphaResolution(float(alpha[0]), *r.ravel().tolist(), residual=math.sqrt(cost(alpha)[0]))


def identify_from_systems(
    kind: str,
    systems: dict[str, RegressionSystem],
    h: float,
    rows: dict[str, np.ndarray] | None = None,
    segments: Collection[int] | None = None,
) -> IdentifiedModel:
    """Fit all three axes on (a row subset of) pre-built systems.

    Building systems once and fitting many subsets is what the repeated
    partition studies lean on.  ``rows`` selects rows per axis (sway and yaw
    with equal indices share one solve); ``segments`` selects whole segments
    by id and merges their cached R factors.
    """
    if segments is None:
        reports = {axis: solve_least_squares(sys, None if rows is None else rows[axis])
                   for axis, sys in systems.items()}
    elif rows is None:
        reports = {axis: _solve_segments(sys, segments) for axis, sys in systems.items()}
    else:
        raise ValueError("select rows or segments, not both")
    metadata = {
        "h": h,
        "rows_used": {axis: rep.rows_used for axis, rep in reports.items()},
        "residual_norms": {axis: rep.residual_norm for axis, rep in reports.items()},
    }
    alpha = None
    alpha_res = None
    if kind == "dynamic":
        alpha_res = resolve_alpha(
            reports["u"].solution, reports["v"].solution, reports["r"].solution
        )
        alpha = alpha_res.alpha
        metadata["alpha_residual"] = alpha_res.residual
        metadata["alpha_stable"] = alpha_res.stable
    return IdentifiedModel(
        kind=kind,
        surge=reports["u"].solution,
        sway=reports["v"].solution,
        yaw=reports["r"].solution,
        alpha=alpha,
        alpha_resolution=alpha_res,
        reports=reports,
        metadata=metadata,
    )
