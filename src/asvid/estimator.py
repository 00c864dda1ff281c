"""Least-squares solves and the shared-pole resolution.

The per-axis parameter vectors come from SVD-based least squares (orthogonal
factorization; minimum-norm solution when a system is rank deficient, which
happens by construction when a dataset contains no asymmetric-thrust rows).
A fit on whole segments solves the same problem from the merged R factors of
the segments' ``[A | b]`` rows, whose top block has the singular values of A.
For the first-order propeller model the three solved vectors overdetermine
the shared pole; :func:`resolve_alpha` extracts it from the six pole-coupled
entries by damped Gauss-Newton.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .regressors import TERMS, RegressionSystem, term_index

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


def _solve(
    a: np.ndarray, b: np.ndarray, label: str, rows_used: int, tail: float | None = None
) -> LeastSquaresReport:
    """Minimum-norm ``lstsq`` of ``a x = b`` and its health indicators.

    ``tail`` is the part of the residual norm that ``b`` cannot show: the
    last diagonal entry of the R factor of ``[A | b]`` when ``a, b`` are the
    top rows of that factor.
    """
    n = a.shape[1]
    solution, _, rank, sv = np.linalg.lstsq(a, b, rcond=np.finfo(float).eps)
    # A column of exact zeros (structural cancellation) has minimum-norm
    # coefficient exactly zero; clear the rounding dust the SVD leaves there.
    dead = ~np.any(a != 0.0, axis=0)
    if np.any(dead):
        solution[dead] = 0.0
    residual_norm = float(np.linalg.norm(a @ solution - b))
    if tail is not None:
        residual_norm = math.hypot(residual_norm, tail)
    smallest = sv[min(rank, len(sv)) - 1] if rank > 0 else 0.0
    condition = float(sv[0] / smallest) if smallest > 0 else np.inf
    if condition > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"{label} system condition estimate {condition:.2e} "
            f"exceeds {CONDITION_WARN_THRESHOLD:.0e}",
            stacklevel=3,
        )
    return LeastSquaresReport(
        solution=solution,
        residual_norm=residual_norm,
        condition_estimate=condition,
        rank=int(rank),
        rows_used=rows_used,
        rank_deficient=rank < n,
    )


def _check_rows(sys: RegressionSystem, m: int) -> None:
    if m < sys.n_cols:
        raise DataError(
            f"{sys.model_kind}/{sys.axis}: {m} rows cannot determine {sys.n_cols} columns"
        )


def solve_least_squares(sys: RegressionSystem) -> LeastSquaresReport:
    """Minimize ||A x - b|| by SVD (minimum-norm solution if rank deficient).

    LAPACK gelsd treats singular values at or below ``eps * sigma_max``
    (``eps`` = float64 machine epsilon) as zero; ``rank`` and the condition
    estimate ``sigma_max / sigma_rank`` follow that threshold.  numpy's
    default ``rcond`` (``eps * max(m, n)``) would drop more directions on
    tall, nearly rank-deficient systems, so the threshold is passed
    explicitly.
    """
    _check_rows(sys, sys.n_rows)
    return _solve(sys.a, sys.b, f"{sys.model_kind}/{sys.axis}", sys.n_rows)


def _solve_segments(sys: RegressionSystem, segments: Collection[int]) -> LeastSquaresReport:
    """:func:`solve_least_squares` on the rows of whole segments, from their R factors.

    The R factors of the chosen segments' ``[A | b]`` blocks are stacked and
    reduced by one more QR (TSQR).  Its top p x p block has the singular
    values of the gathered A and its column p holds Q^T b, so the same
    ``lstsq`` runs on p rows; the last diagonal entry is the part of the
    residual outside the column space.  Segment ids without rows in this
    system contribute nothing.
    """
    factors = sys.segment_factors
    chosen = [factors[s] for s in sorted(segments) if s in factors]
    m = sum(count for _, count in chosen)
    _check_rows(sys, m)
    p = sys.n_cols
    r = np.linalg.qr(np.vstack([rf for rf, _ in chosen]), mode="r")
    tail = abs(float(r[p, p])) if r.shape[0] > p else None
    return _solve(r[:p, :p], r[:p, p], f"{sys.model_kind}/{sys.axis}", m, tail)


def _alpha_residuals(params: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Six residuals of the pole-coupling relations for (alpha, r_u, r_v, r_r).

    For each axis j the solved vector pins two entries:
    ``first_j = alpha + r_j`` and ``paired_j = -alpha * (1 + r_j)``.
    """
    alpha = params[0]
    res = np.empty(6)
    for j in range(3):
        first, paired = pairs[j]
        r = params[1 + j]
        res[2 * j] = first - (alpha + r)
        res[2 * j + 1] = paired + alpha * (1.0 + r)
    return res


def _alpha_jacobian(params: np.ndarray) -> np.ndarray:
    alpha = params[0]
    jac = np.zeros((6, 4))
    for j in range(3):
        r = params[1 + j]
        jac[2 * j, 0] = -1.0
        jac[2 * j, 1 + j] = -1.0
        jac[2 * j + 1, 0] = 1.0 + r
        jac[2 * j + 1, 1 + j] = alpha
    return jac


def _gauss_newton_alpha(
    pairs: np.ndarray, alpha0: float, max_iter: int
) -> tuple[np.ndarray, float, bool]:
    params = np.array([alpha0, *(pairs[:, 0] - alpha0)])
    cost = float(np.sum(_alpha_residuals(params, pairs) ** 2))
    for _ in range(max_iter):
        res = _alpha_residuals(params, pairs)
        jac = _alpha_jacobian(params)
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        scale = 1.0
        for _ in range(30):  # halve until the step decreases the cost
            trial = params + scale * step
            trial_cost = float(np.sum(_alpha_residuals(trial, pairs) ** 2))
            if trial_cost <= cost:
                break
            scale *= 0.5
        else:
            return params, cost, True
        moved = float(np.max(np.abs(scale * step)))
        params, cost = trial, trial_cost
        if moved < 1e-15 or cost < 1e-30:
            return params, cost, True
    return params, cost, False


def resolve_alpha(xu: np.ndarray, xv: np.ndarray, xr: np.ndarray) -> AlphaResolution:
    """Recover the shared pole from the three dynamic parameter vectors.

    The six pole-coupled entries (each axis' own velocity at k and at k-1)
    overdetermine (alpha, r_u, r_v, r_r).  Eliminating r per axis
    gives the seed quadratic ``alpha^2 - alpha*(1 + first) - paired = 0``;
    Gauss-Newton then minimizes the six squared residuals, started from the
    mean of the in-range roots and, to cope with the mirrored solution each
    axis admits (alpha and 1 + r_j swap roles), from each root itself.
    Among equally good minima the largest pole wins, deterministically.
    """
    pairs = np.empty((3, 2))
    for j, (axis, x) in enumerate((("u", xu), ("v", xv), ("r", xr))):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != len(TERMS[("dynamic", axis)]):
            raise ValueError(f"resolve_alpha expects dynamic vectors, got {x.size} {axis} entries")
        pairs[j] = x[[term_index("dynamic", axis, name) for name in (axis, f"{axis}[k-1]")]]

    roots: list[float] = []
    for first, paired in pairs:
        disc = (1.0 + first) ** 2 + 4.0 * paired
        if disc < 0:
            continue
        sq = np.sqrt(disc)
        for root in ((1.0 + first + sq) / 2.0, (1.0 + first - sq) / 2.0):
            if -1e-12 <= root < 1.5:  # closed at 0: a memoryless pole is valid
                roots.append(float(max(root, 0.0)))
    if roots:
        starts = [float(np.mean(roots))] + sorted(set(roots))
    else:
        warnings.warn("no in-range seed root for the pole; falling back to 0.9", stacklevel=2)
        starts = [0.9]

    best: tuple[np.ndarray, float] | None = None
    converged_any = False
    for alpha0 in starts:
        params, cost, converged = _gauss_newton_alpha(pairs, alpha0, max_iter=200)
        converged_any = converged_any or converged
        if (
            best is None
            or cost < best[1] - 1e-18
            or (abs(cost - best[1]) <= 1e-18 and params[0] > best[0][0])
        ):
            best = (params, cost)
    if not converged_any:
        raise RuntimeError("pole resolution did not converge within 200 iterations")

    params, cost = best
    return AlphaResolution(
        alpha=float(params[0]),
        r_u1=float(params[1]),
        r_v2=float(params[2]),
        r_r3=float(params[3]),
        residual=float(np.sqrt(cost)),
    )


def identify_from_systems(
    kind: str,
    systems: dict[str, RegressionSystem],
    h: float,
    rows: dict[str, np.ndarray] | None = None,
    segments: Collection[int] | None = None,
) -> IdentifiedModel:
    """Fit all three axes on (a row subset of) pre-built systems.

    Building systems once and fitting many subsets is what the repeated
    partition studies lean on.  ``rows`` selects rows per axis; ``segments``
    selects whole segments by id and merges their cached R factors instead of
    gathering rows.
    """
    if segments is None:
        reports = {
            axis: solve_least_squares(sys if rows is None else sys.select(rows[axis]))
            for axis, sys in systems.items()
        }
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
