"""Assembly of the linear-in-parameters systems A @ X = b.

Each usable row of the prepared table contributes one row per axis; ``k``
is the row's index within its segment.  The columns of a (model kind, axis)
system are the terms of ``TERMS[(kind, axis)]``, in order; each term carries
its name, the unit of its parameter entry, whether it is a thrust column,
and a vectorized column function of one step's velocities and PWM.  Every
other reader of the layout (unit labels, the pole pairs, the lumped
disturbance's coefficients, the exact parameter vectors, the discrete
generator) looks terms up in that table by name.

The right-hand side is always the next-minus-current velocity of the axis.
A row at k needs the next table row to be k+1 of the same segment, and an
allowed operating region at k (:func:`region_allowed`): forward-forward for
surge, anything but reverse-reverse for sway and yaw.  The dynamic kind
also needs the row before to be k-1 of the segment, with the same region
as k, so a row never mixes thrust-model branches.  The region-signed thrust columns vanish in
forward-forward rows, which keeps forward-forward-only systems from chasing
coefficients the data cannot show.

Sway and yaw have the same terms, in another order, and the same row rule,
so they share one :class:`RowBlock`: one matrix, built once in the sway
order, with both right-hand sides.  The yaw system reads that matrix
through a column index, the identity for the static kind and the swap of
the own and the other velocity for the dynamic kind.  Solvers and
predictors work on the block, so the pair is factored and multiplied once.

Least squares never reads a block's rows all at once: :meth:`RowBlock.reduced`
reads ``[matrix | rhs^T]`` in chunks of at most ``_CHUNK_ENTRIES`` entries and
stacks each chunk's R factor, the sequential TSQR of Demmel, Grigori,
Hoemmen & Langou (SIAM J. Sci. Comput., 2012).  The stack is an orthogonal
transform of the rows, so it keeps their singular values and residual norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .dataprep import PreparedDataset
from .errors import DataError
from .model import REGION_SIGN, OperatingRegion

__all__ = [
    "Term", "TERMS", "term_index", "region_allowed", "RowBlock", "RegressionSystem",
    "build_systems",
]

# The most entries (rows x columns) one factorization of a least-squares
# solve reads.  OpenBLAS runs ``dger`` on one thread up to 2048 x 4 = 8192
# entries, and an unblocked Householder QR (under 32 columns) is made of such
# calls; larger calls wake a second thread, which sometimes stalls a call for
# milliseconds on a busy host.
_CHUNK_ENTRIES = 8192


@dataclass(frozen=True)
class Term:
    """One regressor column: ``column`` maps one step's arrays to its values.

    ``lag`` 1 evaluates the column at k-1 instead of k; the name then ends
    in ``[k-1]``.  ``thrust`` marks the columns of the PWM commands; every
    other column is a monomial of the lumped disturbance or a velocity.
    Columns use the builtin ``abs``, so they evaluate on floats as well as
    on arrays.
    """

    name: str
    unit: str
    column: Callable[[SimpleNamespace], np.ndarray]
    lag: int = 0
    thrust: bool = False


def _lagged(terms: tuple[Term, ...]) -> tuple[Term, ...]:
    return tuple(replace(t, name=f"{t.name}[k-1]", lag=1) for t in terms)


_PER_VEL, _NONE, _VEL = "(m/s)^-1", "-", "m/s"

_VELOCITY = {axis: Term(axis, _NONE, attrgetter(axis)) for axis in "uvr"}
_BIAS = Term("1", _VEL, lambda s: 0.0 * s.u + 1.0)  # exactly 1 for finite u
_SURGE_DAMPING = (
    Term("u|u|", _PER_VEL, lambda s: s.u * abs(s.u)),
    Term("v*r", _PER_VEL, lambda s: s.v * s.r),
    Term("r^2", _PER_VEL, lambda s: s.r * s.r),
)
_SWAYYAW_DAMPING = (
    Term("v|v|", _PER_VEL, lambda s: s.v * abs(s.v)),
    Term("v|r|", _PER_VEL, lambda s: s.v * abs(s.r)),
    Term("r|v|", _PER_VEL, lambda s: s.r * abs(s.v)),
    Term("r|r|", _PER_VEL, lambda s: s.r * abs(s.r)),
    Term("u*v", _PER_VEL, lambda s: s.u * s.v),
    Term("u*r", _PER_VEL, lambda s: s.u * s.r),
)
_SURGE_THRUST = (
    Term("mean^2+diff^2/4", _VEL, lambda s: s.mean * s.mean + 0.25 * s.diff * s.diff,
         thrust=True),
    Term("mean", _VEL, lambda s: s.mean, thrust=True),
)
# s is the region sign: +1 in FR, -1 in RF, 0 in FF.
_SWAYYAW_THRUST = (
    Term("s*(mean^2+diff^2/4)", _VEL,
         lambda s: s.sign * (s.mean * s.mean + 0.25 * s.diff * s.diff), thrust=True),
    Term("mean*diff", _VEL, lambda s: s.mean * s.diff, thrust=True),
    Term("s*mean", _VEL, lambda s: s.sign * s.mean, thrust=True),
    Term("diff/2", _VEL, lambda s: 0.5 * s.diff, thrust=True),
)


def _dynamic_swayyaw(own: str, other: str) -> tuple[Term, ...]:
    return (
        _VELOCITY[own],
        *_lagged((*_SWAYYAW_DAMPING, _VELOCITY["v"], _VELOCITY["r"])),
        *_SWAYYAW_DAMPING,
        _VELOCITY[other],
        _BIAS,
        *_lagged(_SWAYYAW_THRUST),
    )


_STATIC_SWAYYAW = (*_SWAYYAW_DAMPING, _VELOCITY["v"], _VELOCITY["r"], _BIAS, *_SWAYYAW_THRUST)

# The static kind reads everything at k.  In the dynamic kind the velocity at
# k and at k-1 of the axis itself carry the pole; the thrust terms read the
# PWM at k-1.
TERMS: dict[tuple[str, str], tuple[Term, ...]] = {
    ("static", "u"): (*_SURGE_DAMPING, _VELOCITY["u"], _BIAS, *_SURGE_THRUST),
    ("static", "v"): _STATIC_SWAYYAW,
    ("static", "r"): _STATIC_SWAYYAW,
    ("dynamic", "u"): (
        _VELOCITY["u"],
        *_lagged((*_SURGE_DAMPING, _VELOCITY["u"])),
        *_SURGE_DAMPING,
        _BIAS,
        *_lagged(_SURGE_THRUST),
    ),
    ("dynamic", "v"): _dynamic_swayyaw("v", "r"),
    ("dynamic", "r"): _dynamic_swayyaw("r", "v"),
}


def term_index(kind: str, axis: str, name: str) -> int:
    """Position of the named term in the parameter vector of (kind, axis)."""
    return [t.name for t in TERMS[(kind, axis)]].index(name)


def region_allowed(axis: str, region: np.ndarray) -> np.ndarray:
    """Where the axis' thrust columns hold: forward-forward for surge, anything
    but reverse-reverse for sway and yaw."""
    return region == OperatingRegion.FF if axis == "u" else region != OperatingRegion.RR


def _chunk_rows(width: int) -> int:
    """Rows per chunk of a ``width``-column stack; at least two factors' worth,
    so each pass of :func:`reduce_stack` shrinks the stack."""
    return max(_CHUNK_ENTRIES // width, 2 * width)


def _r_factor(rows: np.ndarray) -> np.ndarray:
    return np.linalg.qr(rows, mode="r")


def reduce_stack(stack: np.ndarray) -> np.ndarray:
    """Rows with the Gram matrix of ``stack``, at most one chunk of them.

    A stack that fits one chunk is returned as it is; otherwise the R factors
    of its chunks are stacked, and again, until they fit.
    """
    step = _chunk_rows(stack.shape[1])
    while stack.shape[0] > step:
        stack = np.vstack([_r_factor(stack[lo:lo + step]) for lo in range(0, stack.shape[0], step)])
    return stack


@dataclass(eq=False)
class RowBlock:
    """The rows that one or more systems share: one matrix, one right-hand
    side per system, and each row's provenance.

    Row i comes from time index ``k[i]`` of segment ``segment[i]``; ``rhs[j]``
    is the right-hand side of the block's j-th system.  ``fits`` keeps the
    estimator's solves of the block, by the segments they used (``None``: all
    rows; ``"rows"``: the latest row subset, as its indices and its fit), so
    the systems that share the block solve it once.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    segment: np.ndarray
    k: np.ndarray
    fits: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise DataError(f"a regression matrix must be 2-D, got shape {self.matrix.shape}")
        n = self.matrix.shape[0]
        if self.rhs.ndim != 2 or self.rhs.shape[1] != n or self.segment.shape != (n,) \
                or self.k.shape != (n,):
            raise DataError("row count mismatch between a, b and provenance")
        if not (np.all(np.isfinite(self.matrix)) and np.all(np.isfinite(self.rhs))):
            raise DataError("regression system contains non-finite entries")

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])

    def _read(self, rows: range | np.ndarray) -> np.ndarray:
        sel = slice(rows.start, rows.stop, rows.step) if isinstance(rows, range) else rows
        return np.hstack((self.matrix[sel], self.rhs[:, sel].T))

    def reduced(self, rows: range | np.ndarray) -> np.ndarray:
        """``[matrix | rhs^T]`` on ``rows`` (a range or row indices), reduced to
        at most one chunk of rows with the same Gram matrix.

        Rows that fit one chunk come back as they are.  Otherwise each chunk
        is read (by slice from a range, by index from indices), and its R
        factor goes onto a stack that :func:`reduce_stack` finishes; no
        more than one chunk of the block is copied at a time.
        """
        step = _chunk_rows(self.matrix.shape[1] + self.rhs.shape[0])
        if len(rows) <= step:
            return self._read(rows)
        return reduce_stack(np.vstack([_r_factor(self._read(rows[lo:lo + step]))
                                       for lo in range(0, len(rows), step)]))

    @cached_property
    def segment_factors(self) -> dict[int, tuple[np.ndarray, int]]:
        """Segment id -> (R of that segment's ``[matrix | rhs^T]`` rows, row count).

        Computed on first use and kept, so fits on many unions of whole
        segments factor each segment once.  Rows come grouped by segment id,
        so each segment's rows are a contiguous slice, reduced chunk by chunk
        (:meth:`reduced`) before its R factor is taken.
        """
        starts = np.flatnonzero(np.diff(self.segment)) + 1
        ids = np.r_[self.segment[:1], self.segment[starts]]
        if len(set(ids.tolist())) != ids.size:  # a bare np.unique would load numpy.ma
            raise DataError("regression rows are not grouped by segment")
        bounds = np.r_[0, starts, self.n_rows]
        return {
            int(sid): (_r_factor(self.reduced(range(lo, hi))), int(hi - lo))
            for sid, lo, hi in zip(ids, bounds[:-1], bounds[1:])
        }


class RegressionSystem:
    """One per-axis least-squares problem ``A @ X = b``: a view on a :class:`RowBlock`.

    ``b`` is ``block.rhs[slot]``, column j of ``A`` is ``block.matrix[:,
    columns[j]]``, and ``segment`` and ``k`` are the block's row provenance;
    sway and yaw are two views on one block.  Reading ``a`` gives ``A`` in
    this system's own column order: the stored matrix itself when
    ``columns`` is the identity, else a copy made on each access.  ``base``
    holds the current-step velocity of the axis, so one-step predictions
    (base + A @ X) and truths (base + b) can be reconstructed.
    ``n_skipped`` counts candidate steps excluded by the preconditions.
    """

    def __init__(self, block: RowBlock, slot: int, columns: np.ndarray, model_kind: str,
                 axis: str, base: np.ndarray, n_skipped: int = 0) -> None:
        self.block, self.slot, self.columns = block, slot, np.asarray(columns)
        self.b, self.segment, self.k = block.rhs[slot], block.segment, block.k
        self.model_kind, self.axis, self.base, self.n_skipped = model_kind, axis, base, n_skipped
        expected = len(TERMS[(model_kind, axis)])
        if self.columns.shape != (expected,):
            raise DataError(
                f"{model_kind}/{axis} system must have {expected} columns, "
                f"got shape {(block.n_rows, self.columns.size)}"
            )

    @property
    def a(self) -> np.ndarray:
        matrix = self.block.matrix
        own = np.array_equal(self.columns, np.arange(matrix.shape[1]))
        return matrix if own else matrix[:, self.columns]

    @property
    def n_rows(self) -> int:
        return self.block.n_rows

    @property
    def n_cols(self) -> int:
        return int(self.columns.size)


# Axes whose systems share one block: sway and yaw have the same terms (in
# another order) and the same row rule.
_BLOCKS = (("u",), ("v", "r"))


def _build(
    data: dict[str, np.ndarray], kind: str, axes: tuple[str, ...]
) -> dict[str, RegressionSystem]:
    """Evaluate the term table of (kind, axes[0]) on every row that passes the
    row rule: one block, with one system for each of ``axes``."""
    lag = 1 if kind == "dynamic" else 0
    region = data["region"]
    k = data["k"]
    # k+1 is in the same segment unless the next row starts one (k == 0).
    rows = np.flatnonzero((k >= lag) & np.append(k[1:] != 0, False))
    ok = region_allowed(axes[0], region[rows])
    if lag:
        ok &= region[rows - 1] == region[rows]
    n_skipped = int(np.sum(~ok))
    rows = rows[ok]
    if rows.size == 0:
        raise DataError(f"no usable rows for the {kind} {axes[0]} system")
    steps = [
        SimpleNamespace(
            u=data["u"][i], v=data["v"][i], r=data["r"][i],
            mean=data["delta_mean"][i], diff=data["delta_diff"][i],
            sign=REGION_SIGN[region[i]],
        )
        for i in ([rows, rows - 1] if lag else [rows])
    ]
    terms = TERMS[(kind, axes[0])]
    matrix = np.empty((rows.size, len(terms)))
    for j, term in enumerate(terms):
        matrix[:, j] = term.column(steps[term.lag])
    block = RowBlock(
        matrix=matrix,
        rhs=np.stack([data[axis][rows + 1] - data[axis][rows] for axis in axes]),
        segment=data["segment"][rows],
        k=k[rows],
    )
    return {
        axis: RegressionSystem(
            block, slot, np.array([term_index(kind, axes[0], t.name) for t in TERMS[(kind, axis)]]),
            kind, axis, data[axis][rows], n_skipped,
        )
        for slot, axis in enumerate(axes)
    }


def build_systems(ds: PreparedDataset, kind: str) -> dict[str, RegressionSystem]:
    """All three per-axis systems for one model kind; sway and yaw share one block."""
    if kind not in ("static", "dynamic"):
        raise ValueError(f"unknown model kind {kind!r}")
    if not ds.n_samples:
        raise DataError("dataset has no rows")
    data = ds.columns()
    return {axis: sys for axes in _BLOCKS for axis, sys in _build(data, kind, axes).items()}
