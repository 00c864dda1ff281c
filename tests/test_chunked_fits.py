"""Every least-squares fit reads its rows in chunks: results at the chunk
boundaries, the size of each factorization, and the memory of a gathered fit."""

import sys
import tracemalloc

import numpy as np
import pytest

from asvid import cli, storage, validate
from asvid.estimator import _solve_segments, identify_from_systems, solve_least_squares
from asvid.oracle import DiscreteGenConfig, generate_discrete
from asvid.regressors import _CHUNK_ENTRIES, TERMS, RegressionSystem, RowBlock, term_index

EPS = np.finfo(float).eps
P = len(TERMS[("dynamic", "v")])  # 21 columns, shared by sway and yaw
C = _CHUNK_ENTRIES // (P + 2)  # rows per chunk of the block [A | b_v | b_r]
COLUMNS = {axis: np.array([term_index("dynamic", "v", t.name) for t in TERMS[("dynamic", axis)]])
           for axis in "vr"}
ZERO, DUP, SRC = 3, 11, 17  # an exact-zero column and a duplicated one


def shared_block(lengths, seed):
    """A dynamic sway/yaw pair on one block of segments ``lengths`` long."""
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    scales = 10.0 ** rng.uniform(-1.0, 1.0, P)
    # Three decades below the largest column, the duplicate's computed
    # singular value stays far under the rank threshold eps * sigma_max.
    scales[SRC] = 1e-3 * scales.max()
    a = rng.normal(size=(n, P)) * scales
    a[:, ZERO] = 0.0
    a[:, DUP] = a[:, SRC]
    rhs = (a @ rng.normal(size=(P, 2))).T + rng.normal(0.0, 0.1, (2, n))
    block = RowBlock(a, rhs, np.repeat(np.arange(len(lengths)), lengths),
                     np.concatenate([np.arange(m) for m in lengths]))
    return {axis: RegressionSystem(block, slot, COLUMNS[axis], "dynamic", axis, np.zeros(n))
            for slot, axis in enumerate("vr")}


def assert_matches_lstsq(report, system, rows):
    a = system.block.matrix[rows][:, system.columns]
    b = system.b[rows]
    ref, _, rank, _ = np.linalg.lstsq(a, b, rcond=EPS)
    residual = np.linalg.norm(a @ ref - b)
    assert report.rank == rank == P - 2
    assert report.rows_used == b.size
    assert np.linalg.norm(report.solution - ref) <= 1e-12 * np.linalg.norm(ref)
    assert report.solution[list(system.columns).index(ZERO)] == 0.0
    assert abs(report.residual_norm - residual) <= 1e-10 * max(residual, np.linalg.norm(b))


@pytest.mark.parametrize("n", [C - 1, C, C + 1, 3 * C + 7])
def test_fits_at_chunk_boundaries_match_lstsq(n):
    # Full: n rows of one block.  Gathered: n rows by index out of n + 40.
    # Merged: a segment of n rows (its factor is reduced like a full fit)
    # beside one of 40, and 40 segments of n rows in all, whose stacked
    # factors need reducing again.
    full = shared_block([n], seed=n)
    extra = shared_block([n, 40], seed=n + 1)
    many = shared_block([n // 40 + (i < n % 40) for i in range(40)], seed=n + 2)
    rows = np.sort(np.random.default_rng(n).permutation(n + 40)[:n])
    everything = np.arange(n)
    for axis in "vr":
        assert_matches_lstsq(solve_least_squares(full[axis]), full[axis], everything)
        assert_matches_lstsq(solve_least_squares(extra[axis], rows), extra[axis], rows)
        assert_matches_lstsq(_solve_segments(extra[axis], {0}), extra[axis], everything)
        assert_matches_lstsq(_solve_segments(many[axis], set(range(40))), many[axis],
                             everything)


@pytest.fixture(scope="module")
def prepared_20k(tmp_path_factory, gt_dynamic):
    cfg = DiscreteGenConfig(steps=20000, kind="dynamic", n_segments=8, g0_scale=0.05, seed=1)
    path = tmp_path_factory.mktemp("discrete") / "prepared.csv"
    storage.write_prepared_csv(path, generate_discrete(gt_dynamic, cfg))
    return path


def test_factorizations_fit_one_chunk_and_gathered_fits_copy_no_rows(
    prepared_20k, tmp_path, monkeypatch, capsys
):
    # Every QR and lstsq that the estimator or the regressor blocks call sees
    # at most one chunk; a fit on a row subset allocates a quarter of the
    # sway/yaw matrix at most, so it never holds a gathered copy of it.
    entries = {"qr": [], "lstsq": []}

    def spy(name, fn):
        def call(a, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] in ("asvid.estimator", "asvid.regressors"):
                width = np.shape(a)[1]
                if name == "lstsq":
                    b = np.asarray(args[0] if args else kwargs["b"])
                    width += 1 if b.ndim == 1 else b.shape[1]
                entries[name].append(np.shape(a)[0] * width)
            return fn(a, *args, **kwargs)
        return call

    for name in entries:
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))

    peaks = []

    def traced_identify(kind, systems, h, rows=None, segments=None):
        if rows is None:
            return identify_from_systems(kind, systems, h, segments=segments)
        tracemalloc.start()
        try:
            return identify_from_systems(kind, systems, h, rows=rows)
        finally:
            peaks.append((tracemalloc.get_traced_memory()[1],
                          max(s.block.matrix.nbytes for s in systems.values())))
            tracemalloc.stop()

    monkeypatch.setattr(validate, "identify_from_systems", traced_identify)
    common = ["--prepared", str(prepared_20k), "--kind", "dynamic"]
    assert cli.main(["identify", *common, "--out", str(tmp_path / "identify")]) == 0
    for method in ("by_points", "by_segments"):
        assert cli.main(["validate", *common, "--method", method, "--sensitivity", "3",
                         "--sweep", "0.7,0.6", "--out", str(tmp_path / method)]) == 0
    capsys.readouterr()
    assert entries["qr"] and entries["lstsq"]
    assert max(entries["qr"] + entries["lstsq"]) <= _CHUNK_ENTRIES
    # by_points: the main split, 3 repetitions, 2 sweep fractions; by_segments: the sweep.
    assert len(peaks) == 6 + 2
    assert all(peak <= 0.25 * nbytes for peak, nbytes in peaks), peaks
