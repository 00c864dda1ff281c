"""Sway and yaw share one regressor block: its one solve against per-axis references."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asvid import storage
from asvid.cli import main
from asvid.estimator import identify_from_systems
from asvid.model import REGION_SIGN
from asvid.oracle import DiscreteGenConfig, default_ground_truth, generate_discrete, prbs_frames
from asvid.regressors import TERMS, RegressionSystem, build_systems

EPS = np.finfo(float).eps


@st.composite
def discrete_runs(draw):
    """A generator run, static or dynamic, on all four regions or forward-forward
    only, with an optional dead-zone truth (rows out of class) and optional noise."""
    kind = draw(st.sampled_from(["static", "dynamic"]))
    gt = default_ground_truth(dynamic=kind == "dynamic")
    if draw(st.booleans()):
        static = replace(gt.static_thrust, dead_zone_forward=draw(st.floats(0.02, 0.3)),
                         dead_zone_reverse=draw(st.floats(-0.3, -0.02)))
        gt = replace(gt, thrust=static if kind == "static"
                     else replace(gt.thrust, static_part=static))
    steps, seed = 600, draw(st.integers(0, 2**16))
    schedule = None
    if draw(st.booleans()):  # forward-forward only: the region-signed columns vanish
        schedule = prbs_frames(steps, seed, mean_levels=(0.3, 0.5, 0.7),
                               diff_levels=(-0.2, 0.0, 0.2))
    cfg = DiscreteGenConfig(
        steps=steps, kind=kind, seed=seed, schedule=schedule,
        n_segments=draw(st.integers(2, 6)),
        noise_std=draw(st.sampled_from([(0.0,) * 3, (0.01, 0.005, 0.005)])),
        g0_scale=0.05 if kind == "dynamic" else 0.0,
    )
    return generate_discrete(gt, cfg), kind, schedule is not None, draw(st.integers(0, 2**32 - 1))


def reference_system(ds, kind, axis, sys):
    """The axis' matrix from its own ``TERMS`` columns, and its right-hand side,
    on the dataset rows of the system's (segment, k)."""
    ids, starts = np.unique(ds.segment, return_index=True)
    i = starts[np.searchsorted(ids, sys.segment)] + sys.k

    def step(j):
        return SimpleNamespace(u=ds.u[j], v=ds.v[j], r=ds.r[j], mean=ds.delta_mean[j],
                               diff=ds.delta_diff[j], sign=REGION_SIGN[ds.region[j]])

    steps = [step(i), step(i - 1)]
    series = getattr(ds, axis)
    a = np.column_stack([t.column(steps[t.lag]) for t in TERMS[(kind, axis)]])
    return a, series[i + 1] - series[i]


def assert_matches_reference(report, a, b):
    ref, _, rank, sv = np.linalg.lstsq(a, b, rcond=EPS)
    residual = np.linalg.norm(a @ ref - b)
    assert report.rank == rank
    assert report.rows_used == a.shape[0]
    if sv[0] / sv[rank - 1] <= 1e6:
        assert np.linalg.norm(report.solution - ref) <= 1e-12 * np.linalg.norm(ref)
        scale = max(residual, np.linalg.norm(b))
        assert abs(report.residual_norm - residual) <= 1e-10 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(run=discrete_runs())
def test_shared_solve_matches_per_axis_lstsq(run):
    ds, kind, ff_only, seed = run
    systems = build_systems(ds, kind)
    if kind == "static":
        assert systems["r"].a is systems["v"].a
    else:
        assert systems["r"].block.matrix is systems["v"].block.matrix
    refs = {axis: reference_system(ds, kind, axis, sys) for axis, sys in systems.items()}
    for axis, sys in systems.items():
        assert np.array_equal(sys.a, refs[axis][0])
        assert np.array_equal(sys.b, refs[axis][1])

    rng = np.random.default_rng(seed)
    vr_rows = np.sort(rng.choice(systems["v"].n_rows, systems["v"].n_rows * 3 // 5, replace=False))
    rows = {"u": np.sort(rng.choice(systems["u"].n_rows, systems["u"].n_rows * 3 // 5,
                                    replace=False)), "v": vr_rows, "r": vr_rows}
    chosen = set(rng.choice(np.unique(ds.segment), 2, replace=False).tolist())
    fits = {
        "full": (identify_from_systems(kind, systems, ds.h), None),
        "gathered": (identify_from_systems(kind, systems, ds.h, rows=rows), rows),
        "merged": (identify_from_systems(kind, systems, ds.h, segments=chosen),
                   {axis: np.flatnonzero(np.isin(sys.segment, sorted(chosen)))
                    for axis, sys in systems.items()}),
    }
    for model, picked in fits.values():
        for axis, (a, b) in refs.items():
            idx = slice(None) if picked is None else picked[axis]
            assert_matches_reference(model.reports[axis], a[idx], b[idx])
    if ff_only and kind == "static":
        assert fits["full"][0].reports["v"].rank == 11


@pytest.mark.parametrize("command", [
    ["identify"],
    ["validate", "--method", "by_points", "--sensitivity", "2", "--sweep", "0.7"],
    ["validate", "--method", "by_segments", "--sensitivity", "2"],
    ["validate", "--model"],
])
def test_commands_never_copy_the_yaw_layout(command, tmp_path, ds_dynamic, monkeypatch, capsys):
    # Reading ``a`` of the dynamic yaw system copies the shared matrix; the
    # commands work on the blocks instead.
    prep, model = tmp_path / "prepared.csv", tmp_path / "model.json"
    storage.write_prepared_csv(prep, ds_dynamic)
    storage.write_model_file(model, identify_from_systems(
        "dynamic", build_systems(ds_dynamic, "dynamic"), ds_dynamic.h))

    def unread(system):
        raise AssertionError(f"read the {system.axis} matrix in its own layout")

    monkeypatch.setattr(RegressionSystem, "a", property(unread))
    extra = [str(model)] if command[-1] == "--model" else []
    argv = [*command, *extra, "--prepared", str(prep), "--kind", "dynamic",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    capsys.readouterr()
