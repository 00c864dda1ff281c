import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asvid.dataprep import PreparedDataset
from asvid.errors import DataError
from asvid.model import OperatingRegion, classify_regions
from asvid.oracle import (
    DiscreteGenConfig,
    default_ground_truth,
    generate_discrete,
    known_params_to_X,
    prbs_frames,
)
from asvid.regressors import TERMS, RegressionSystem, build_systems

H = 0.2


def make_segment(u, v, r, mean, diff, segment_id=0):
    """The columns of one segment, one row per entry of ``u``."""
    u = np.asarray(u, dtype=float)
    mean = np.asarray(mean, dtype=float)
    diff = np.asarray(diff, dtype=float)
    return dict(
        segment=np.full(u.size, segment_id),
        t=H * np.arange(u.size),
        u=u,
        v=np.asarray(v, dtype=float),
        r=np.asarray(r, dtype=float),
        delta_mean=mean,
        delta_diff=diff,
        region=classify_regions(mean + diff / 2.0, mean - diff / 2.0),
    )


def dataset(*segments):
    return PreparedDataset(H, **{name: np.concatenate([s[name] for s in segments])
                                 for name in segments[0]})


def row_of(ds):
    """(segment id, k) -> the dataset row, built from the columns one row at a time."""
    return {(sid, k): i for i, (sid, k) in enumerate(zip(ds.segment.tolist(), ds.k.tolist()))}


def with_ff(seg):
    """``seg`` plus an all-FF segment (id 1), so every axis has rows."""
    ff = make_segment(u=[0.1] * 3, v=[0.0] * 3, r=[0.0] * 3, mean=[0.5] * 3, diff=[0.0] * 3,
                      segment_id=1)
    return dataset(seg, ff)


def rows_of(sys, segment_id=0):
    return sys.a[sys.segment == segment_id]


class TestRegionMask:
    def test_rr_never_allowed(self):
        seg = make_segment(u=[0.1] * 4, v=[0.1] * 4, r=[0.1] * 4, mean=[-0.5] * 4, diff=[0.0] * 4)
        for kind in ("static", "dynamic"):
            for sys in build_systems(with_ff(seg), kind).values():
                assert 0 not in sys.segment


class TestStaticSurgeRows:
    def test_row_by_substitution(self):
        seg = make_segment(u=[1.0, 1.2], v=[0.0, 0.0], r=[0.0, 0.0], mean=[0.5, 0.5], diff=[0.0, 0.0])
        sys = build_systems(dataset(seg), "static")["u"]
        assert sys.n_rows == 1
        assert np.allclose(sys.a[0], [1.0, 0.0, 0.0, 1.0, 1.0, 0.25, 0.5], atol=1e-15)
        assert sys.b[0] == pytest.approx(0.2)
        assert sys.segment.tolist() == [0] and sys.k.tolist() == [0]

    def test_zero_state_leaves_bias_column(self):
        seg = make_segment(u=[0.0, 0.0], v=[0.0, 0.0], r=[0.0, 0.0], mean=[0.0, 0.0], diff=[0.0, 0.0])
        sys = build_systems(dataset(seg), "static")["u"]
        assert np.array_equal(sys.a[0], [0, 0, 0, 0, 1, 0, 0])

    def test_only_ff_rows(self):
        seg = make_segment(
            u=[1.0, 1.0, 1.0, 1.0],
            v=[0.0] * 4,
            r=[0.0] * 4,
            mean=[0.5, 0.1, 0.1, 0.5],
            diff=[0.0, 0.9, -0.9, 0.0],  # FR and RF in the middle
        )
        sys = build_systems(dataset(seg), "static")["u"]
        # k=1,2 are split-region and k=3 has no successor: only k=0 survives
        assert sys.k.tolist() == [0]
        assert sys.n_skipped == 2

    def test_all_rr_errors(self):
        seg = make_segment(u=[1.0, 1.0], v=[0.0, 0.0], r=[0.0, 0.0], mean=[-0.5, -0.5], diff=[0.0, 0.0])
        with pytest.raises(DataError, match="static u"):
            build_systems(dataset(seg), "static")


class TestStaticSwayYawRows:
    def test_fr_row_by_substitution(self):
        seg = make_segment(u=[0.0, 0.0], v=[0.0, 0.1], r=[0.0, 0.0], mean=[0.4, 0.4], diff=[1.0, 1.0])
        sys = build_systems(with_ff(seg), "static")["v"]
        row = rows_of(sys)[0]
        expected = np.zeros(13)
        expected[8] = 1.0
        expected[9] = 0.4**2 + 0.25  # 0.41
        expected[10] = 0.4
        expected[11] = 0.4
        expected[12] = 0.5
        assert np.allclose(row, expected, atol=1e-15)
        assert sys.b[sys.segment == 0][0] == pytest.approx(0.1)

    def test_ff_zeroes_signed_columns(self, rng):
        n = 50
        mean = rng.uniform(0.1, 0.4, size=n)
        diff = rng.uniform(-0.15, 0.15, size=n)  # always FF
        seg = make_segment(
            u=rng.normal(size=n), v=rng.normal(size=n), r=rng.normal(size=n), mean=mean, diff=diff
        )
        sys = build_systems(dataset(seg), "static")["v"]
        assert np.all(sys.a[:, 9] == 0.0)
        assert np.all(sys.a[:, 11] == 0.0)
        # the unsigned thrust columns survive
        assert np.any(sys.a[:, 10] != 0.0)

    def test_rf_row_is_fr_row_with_flipped_signed_columns(self):
        state = dict(u=[0.3, 0.3], v=[0.1, 0.1], r=[-0.2, -0.2])
        fr = make_segment(**state, mean=[0.2, 0.2], diff=[0.9, 0.9])
        rf = make_segment(**state, mean=[0.2, 0.2], diff=[-0.9, -0.9])
        row_fr = rows_of(build_systems(with_ff(fr), "static")["r"])[0]
        row_rf = rows_of(build_systems(with_ff(rf), "static")["r"])[0]
        flipped = row_fr.copy()
        flipped[9] *= -1
        flipped[11] *= -1
        # mirroring diff also flips the two unsigned diff-carrying columns
        flipped[10] *= -1
        flipped[12] *= -1
        assert np.allclose(row_rf, flipped, atol=1e-15)

    def test_unknown_kind_rejected(self):
        seg = make_segment(u=[0, 0], v=[0, 0], r=[0, 0], mean=[0.2, 0.2], diff=[0, 0])
        with pytest.raises(ValueError):
            build_systems(dataset(seg), "quadratic")


class TestDynamicSurgeRows:
    def test_row_by_substitution(self):
        seg = make_segment(
            u=[1.0, 1.0, 1.0], v=[0.0] * 3, r=[0.0] * 3, mean=[0.5] * 3, diff=[0.0] * 3
        )
        sys = build_systems(dataset(seg), "dynamic")["u"]
        assert sys.n_rows == 1
        assert np.allclose(sys.a[0], [1, 1, 0, 0, 1, 1, 0, 0, 1, 0.25, 0.5], atol=1e-15)
        assert sys.segment.tolist() == [0] and sys.k.tolist() == [1]

    def test_needs_all_three_neighbors(self):
        seg = make_segment(u=[1.0, 1.0], v=[0, 0], r=[0, 0], mean=[0.5, 0.5], diff=[0, 0])
        with pytest.raises(DataError, match="dynamic u"):
            build_systems(dataset(seg), "dynamic")

    def test_first_two_samples_produce_no_row(self, ds_dynamic):
        sys = build_systems(ds_dynamic, "dynamic")["u"]
        assert np.all(sys.k >= 1)

    def test_requires_ff_at_both_steps(self):
        seg = make_segment(
            u=[1.0] * 4, v=[0.0] * 4, r=[0.0] * 4,
            mean=[0.5, 0.1, 0.5, 0.5], diff=[0.0, 0.9, 0.0, 0.0],
        )
        # k=1 is FR, which poisons both candidate rows (k=1 and k=2)
        with pytest.raises(DataError, match="dynamic u"):
            build_systems(dataset(seg), "dynamic")

    def test_mixed_region_transitions_excluded(self):
        seg = make_segment(
            u=[1.0] * 5, v=[0.0] * 5, r=[0.0] * 5,
            mean=[0.5, 0.5, 0.5, 0.5, 0.5], diff=[0.0] * 5,
        )
        sys = build_systems(dataset(seg), "dynamic")["u"]
        assert sys.n_rows == 3  # k = 1, 2, 3


class TestDynamicSwayYawRows:
    def test_ff_at_previous_step_zeroes_signed_columns(self, rng):
        n = 60
        seg = make_segment(
            u=rng.normal(size=n), v=rng.normal(size=n), r=rng.normal(size=n),
            mean=rng.uniform(0.2, 0.4, size=n), diff=rng.uniform(-0.2, 0.2, size=n),
        )
        sys = build_systems(dataset(seg), "dynamic")["v"]
        assert sys.n_rows > 0
        assert np.all(sys.a[:, 17] == 0.0)
        assert np.all(sys.a[:, 19] == 0.0)

    def test_zero_state_leaves_bias_column(self):
        seg = make_segment(u=[0.0] * 3, v=[0.0] * 3, r=[0.0] * 3, mean=[0.0] * 3, diff=[0.0] * 3)
        sys = build_systems(dataset(seg), "dynamic")["r"]
        expected = np.zeros(21)
        expected[16] = 1.0
        assert np.array_equal(sys.a[0], expected)

    def test_v_and_r_share_rows(self, ds_dynamic):
        systems = build_systems(ds_dynamic, "dynamic")
        assert np.array_equal(systems["v"].segment, systems["r"].segment)
        assert np.array_equal(systems["v"].k, systems["r"].k)

    def test_own_and_other_columns_swap(self, ds_dynamic):
        systems = build_systems(ds_dynamic, "dynamic")
        sys_v, sys_r = systems["v"], systems["r"]
        # column 1 is the own axis at k, column 16 the other one
        assert np.array_equal(sys_v.a[:, 0], sys_r.a[:, 15])
        assert np.array_equal(sys_v.a[:, 15], sys_r.a[:, 0])

    def test_mixed_region_rows_excluded(self, ds_dynamic):
        row = row_of(ds_dynamic)
        region = ds_dynamic.region
        sys = build_systems(ds_dynamic, "dynamic")["v"]
        for sid, k in zip(sys.segment.tolist(), sys.k.tolist()):
            i = row[sid, k]
            assert row[sid, k - 1] == i - 1
            assert region[i] == region[i - 1]
            assert region[i] != OperatingRegion.RR


class TestAgainstGenerator:
    def test_static_rows_exactly_consistent(self, gt_static, ds_static):
        x = known_params_to_X(gt_static, "static")
        for axis, sys in build_systems(ds_static, "static").items():
            residual = np.max(np.abs(sys.a @ x[axis] - sys.b))
            assert residual < 1e-10

    def test_dynamic_rows_exactly_consistent(self, gt_dynamic, ds_dynamic):
        x = known_params_to_X(gt_dynamic, "dynamic")
        for axis, sys in build_systems(ds_dynamic, "dynamic").items():
            residual = np.max(np.abs(sys.a @ x[axis] - sys.b))
            assert residual < 1e-10

    def test_column_counts(self, ds_static, ds_dynamic):
        # the paper's 7/13/13 static and 11/21/21 dynamic vectors
        paper = {"static": (7, 13, 13), "dynamic": (11, 21, 21)}
        for kind, ds in (("static", ds_static), ("dynamic", ds_dynamic)):
            systems = build_systems(ds, kind)
            assert tuple(systems[axis].n_cols for axis in "uvr") == paper[kind]
            assert tuple(len(TERMS[(kind, axis)]) for axis in "uvr") == paper[kind]

    def test_wrong_column_count_rejected(self, ds_static):
        sys = build_systems(ds_static, "static")["r"]
        with pytest.raises(DataError, match=r"static/r system must have 13 columns, got shape"):
            RegressionSystem(sys.block, sys.slot, sys.columns[:-1], "static", "r", sys.base)

    def test_row_provenance_valid(self, ds_static):
        row = row_of(ds_static)
        region = ds_static.region
        for axis, sys in build_systems(ds_static, "static").items():
            for sid, k in zip(sys.segment.tolist(), sys.k.tolist()):
                i = row[sid, k]
                assert row[sid, k + 1] == i + 1  # successor exists
                if axis == "u":
                    assert region[i] == OperatingRegion.FF
                else:
                    assert region[i] != OperatingRegion.RR

    def test_no_rr_rows(self, rng):
        # force a schedule with reverse-reverse steps in the middle
        steps = 40
        mean = np.full(steps, 0.3)
        diff = np.zeros(steps)
        mean[10:20] = -0.5  # RR block
        seg = make_segment(
            u=rng.normal(size=steps) * 0.1,
            v=rng.normal(size=steps) * 0.1,
            r=rng.normal(size=steps) * 0.1,
            mean=mean,
            diff=diff,
        )
        ds = dataset(seg)
        for axis, sys in build_systems(ds, "static").items():
            assert not np.any((sys.k >= 10) & (sys.k < 20))
            assert sys.n_skipped > 0

    def test_linearity_in_parameters(self, ds_static, rng):
        sys = build_systems(ds_static, "static")["v"]
        for _ in range(20):
            x1 = rng.normal(size=13)
            x2 = rng.normal(size=13)
            lhs = sys.a @ (x1 + x2)
            rhs = sys.a @ x1 + sys.a @ x2
            assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=80, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**16),
    n_segments=st.integers(1, 8),
    kind=st.sampled_from(["static", "dynamic"]),
    reverse=st.lists(st.sampled_from([-0.6, -0.3, -0.1]), min_size=1, max_size=2, unique=True),
    forward=st.lists(st.sampled_from([0.1, 0.8]), max_size=2, unique=True),
)
def test_generator_rows_exact_in_class(seed, n_segments, kind, reverse, forward):
    # Negative mean levels give reverse-reverse steps; the 0.35 level with the
    # default +-0.9 differences gives FR and RF steps.
    gt = default_ground_truth(dynamic=kind == "dynamic", alpha=0.9)
    steps = 600
    cfg = DiscreteGenConfig(
        steps=steps, kind=kind, seed=seed, n_segments=n_segments,
        schedule=prbs_frames(steps, seed, mean_levels=(*reverse, 0.35, *forward)),
        g0_scale=0.05 if kind == "dynamic" else 0.0,
    )
    x = known_params_to_X(gt, kind)
    for axis, sys in build_systems(generate_discrete(gt, cfg), kind).items():
        assert np.max(np.abs(sys.a @ x[axis] - sys.b)) < 1e-10
