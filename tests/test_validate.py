from dataclasses import asdict

import numpy as np
import pytest

from asvid.dataprep import PreparedDataset
from asvid.errors import DataError
from asvid.estimator import IdentifiedModel, identify_from_systems
from asvid.oracle import DiscreteGenConfig, generate_discrete, known_params_to_X
from asvid.regressors import RegressionSystem, RowBlock, build_systems
from asvid import validate
from asvid.validate import (
    PartitionSpec,
    _split_points,
    evaluate,
    fit_split,
    mae,
    partition,
    prediction_traces,
    r_squared,
    sensitivity_study,
    training_fraction_sweep,
)

H = 0.2


def fake_systems(n_u: int, n_vr: int, n_segments: int = 1):
    """Minimal static system triple with the given row counts; sway and yaw
    share one block, as :func:`build_systems` builds them."""

    def block(n, cols, n_rhs):
        per = max(n // n_segments, 1)
        segment = np.minimum(np.arange(n) // per, n_segments - 1)
        return RowBlock(np.ones((n, cols)), np.zeros((n_rhs, n)), segment, np.arange(n))

    u, vr = block(n_u, 7, 1), block(n_vr, 13, 2)
    return {
        "u": RegressionSystem(u, 0, np.arange(7), "static", "u", np.zeros(n_u)),
        **{axis: RegressionSystem(vr, slot, np.arange(13), "static", axis, np.zeros(n_vr))
           for slot, axis in enumerate("vr")},
    }


def fake_dataset(segment_lengths):
    """At-rest segments of the given lengths, each starting 5 steps after the last one ends."""
    segment = np.repeat(np.arange(len(segment_lengths)), segment_lengths)
    n = segment.size
    return PreparedDataset(
        H, segment, t=H * (np.arange(n) + 4 * segment), u=np.zeros(n), v=np.zeros(n),
        r=np.zeros(n), delta_mean=np.full(n, 0.3), delta_diff=np.zeros(n),
        region=np.zeros(n, dtype=np.int8),
    )


class TestPartitionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionSpec("by_rows", 0.7, 0)
        with pytest.raises(ValueError):
            PartitionSpec("by_points", 1.0, 0)


class TestPartitionByPoints:
    def test_sizes_at_paper_scale(self):
        systems = fake_systems(16025, 16025)
        split = partition(fake_dataset([10, 10]), PartitionSpec("by_points", 0.7, 1), systems=systems)
        # 0.7 * 16025 = 11217.5 rounds to the nearest even count
        assert abs(split.train["u"].size - 11218) <= 1
        assert split.train["u"].size + split.val["u"].size == 16025

    def test_disjoint_and_covering(self, rng):
        systems = fake_systems(503, 1201)
        for seed in rng.integers(0, 10000, size=20):
            split = partition(
                fake_dataset([10, 10]), PartitionSpec("by_points", 0.61, int(seed)), systems=systems
            )
            for axis, n in (("u", 503), ("v", 1201), ("r", 1201)):
                merged = np.concatenate([split.train[axis], split.val[axis]])
                assert np.array_equal(np.sort(merged), np.arange(n))

    def test_deterministic(self):
        systems = fake_systems(400, 700)
        ds = fake_dataset([10])
        s1 = partition(ds, PartitionSpec("by_points", 0.7, 42), systems=systems)
        s2 = partition(ds, PartitionSpec("by_points", 0.7, 42), systems=systems)
        assert np.array_equal(s1.train["u"], s2.train["u"])
        assert np.array_equal(s1.train["v"], s2.train["v"])

    def test_sway_yaw_share_split(self):
        systems = fake_systems(100, 300)
        split = partition(fake_dataset([10]), PartitionSpec("by_points", 0.5, 7), systems=systems)
        assert np.array_equal(split.train["v"], split.train["r"])

    def test_blocks_draw_in_axis_order(self, ds_static):
        # One draw per block, surge first; sway and yaw read the second one.
        systems = build_systems(ds_static, "static")
        assert systems["u"].n_rows != systems["v"].n_rows
        split = partition(ds_static, PartitionSpec("by_points", 0.7, 11), systems=systems)
        rng = np.random.default_rng(11)
        surge = _split_points(systems["u"].n_rows, 0.7, rng)
        swayyaw = _split_points(systems["v"].n_rows, 0.7, rng)
        for axis, (train, val) in (("u", surge), ("v", swayyaw), ("r", swayyaw)):
            assert np.array_equal(split.train[axis], train)
            assert np.array_equal(split.val[axis], val)

    def test_empty_side_rejected(self):
        systems = fake_systems(3, 3)
        with pytest.raises(DataError):
            partition(fake_dataset([4]), PartitionSpec("by_points", 0.01, 0), systems=systems)


class TestPartitionBySegments:
    def test_ten_equal_segments(self):
        ds = fake_dataset([50] * 10)
        systems = build_systems(ds, "static")
        split = partition(ds, PartitionSpec("by_segments", 0.7, 3), systems=systems)
        assert len(split.train_segments) == 7
        assert len(split.val_segments) == 3
        assert split.realized_train_fraction == pytest.approx(0.7, abs=0.02)

    def test_rows_follow_segments(self):
        ds = fake_dataset([30, 40, 50, 60])
        systems = build_systems(ds, "static")
        split = partition(ds, PartitionSpec("by_segments", 0.5, 5), systems=systems)
        for axis in ("u", "v", "r"):
            sys = systems[axis]
            for i in split.train[axis]:
                assert sys.segment[i] in split.train_segments
            for i in split.val[axis]:
                assert sys.segment[i] in split.val_segments

    def test_sway_yaw_share_split(self, ds_static):
        systems = build_systems(ds_static, "static")
        split = partition(ds_static, PartitionSpec("by_segments", 0.5, 2), systems=systems)
        assert np.array_equal(split.train["v"], split.train["r"])
        assert np.array_equal(split.val["v"], split.val["r"])

    def test_needs_two_segments(self):
        ds = fake_dataset([100])
        systems = build_systems(ds, "static")
        with pytest.raises(DataError):
            partition(ds, PartitionSpec("by_segments", 0.7, 0), systems=systems)

    def test_deterministic(self):
        ds = fake_dataset([30, 40, 50, 60, 70])
        systems = build_systems(ds, "static")
        s1 = partition(ds, PartitionSpec("by_segments", 0.6, 9), systems=systems)
        s2 = partition(ds, PartitionSpec("by_segments", 0.6, 9), systems=systems)
        assert s1.train_segments == s2.train_segments


class TestMetrics:
    def test_r2_perfect_prediction(self, rng):
        x = rng.normal(size=50)
        assert r_squared(x, x) == 1.0

    def test_r2_mean_prediction_is_zero(self, rng):
        x = rng.normal(size=50)
        assert r_squared(x, np.full_like(x, x.mean())) == pytest.approx(0.0, abs=1e-12)

    def test_r2_hand_example(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5)

    def test_r2_constant_truth_rejected(self):
        with pytest.raises(ValueError):
            r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_r2_length_contract(self):
        with pytest.raises(ValueError):
            r_squared([1.0], [1.0])
        with pytest.raises(ValueError):
            r_squared([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_mae_identical(self, rng):
        x = rng.normal(size=30)
        assert mae(x, x) == 0.0

    def test_mae_hand_example(self):
        truth = np.zeros(3)
        pred = np.array([-0.1, 0.1, -0.2])
        assert mae(truth, pred) == pytest.approx(0.4 / 3.0)

    def test_mae_against_direct_sum(self, rng):
        for _ in range(50):
            a = rng.normal(size=101)
            b = rng.normal(size=101)
            direct = sum(abs(x - y) for x, y in zip(a, b)) / 101.0
            assert abs(mae(a, b) - direct) < 1e-15

    def test_mae_symmetric_r2_not(self, rng):
        a = rng.normal(size=64)
        b = a + rng.normal(size=64) * 0.3
        assert mae(a, b) == mae(b, a)
        assert r_squared(a, b) != r_squared(b, a)

    def test_mae_empty_rejected(self):
        with pytest.raises(ValueError):
            mae([], [])


class TestPredictors:
    def test_zero_model_is_persistence(self, ds_static):
        systems = build_systems(ds_static, "static")
        model = IdentifiedModel(
            kind="static", surge=np.zeros(7), sway=np.zeros(13), yaw=np.zeros(13)
        )
        metrics = evaluate(model, systems)
        for axis in ("u", "v", "r"):
            sys = systems[axis]
            # persistence predicts nu(k+1) = nu(k): the error is the increment b
            assert metrics.mae[axis] == pytest.approx(np.mean(np.abs(sys.b)), rel=1e-12)
            truth = sys.base + sys.b
            persistence = 1.0 - np.sum(sys.b**2) / np.sum((truth - truth.mean()) ** 2)
            assert metrics.r2[axis] == pytest.approx(persistence, rel=1e-12)

    def test_exact_on_generator_data(self, gt_static, ds_static):
        x = known_params_to_X(gt_static, "static")
        systems = build_systems(ds_static, "static")
        model = IdentifiedModel(kind="static", surge=x["u"], sway=x["v"], yaw=x["r"])
        traces = prediction_traces(model, systems, ds_static)
        assert max(abs(truth - pred) for _, _, truth, pred in traces) < 1e-12

    def test_exact_dynamic_prediction(self, gt_dynamic, ds_dynamic):
        x = known_params_to_X(gt_dynamic, "dynamic")
        systems = build_systems(ds_dynamic, "dynamic")
        model = IdentifiedModel(
            kind="dynamic", surge=x["u"], sway=x["v"], yaw=x["r"], alpha=0.9
        )
        traces = prediction_traces(model, systems, ds_dynamic)
        assert max(abs(truth - pred) for _, _, truth, pred in traces) < 1e-12

    def test_trace_times_stamp_the_predicted_step(self, gt_static):
        # Segment ids out of order and not 0..n-1: each trace time is the
        # time of the row's (segment, k) plus one step.
        cfg = DiscreteGenConfig(steps=300, kind="static", seed=2, n_segments=3)
        gen = generate_discrete(gt_static, cfg)
        cols = gen.columns()
        del cols["k"]
        cols["segment"] = np.array([9, 4, 6])[cols["segment"]]
        ds = PreparedDataset(gen.h, **cols)
        systems = build_systems(ds, "static")
        t_of = {(sid, k): t for sid, k, t in zip(ds.segment.tolist(), ds.k.tolist(), ds.t.tolist())}
        model = IdentifiedModel(kind="static", surge=np.zeros(7), sway=np.zeros(13),
                                yaw=np.zeros(13))
        got = [(axis, t) for t, axis, _, _ in prediction_traces(model, systems, ds)]
        want = sorted(
            (axis, t_of[sid, k] + ds.h)
            for axis, sys in systems.items()
            for sid, k in zip(sys.segment.tolist(), sys.k.tolist())
        )
        assert got == want

    def test_kind_mismatch_rejected(self, ds_static):
        systems = build_systems(ds_static, "static")
        model = IdentifiedModel(
            kind="dynamic", surge=np.zeros(11), sway=np.zeros(21), yaw=np.zeros(21), alpha=0.9
        )
        with pytest.raises(ValueError, match="dynamic model cannot predict on a static system"):
            evaluate(model, systems)
        static_model = IdentifiedModel(
            kind="static", surge=np.zeros(7), sway=np.zeros(13), yaw=np.zeros(13)
        )
        with pytest.raises(ValueError, match="static model cannot predict on a dynamic system"):
            evaluate(static_model, build_systems(ds_static, "dynamic"))

    def test_perfect_prediction_gives_unit_r2(self, gt_static, ds_static):
        x = known_params_to_X(gt_static, "static")
        systems = build_systems(ds_static, "static")
        model = IdentifiedModel(kind="static", surge=x["u"], sway=x["v"], yaw=x["r"])
        metrics = evaluate(model, systems)
        for axis in ("u", "v", "r"):
            assert metrics.r2[axis] == pytest.approx(1.0, abs=1e-12)


def validate_split(ds, kind, spec):
    """Partition, fit on the training side, evaluate the validation side."""
    systems = build_systems(ds, kind)
    split = partition(ds, spec, kind, systems=systems)
    model = fit_split(kind, systems, ds.h, split)
    return evaluate(model, systems, split.val, {**split.describe(), "side": "validation"})


class TestRunValidation:
    """The validate command's flow: partition, fit the training side, evaluate."""

    def test_in_class_data_validates_perfectly(self, ds_static):
        val_m = validate_split(ds_static, "static", PartitionSpec("by_points", 0.7, 2))
        for axis in ("u", "v", "r"):
            assert val_m.r2[axis] > 1 - 1e-9
            assert val_m.mae[axis] < 1e-9
        assert val_m.partition["side"] == "validation"

    def test_by_segments_flow(self, ds_static):
        val_m = validate_split(ds_static, "static", PartitionSpec("by_segments", 0.5, 4))
        assert val_m.r2["u"] > 1 - 1e-9

    def test_fit_split_merges_segment_splits_only(self, ds_static):
        systems = build_systems(ds_static, "static")
        points = partition(ds_static, PartitionSpec("by_points", 0.7, 1), "static", systems)
        segments = partition(ds_static, PartitionSpec("by_segments", 0.5, 1), "static", systems)
        pairs = [
            (fit_split("static", systems, H, points),
             identify_from_systems("static", systems, H, rows=points.train)),
            (fit_split("static", systems, H, segments),
             identify_from_systems("static", systems, H, segments=segments.train_segments)),
        ]
        for got, want in pairs:
            for axis in ("u", "v", "r"):
                assert got.vector(axis).tobytes() == want.vector(axis).tobytes()
        rows_used = pairs[1][0].metadata["rows_used"]
        assert rows_used == {axis: rows.size for axis, rows in segments.train.items()}

    def test_traces_row_count(self, ds_static):
        systems = build_systems(ds_static, "static")
        model = identify_from_systems("static", systems, ds_static.h)
        metrics = evaluate(model, systems)
        traces = prediction_traces(model, systems, ds_static)
        assert len(traces) == sum(metrics.evaluated.values())


class TestSensitivity:
    def test_identical_runs_have_zero_sd(self, ds_static):
        # two evaluations under the same seed are bit-identical
        systems = build_systems(ds_static, "static")
        spec = PartitionSpec("by_points", 0.7, 123)
        values = []
        for _ in range(2):
            split = partition(ds_static, spec, systems=systems)
            model = identify_from_systems("static", systems, ds_static.h, rows=split.train)
            metrics = evaluate(model, systems, split.val)
            values.append(metrics.r2["u"])
        assert np.std(values, ddof=1) == 0.0

    def test_noise_free_study_tiny_sd(self, ds_static):
        report = sensitivity_study(ds_static, "static", PartitionSpec("by_points", 0.7, 0), 20)
        for axis in ("u", "v", "r"):
            assert report.sd_r2[axis] < 1e-3
            assert report.mean_r2[axis] > 0.999

    def test_deterministic_given_base_seed(self, ds_static):
        r1 = sensitivity_study(ds_static, "static", PartitionSpec("by_points", 0.6, 5), 3)
        r2 = sensitivity_study(ds_static, "static", PartitionSpec("by_points", 0.6, 5), 3)
        assert asdict(r1) == asdict(r2)

    def test_repetition_count_validated(self, ds_static):
        with pytest.raises(ValueError):
            sensitivity_study(ds_static, "static", PartitionSpec("by_points", 0.7, 0), 1)

    def test_by_segments_matches_gathered_fits(self, gt_dynamic):
        # Noisy 8-segment data, so the fits and metrics are not trivially exact.
        cfg = DiscreteGenConfig(steps=3000, kind="dynamic", seed=11, n_segments=8,
                                g0_scale=0.05, noise_std=(0.01, 0.005, 0.005))
        ds = generate_discrete(gt_dynamic, cfg)
        systems = build_systems(ds, "dynamic")
        report = sensitivity_study(ds, "dynamic", PartitionSpec("by_segments", 0.6, 3), 6,
                                   systems=systems)
        r2s, maes = {a: [] for a in "uvr"}, {a: [] for a in "uvr"}
        for rep in range(6):
            split = partition(ds, PartitionSpec("by_segments", 0.6, 3 + rep), "dynamic", systems)
            model = identify_from_systems("dynamic", systems, ds.h, rows=split.train)
            metrics = evaluate(model, systems, split.val)
            for axis in "uvr":
                r2s[axis].append(metrics.r2[axis])
                maes[axis].append(metrics.mae[axis])
        expected = {
            "mean_r2": {a: np.mean(v) for a, v in r2s.items()},
            "sd_r2": {a: np.std(v, ddof=1) for a, v in r2s.items()},
            "mean_mae": {a: np.mean(v) for a, v in maes.items()},
            "sd_mae": {a: np.std(v, ddof=1) for a, v in maes.items()},
        }
        got = asdict(report)
        for stat, per_axis in expected.items():
            for axis, want in per_axis.items():
                assert abs(got[stat][axis] - want) <= 1e-12 * max(1.0, abs(want)), (stat, axis)
        assert all(report.sd_r2[a] > 0 for a in "uvr")

    def test_failure_carries_repetition_context(self, gt_static):
        cfg = DiscreteGenConfig(steps=40, kind="static", seed=1)
        tiny = generate_discrete(gt_static, cfg)
        with pytest.raises(RuntimeError, match="repetition"):
            sensitivity_study(tiny, "static", PartitionSpec("by_points", 0.03, 0), 2)


class TestTrainingFractionSweep:
    def test_single_fraction_on_synthetic(self, ds_static):
        rows = training_fraction_sweep(ds_static, "static", fractions=(0.7,), seed=1)
        assert len(rows) == 1
        entry = rows[0]
        for axis in ("u", "v", "r"):
            assert entry["validation"].r2[axis] > 0.999

    def test_fixed_validation_share(self, ds_static):
        rows = training_fraction_sweep(ds_static, "static", fractions=(0.7, 0.5), seed=1)
        v0 = rows[0]["validation"].evaluated
        v1 = rows[1]["validation"].evaluated
        assert v0 == v1  # same held-out rows across fractions
        assert rows[0]["train"].evaluated["u"] > rows[1]["train"].evaluated["u"]

    def test_sway_yaw_share_rows(self, ds_static, monkeypatch):
        seen = []

        def spy(model, systems, rows, info):
            seen.append(rows)
            return evaluate(model, systems, rows, info)

        monkeypatch.setattr(validate, "evaluate", spy)
        training_fraction_sweep(ds_static, "static", fractions=(0.7, 0.5), seed=4)
        assert len(seen) == 4  # train and validation of each fraction
        for rows in seen:
            assert np.array_equal(rows["v"], rows["r"])
        assert not np.array_equal(seen[0]["u"], seen[0]["v"])

    def test_shares_filling_all_rows_survive_rounding(self, gt_static):
        # 25 rows per system: 0.3 -> 7.5 -> 8 and 0.7 -> 17.5 -> 18 would need 26 rows.
        rng = np.random.default_rng(0)
        schedule = np.column_stack([rng.uniform(0.3, 0.8, 26), rng.uniform(-0.4, 0.4, 26)])
        cfg = DiscreteGenConfig(steps=26, kind="static", schedule=schedule)
        ds = generate_discrete(gt_static, cfg)
        (entry,) = training_fraction_sweep(ds, "static", fractions=(0.7,))
        for axis in ("u", "v", "r"):
            assert entry["validation"].evaluated[axis] == 8
            assert entry["train"].evaluated[axis] == 17

    def test_infeasible_shares_rejected(self, ds_static):
        with pytest.raises(ValueError):
            training_fraction_sweep(ds_static, "static", fractions=(0.8,))
