import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from asvid.dataprep import (
    EARTH_RADIUS_M,
    GeoReference,
    PrepareConfig,
    PreparedDataset,
    RAW_STREAMS,
    PwmMapConfig,
    RawLogBundle,
    SavGolConfig,
    body_velocities_from_pose,
    build_prepared_dataset,
    denormalize_pwm,
    geodetic_to_ned,
    lever_arm_correct,
    ned_to_geodetic,
    normalize_pwm,
    resample_causal,
    savitzky_golay,
)
from asvid.errors import DataError
from asvid.oracle import (
    SensorNoise,
    emit_sensor_logs,
    prbs_frames,
    simulate_continuous,
    zoh_excitation,
)

REF = GeoReference(lat0=37.4, lon0=-6.0)


class TestGeodetic:
    def test_origin_maps_to_origin(self):
        assert geodetic_to_ned(REF.lat0, REF.lon0, REF) == (0.0, 0.0)

    def test_one_degree_north_arc_length(self):
        x, y = geodetic_to_ned(REF.lat0 + 1.0, REF.lon0, REF)
        assert x == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0, rel=1e-12)
        assert x == pytest.approx(111194.9266, abs=1e-3)
        assert y == 0.0

    def test_lon_offset_at_equator_matches_lat_offset(self):
        eq = GeoReference(lat0=0.0, lon0=0.0)
        x, _ = geodetic_to_ned(1.0, 0.0, eq)
        _, y = geodetic_to_ned(0.0, 1.0, eq)
        assert x == pytest.approx(y, rel=1e-12)

    def test_invalid_latitude(self):
        with pytest.raises(ValueError):
            geodetic_to_ned(91.0, 0.0, REF)

    def test_round_trip(self, rng):
        x = rng.uniform(-500, 500, size=50)
        y = rng.uniform(-500, 500, size=50)
        lat, lon = ned_to_geodetic(x, y, REF)
        x2, y2 = geodetic_to_ned(lat, lon, REF)
        assert np.allclose(x, x2, atol=1e-9)
        assert np.allclose(y, y2, atol=1e-9)


class TestLeverArm:
    def test_zero_offset(self):
        assert lever_arm_correct(3.0, 4.0, 1.2, (0.0, 0.0)) == (3.0, 4.0)

    def test_aligned_frames(self):
        x, y = lever_arm_correct(3.0, 4.0, 0.0, (1.0, 0.0))
        assert (x, y) == (2.0, 4.0)

    def test_quarter_turn(self):
        x, y = lever_arm_correct(3.0, 4.0, math.pi / 2, (1.0, 0.0))
        assert x == pytest.approx(3.0, abs=1e-12)
        assert y == pytest.approx(3.0, abs=1e-12)


class TestResampleCausal:
    def test_constant_stream(self):
        t = np.arange(0, 2, 0.02)
        vals, age = resample_causal(t, np.full_like(t, 3.5), np.arange(0.2, 1.8, 0.2))
        assert np.all(vals == 3.5)
        assert np.all(age < 0.02)

    def test_holds_newest_sample_at_or_before_grid_time(self):
        t = np.array([0.0, 0.3, 0.35, 1.0])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        grid = np.array([0.0, 0.2, 0.34, 0.6, 1.5])
        vals, age = resample_causal(t, y, grid)
        assert vals.tolist() == [1.0, 1.0, 2.0, 3.0, 4.0]
        assert np.allclose(age, [0.0, 0.2, 0.04, 0.25, 0.5], rtol=0.0, atol=1e-12)

    def test_linear_ramp_exact(self):
        # The held value is the ramp at the held sample's stamp, grid - age.
        t = np.arange(0, 4, 0.03)
        grid = np.arange(0.4, 3.6, 0.2)
        vals, age = resample_causal(t, 2.0 * t - 1.0, grid)
        assert np.all((age > -1e-9) & (age < 0.03))
        assert np.allclose(vals, 2.0 * (grid - age) - 1.0, rtol=0.0, atol=1e-12)

    def test_slow_sine_error_bound(self):
        # A hold lags by at most one sample period: error <= max slope * 0.02 s.
        t = np.arange(0, 30, 0.02)
        y = np.sin(2 * math.pi * 0.1 * t)
        grid = np.arange(1.0, 29.0, 0.2) + 0.013
        vals, _ = resample_causal(t, y, grid)
        assert np.max(np.abs(vals - np.sin(2 * math.pi * 0.1 * grid))) <= 2 * math.pi * 0.1 * 0.02

    def test_before_first_sample(self):
        vals, age = resample_causal(np.array([1.0, 2.0]), np.array([5.0, 6.0]),
                                    np.array([0.0, 0.5, 1.0]))
        assert np.isnan(vals[:2]).all() and vals[2] == 5.0
        assert age.tolist() == [np.inf, np.inf, 0.0]

    def test_sample_within_stamp_tolerance_counts_as_past(self):
        # Near 1.7e9 s a grid time t0 + h*k carries ~1e-7 s of rounding; a raw
        # sample stamped that far after it is still the one the grid point holds.
        t0 = 1.7e9
        grid = t0 + 0.2 * np.arange(4)
        t = grid + np.array([0.0, 2.4e-7, 0.0, 0.0])
        vals, age = resample_causal(t, np.arange(4.0), grid)
        assert vals.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert np.all(np.abs(age) < 1e-6)
        # Beyond the tolerance the sample is in the future.
        vals, _ = resample_causal(grid + 1e-3, np.arange(4.0), grid)
        assert np.isnan(vals[0]) and vals[1:].tolist() == [0.0, 1.0, 2.0]

    def test_columns_held_together(self):
        t = np.arange(0, 1, 0.1)
        y = np.column_stack((t, -2 * t))
        grid = np.array([0.05, 0.15, 0.95])
        vals, age = resample_causal(t, y, grid)
        assert vals.shape == (3, 2)
        assert np.array_equal(vals, y[[0, 1, 9]])
        one, age_one = resample_causal(t, y[:, 1], grid)
        assert np.array_equal(one, vals[:, 1]) and np.array_equal(age_one, age)

    def test_causality_by_perturbation(self):
        t = np.arange(0, 10, 0.1)
        y = np.sin(t)
        grid = np.arange(1.0, 9.0, 0.2)
        base, _ = resample_causal(t, y, grid)
        y2 = y.copy()
        j = np.searchsorted(t, 5.0)
        y2[j] += 100.0
        pert, _ = resample_causal(t, y2, grid)
        before = grid < t[j] - 1e-12
        assert np.array_equal(base[before], pert[before])
        assert not np.array_equal(base[~before], pert[~before])

    def test_non_increasing_stamps_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            resample_causal(np.array([0.0, 1.0, 1.0]), np.arange(3.0), np.arange(3.0))

    @pytest.mark.parametrize("t", [[0.0, 0.2, np.nan, 0.6], [np.nan], [0.0, 0.2, np.inf]])
    def test_non_finite_stamps_rejected(self, t):
        # diff(t) <= 0 is False for NaN, so a NaN stamp used to be held.
        with pytest.raises(ValueError, match="t_raw must be finite and strictly increasing"):
            resample_causal(np.array(t), np.arange(float(len(t))), [0.1, 0.5])

    @pytest.mark.parametrize("rows", [5, 2])
    def test_one_row_per_stamp(self, rows):
        # A longer y_raw would be held silently; a shorter one failed deep in the indexing.
        with pytest.raises(ValueError, match=rf"shape \({rows},\) for 3 stamps"):
            resample_causal(np.arange(3.0), np.arange(float(rows)), [0.5, 2.5])


class TestSavitzkyGolay:
    @pytest.mark.parametrize("causal", [False, True])
    def test_constant_unchanged(self, causal):
        y = np.full(50, 2.5)
        out = savitzky_golay(y, SavGolConfig(11, 3), causal=causal)
        assert np.allclose(out, 2.5, atol=1e-12)

    @pytest.mark.parametrize("causal", [False, True])
    def test_linear_reproduced(self, causal):
        y = 0.7 * np.arange(80.0) - 3.0
        out = savitzky_golay(y, SavGolConfig(11, 3), causal=causal)
        assert np.max(np.abs(out - y)) < 1e-12 * max(1.0, np.max(np.abs(y)))

    @pytest.mark.parametrize("causal", [False, True])
    def test_cubic_reproduced(self, causal):
        x = np.linspace(-1, 1, 60)
        y = 2 * x**3 - x**2 + 0.5 * x - 1
        out = savitzky_golay(y, SavGolConfig(11, 3), causal=causal)
        assert np.max(np.abs(out - y)) < 1e-12

    @pytest.mark.parametrize("causal", [False, True])
    def test_noise_reduction_on_quadratic(self, causal, rng):
        x = np.linspace(0, 1, 400)
        clean = 2.0 * x**2 - x + 0.3
        noise = rng.normal(0, 0.05, size=x.size)
        out = savitzky_golay(clean + noise, SavGolConfig(11, 2), causal=causal)
        rms_in = np.sqrt(np.mean(noise**2))
        rms_out = np.sqrt(np.mean((out - clean) ** 2))
        assert rms_out < rms_in

    def test_too_short_signal(self):
        with pytest.raises(ValueError):
            savitzky_golay(np.zeros(5), SavGolConfig(11, 3))

    @pytest.mark.parametrize("w, order", [(5, 1), (7, 2), (11, 3), (21, 4)])
    @pytest.mark.parametrize("n", ["w", 50, 1000])
    def test_centered_matches_scipy_interp(self, w, order, n, rng):
        # Larger windows are left out: scipy's own kernel drifts from the exact
        # hat matrix there (2.4e-8 at w=51, order 6).
        signal_mod = pytest.importorskip("scipy.signal")
        n = w if n == "w" else n
        y = rng.normal(size=n) + np.linspace(0.0, 5.0, n)
        out = savitzky_golay(y, SavGolConfig(w, order))
        ref = signal_mod.savgol_filter(y, w, order, mode="interp")
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_centered_window_one_is_identity(self, rng):
        y = rng.normal(size=30)
        assert np.array_equal(savitzky_golay(y, SavGolConfig(1, 0)), y)

    def test_causal_never_looks_ahead(self):
        y = np.sin(np.arange(100.0) / 7.0)
        base = savitzky_golay(y, SavGolConfig(11, 3), causal=True)
        y2 = y.copy()
        y2[60] += 10.0
        pert = savitzky_golay(y2, SavGolConfig(11, 3), causal=True)
        assert np.array_equal(base[:60], pert[:60])
        assert not np.array_equal(base[60:], pert[60:])

    def test_no_grid_point_with_every_stream_rejected(self):
        raw = synthetic_logs()
        raw.heading_t = raw.heading_t + 100.0  # heading starts after the GNSS log ends
        with pytest.raises(DataError, match="no usable grid points"):
            build_prepared_dataset(raw, REF)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SavGolConfig(10, 3)
        with pytest.raises(ValueError):
            SavGolConfig(11, 11)


class TestBodyVelocities:
    def test_due_north_track(self):
        h = 0.2
        t = h * np.arange(20)
        x = 1.0 * t  # 1 m/s north
        y = np.zeros_like(t)
        psi = np.zeros_like(t)
        u, v, r = body_velocities_from_pose(t, x, y, psi, h, savgol=None)
        assert np.allclose(u, 1.0, atol=1e-12)
        assert np.allclose(v, 0.0, atol=1e-12)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_north_track_heading_east(self):
        # moving north while pointing east: pure negative sway
        h = 0.2
        t = h * np.arange(20)
        x = 1.0 * t
        y = np.zeros_like(t)
        psi = np.full_like(t, math.pi / 2)
        u, v, r = body_velocities_from_pose(t, x, y, psi, h, savgol=None)
        assert np.allclose(u, 0.0, atol=1e-12)
        assert np.allclose(v, -1.0, atol=1e-12)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_constant_heading_zero_yaw_rate(self, rng):
        h = 0.2
        t = h * np.arange(30)
        x = np.cumsum(rng.uniform(0, 0.3, size=30))
        y = np.cumsum(rng.uniform(-0.1, 0.1, size=30))
        psi = np.full_like(t, 0.7)
        _, _, r = body_velocities_from_pose(t, x, y, psi, h, savgol=None)
        assert np.allclose(r, 0.0, atol=1e-14)

    def test_needs_two_samples(self):
        with pytest.raises(DataError):
            body_velocities_from_pose(
                np.array([0.0]), np.array([0.0]), np.array([0.0]), np.array([0.0]), 0.2
            )


class TestNormalizePwm:
    def test_anchor_points(self):
        cfg = PwmMapConfig()
        delta, flags = normalize_pwm(np.array([1500.0, 1900.0, 1100.0, 1300.0]), cfg)
        assert np.array_equal(delta, [0.0, 1.0, -1.0, -0.5])
        assert not np.any(flags)

    def test_monotone(self):
        cfg = PwmMapConfig()
        pwm = np.linspace(1100, 1900, 200)
        delta, _ = normalize_pwm(pwm, cfg)
        assert np.all(np.diff(delta) >= 0)

    def test_out_of_bounds_flagged_and_clamped(self):
        cfg = PwmMapConfig()
        delta, flags = normalize_pwm(np.array([1905.0, 1925.0, 1075.0]), cfg)
        # 1905 is out by 1.25% (not flagged); 1925 and 1075 are out by >5%
        assert list(flags) == [False, True, True]
        assert np.array_equal(delta, [1.0, 1.0, -1.0])

    def test_denormalize_inverse(self, rng):
        cfg = PwmMapConfig()
        delta = rng.uniform(-1, 1, size=100)
        back, _ = normalize_pwm(denormalize_pwm(delta, cfg), cfg)
        assert np.allclose(back, delta, atol=1e-12)


def synthetic_logs(duration=60.0, gap_at=None, gap_len=1.0):
    """Simple smooth raw logs: gentle curved track with known streams."""
    ref = REF
    t_g = np.arange(0.0, duration, 0.2)
    t_h = np.arange(0.0, duration, 0.02)
    t_p = np.arange(0.0, duration, 0.1)
    if gap_at is not None:
        keep = (t_g < gap_at) | (t_g >= gap_at + gap_len)
        t_g = t_g[keep]

    def track(ts):
        x = 1.2 * ts + 5.0 * np.sin(0.02 * ts)
        y = 0.8 * ts - 3.0 * np.cos(0.015 * ts) + 3.0
        return x, y

    xg, yg = track(t_g)
    lat, lon = ned_to_geodetic(xg, yg, ref)
    psi = 0.3 * np.sin(0.01 * t_h)
    pwm_l = 1600 + 100 * np.sin(0.05 * t_p)
    pwm_r = 1650 + 80 * np.cos(0.04 * t_p)
    return RawLogBundle(
        gnss_t=t_g, lat=lat, lon=lon, heading_t=t_h, psi=psi,
        pwm_t=t_p, pwm_l=pwm_l, pwm_r=pwm_r,
    )


class TestBuildPreparedDataset:
    def test_uniform_grid(self):
        ds = build_prepared_dataset(synthetic_logs(), REF)
        within = ds.k[1:] > 0  # steps between rows of one segment
        assert np.allclose(np.diff(ds.t)[within], ds.h, atol=1e-9)

    def test_gap_splits_segments(self):
        ds = build_prepared_dataset(synthetic_logs(gap_at=30.0, gap_len=1.5), REF)
        assert ds.summary()["segments"] == 2
        assert np.unique(ds.segment).tolist() == [0, 1]

    def test_summary_counts(self):
        ds = build_prepared_dataset(synthetic_logs(), REF)
        summary = ds.summary()
        assert summary["points"] == ds.n_samples
        assert summary["minutes"] == pytest.approx(ds.n_samples * 0.2 / 60.0)

    def test_epoch_timestamps(self, small_bundle):
        # Near 1.7e9 s the grid steps t0 + h*k are off from h by ~1.9e-7 s.
        shift = 1.7e9
        shifted = replace(
            small_bundle,
            gnss_t=small_bundle.gnss_t + shift,
            heading_t=small_bundle.heading_t + shift,
            pwm_t=small_bundle.pwm_t + shift,
        )
        base = build_prepared_dataset(small_bundle, REF)
        ds = build_prepared_dataset(shifted, REF)
        assert np.array_equal(ds.segment, base.segment)
        assert np.array_equal(ds.region, base.region)
        for name in ("u", "v", "r"):
            assert np.allclose(getattr(ds, name), getattr(base, name), rtol=0.0, atol=1e-6)

    def test_epoch_grid_keeps_last_point(self):
        # (t[-1] - t0) / h is 298.99999976 near 1.7e9 s: the grid must still end
        # at the last GNSS fix, and every stream must count as fresh there.
        raw = synthetic_logs()
        shift = 1.7e9
        shifted = replace(
            raw, gnss_t=raw.gnss_t + shift, heading_t=raw.heading_t + shift, pwm_t=raw.pwm_t + shift
        )
        base = build_prepared_dataset(raw, REF)
        ds = build_prepared_dataset(shifted, REF)
        # 299 of the 300 grid points: the backward difference consumes the
        # first, and every stream holds a sample from the first grid time on.
        assert base.n_samples == ds.n_samples == 299
        for name in ("u", "v", "r"):
            assert np.max(np.abs(getattr(ds, name) - getattr(base, name))) < 1e-7

    def test_unaligned_pwm_clock_holds_logged_commands(self, gt_dynamic):
        # A PWM logger on its own clock, 0.01 s after the grid: each sample is
        # still the command at its own stamp, and each grid point must take a
        # command that was logged, not one extrapolated across a switch.
        exc = zoh_excitation(prbs_frames(600, seed=1), gt_dynamic.h)
        raw = emit_sensor_logs(simulate_continuous(gt_dynamic, exc, 120.0), REF, SensorNoise())
        raw = replace(raw, pwm_t=raw.pwm_t + 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = build_prepared_dataset(raw, REF)
        (delta_l, delta_r), _ = normalize_pwm(np.stack((raw.pwm_l, raw.pwm_r)), PwmMapConfig())
        logged = 0.5 * (delta_l + delta_r)
        assert ds.n_samples == 599
        assert np.all(np.isin(ds.delta_mean, logged))

    @pytest.mark.parametrize("oob_fraction, n_points", [(0.05, 20), (0.2, 10)])
    def test_out_of_bounds_pwm_warning(self, oob_fraction, n_points):
        # 1950 us is out by 12.5% of the half span and 2000 us by 25%; each is
        # held at 10 grid points (the PWM log runs at twice the grid rate).
        raw = synthetic_logs()
        raw.pwm_l[100:120] = 2000.0
        raw.pwm_l[200:220] = 1950.0
        cfg = PrepareConfig(pwm_map=PwmMapConfig(oob_fraction=oob_fraction))
        with pytest.warns(UserWarning) as caught:
            build_prepared_dataset(raw, REF, cfg)
        assert [str(w.message) for w in caught] == [
            f"{n_points} grid points hold PWM out of configured bounds by "
            f">{100 * oob_fraction:g}%"
        ]

    @pytest.mark.parametrize("stamps", [[0.0, 0.2, np.nan, 0.6], [np.nan], [0.0, 0.2, np.inf]])
    @pytest.mark.parametrize("stream", ["gnss", "heading", "pwm"])
    def test_non_finite_stamps_rejected(self, stream, stamps):
        # diff(t) <= 0 is False for NaN: a bundle with one NaN stamp used to
        # be accepted, and prepared with a point fewer.
        good = 0.2 * np.arange(4.0)
        columns = {}
        for name, _, fields in RAW_STREAMS:
            t = np.array(stamps) if name == stream else good
            columns.update({fields[0]: t, **{f: np.zeros_like(t) for f in fields[1:]}})
        with pytest.raises(DataError, match=f"^{stream} timestamps must be finite and strictly"):
            RawLogBundle(**columns)

    def test_empty_data_rejected(self):
        raw = synthetic_logs()
        raw.gnss_t = raw.gnss_t[:1]
        raw.lat = raw.lat[:1]
        raw.lon = raw.lon[:1]
        with pytest.raises(DataError):
            build_prepared_dataset(raw, REF)

    def test_no_grid_point_with_every_stream_rejected(self):
        raw = synthetic_logs()
        raw.heading_t = raw.heading_t + 100.0  # heading starts after the GNSS log ends
        with pytest.raises(DataError, match="no usable grid points"):
            build_prepared_dataset(raw, REF)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PrepareConfig(h=0.0)


class TestPreparedDataset:
    @staticmethod
    def table(segment, t, u):
        zeros = np.zeros(len(t))
        return PreparedDataset(
            0.2, segment, t=np.asarray(t), u=np.asarray(u, dtype=float), v=zeros, r=zeros,
            delta_mean=zeros, delta_diff=zeros, region=np.zeros(len(t), dtype=np.int8),
        )

    def test_sorts_ids_and_keeps_row_order(self):
        ds = self.table([7, 2, 7, 2, 7], [0.0, 5.0, 0.2, 5.2, 0.4], np.arange(5.0))
        assert ds.segment.tolist() == [2, 2, 7, 7, 7]
        assert ds.u.tolist() == [1.0, 3.0, 0.0, 2.0, 4.0]
        assert ds.t.tolist() == [5.0, 5.2, 0.0, 0.2, 0.4]
        assert ds.k.tolist() == [0, 1, 0, 1, 2]
        assert ds.summary()["segments"] == 2 and ds.n_samples == 5

    def test_columns_round_trip_through_constructor(self, ds_static):
        cols = ds_static.columns()
        assert list(cols) == ["t", "u", "v", "r", "delta_mean", "delta_diff", "region",
                              "segment", "k"]
        assert (cols["segment"].dtype, cols["k"].dtype, cols["region"].dtype) == (
            np.int64, np.int64, np.int8)
        lengths = np.bincount(cols["segment"])
        assert np.array_equal(cols["k"], np.concatenate([np.arange(n) for n in lengths]))
        del cols["k"]
        back = PreparedDataset(ds_static.h, **cols)
        for name, want in ds_static.columns().items():
            assert np.array_equal(getattr(back, name), want), name

    def test_steps_checked_within_segments_only(self):
        # The jump from 0.2 to 5.0 crosses a segment boundary, so it is allowed.
        self.table([0, 0, 1, 1], [0.0, 0.2, 5.0, 5.2], np.zeros(4))
        with pytest.raises(DataError, match="step by exactly h"):
            self.table([0, 0, 0], [0.0, 0.2, 0.5], np.zeros(3))

    def test_bad_columns_rejected(self):
        with pytest.raises(DataError, match="length mismatch"):
            self.table([0, 0, 0], [0.0, 0.2, 0.4], np.zeros(2))
        with pytest.raises(DataError, match="column u has non-finite"):
            self.table([0, 0], [0.0, 0.2], [0.0, np.nan])

    @pytest.mark.parametrize("region", [[0, -1, 3], [0, 9, 1], [0.0, 1.0, 2.0]])
    def test_bad_region_codes_rejected(self, region):
        # A code of -1 would read REGION_SIGN[-1] and pass as forward-forward.
        zeros = np.zeros(3)
        with pytest.raises(DataError, match="prepared column region"):
            PreparedDataset(0.2, [0, 0, 0], t=[0.0, 0.2, 0.4], u=zeros, v=zeros, r=zeros,
                            delta_mean=zeros, delta_diff=zeros, region=np.array(region))
