import hashlib
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from asvid.dataprep import GeoReference
from asvid.model import ThrustStaticParams
from asvid.oracle import (
    _BLOCK_STEPS,
    DiscreteGenConfig,
    GroundTruth,
    SensorNoise,
    default_ground_truth,
    emit_sensor_logs,
    generate_discrete,
    known_params_to_X,
    prbs_frames,
    sigma_coeffs,
    simulate_blocks,
    simulate_continuous,
    smooth_excitation,
    trajectory_to_dataset,
    zoh_excitation,
)
from asvid.regressors import TERMS, build_systems

REF = GeoReference(lat0=37.4, lon0=-6.0, antenna_offset=(0.3, 0.1))


def assemble_matrices(gt: GroundTruth, nu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inertia, Coriolis and damping matrices at one body velocity (Fossen, 2011)."""
    u, v, r = float(nu[0]), float(nu[1]), float(nu[2])
    m_mat = gt.mass_matrix()
    c13 = -(gt.m - gt.y_vdot) * v - (gt.m * gt.x_g - gt.y_rdot) * r
    c23 = (gt.m - gt.x_udot) * u
    c_mat = np.array([[0.0, 0.0, c13], [0.0, 0.0, c23], [-c13, -c23, 0.0]])
    d_mat = np.array(
        [
            [-gt.x_u - gt.x_uu * abs(u), 0.0, 0.0],
            [
                0.0,
                -gt.y_v - gt.y_vv * abs(v) - gt.y_rv * abs(r),
                -gt.y_r - gt.y_vr * abs(v) - gt.y_rr * abs(r),
            ],
            [
                0.0,
                -gt.n_v - gt.n_vv * abs(v) - gt.n_rv * abs(r),
                -gt.n_r - gt.n_vr * abs(v) - gt.n_rr * abs(r),
            ],
        ]
    )
    return m_mat, c_mat, d_mat


def sigma_from_coeffs(gt: GroundTruth, nu) -> np.ndarray:
    """The lumped disturbance at nu, written out from its coefficients by monomial name."""
    su, sv, sr = (sigma_coeffs(gt)[axis] for axis in "uvr")
    u, v, r = nu

    def swayyaw(c: dict) -> float:
        return (c["v|v|"] * v * abs(v) + c["v|r|"] * v * abs(r) + c["r|v|"] * r * abs(v)
                + c["r|r|"] * r * abs(r) + c["u*v"] * u * v + c["u*r"] * u * r + c["v"] * v
                + c["r"] * r + c["1"])

    sigma_u = (su["u|u|"] * u * abs(u) + su["v*r"] * v * r + su["r^2"] * r * r + su["u"] * u
               + su["1"])
    return np.array([sigma_u, swayyaw(sv), swayyaw(sr)])


def zero_sigma(gt: GroundTruth) -> dict:
    return {axis: dict.fromkeys(coeffs, 0.0) for axis, coeffs in sigma_coeffs(gt).items()}


class TestMatrices:
    def test_coriolis_vanishes_at_rest(self, gt_static):
        _, c, _ = assemble_matrices(gt_static, [0.0, 0.0, 0.0])
        assert np.array_equal(c, np.zeros((3, 3)))

    def test_damping_at_rest_keeps_linear_terms(self, gt_static):
        _, _, d = assemble_matrices(gt_static, [0.0, 0.0, 0.0])
        gt = gt_static
        expected = np.array(
            [
                [-gt.x_u, 0.0, 0.0],
                [0.0, -gt.y_v, -gt.y_r],
                [0.0, -gt.n_v, -gt.n_r],
            ]
        )
        assert np.allclose(d, expected, atol=1e-15)

    def test_mass_matrix_symmetry(self, gt_static):
        m, _, _ = assemble_matrices(gt_static, [0.3, -0.1, 0.2])
        assert np.array_equal(m, m.T)
        assert m[1, 2] == gt_static.m * gt_static.x_g - gt_static.y_rdot

    def test_coriolis_transfers_no_power(self, gt_static, rng):
        for _ in range(1000):
            nu = rng.uniform(-2, 2, size=3)
            _, c, _ = assemble_matrices(gt_static, nu)
            assert abs(nu @ c @ nu) < 1e-12

    def test_singular_inertia_rejected(self, gt_static):
        with pytest.raises(ValueError):
            replace(gt_static, x_udot=gt_static.m)


class TestSigma:
    def test_quasi_quadratic_matches_matrices(self, gt_static, rng):
        # the lumped coefficients reproduce M^-1(-C nu - D nu + tau_w) exactly
        m = gt_static.mass_matrix()
        tau_w = m @ np.asarray(gt_static.bias)
        for _ in range(300):
            nu = rng.uniform(-1.5, 1.5, size=3)
            _, c, d = assemble_matrices(gt_static, nu)
            direct = np.linalg.solve(m, -(c + d) @ nu + tau_w)
            assert np.allclose(sigma_from_coeffs(gt_static, nu), direct, atol=1e-13)

    def test_override_used(self, gt_static):
        gt = replace(gt_static, sigma_override=zero_sigma(gt_static))
        assert np.array_equal(sigma_from_coeffs(gt, [0.4, -0.2, 0.1]), np.zeros(3))

    def test_keys_are_the_static_non_thrust_terms(self, gt_static):
        for axis, coeffs in sigma_coeffs(gt_static).items():
            names = [t.name for t in TERMS[("static", axis)] if not t.thrust]
            assert list(coeffs) == names

    def test_static_non_thrust_row_is_h_times_the_matrices(self, gt_static, rng):
        # The table's columns times the exact entries give h*M^-1(-C nu - D nu + tau_w).
        m = gt_static.mass_matrix()
        tau_w = m @ np.asarray(gt_static.bias)
        x = known_params_to_X(gt_static, "static")
        for _ in range(300):
            nu = rng.uniform(-1.5, 1.5, size=3)
            _, c, d = assemble_matrices(gt_static, nu)
            direct = gt_static.h * np.linalg.solve(m, -(c + d) @ nu + tau_w)
            step = SimpleNamespace(u=nu[0], v=nu[1], r=nu[2])
            rows = [
                sum(e * t.column(step) for t, e in zip(TERMS[("static", axis)], x[axis])
                    if not t.thrust)
                for axis in "uvr"
            ]
            np.testing.assert_allclose(rows, direct, rtol=0.0, atol=1e-13)


class TestKnownParams:
    def test_surge_thrust_entries(self):
        # a_f=1, b_f=1, inverse surge inertia 0.1, h=0.2, no disturbances
        gt = default_ground_truth()
        gt = replace(
            gt,
            m=10.0,
            x_udot=0.0,
            thrust=ThrustStaticParams(a_f=1.0, b_f=1.0, a_r=1.0, b_r=1.0),
            bias=(0.0, 0.0, 0.0),
            sigma_override=zero_sigma(gt),
        )
        x = known_params_to_X(gt, "static")
        assert np.allclose(x["u"], [0, 0, 0, 0, 0, 0.04, 0.04], atol=1e-15)

    def test_zero_thrust_coefficients(self, gt_static):
        gt = replace(gt_static, thrust=ThrustStaticParams(0.0, 0.0, 0.0, 0.0))
        x = known_params_to_X(gt, "static")
        assert np.all(x["u"][5:] == 0.0)
        assert np.all(x["v"][9:] == 0.0)
        assert np.all(x["r"][9:] == 0.0)

    def test_identical_forward_reverse_curves_cancel_asymmetric_terms(self, gt_static):
        gt = replace(gt_static, thrust=ThrustStaticParams(a_f=3.0, b_f=5.0, a_r=3.0, b_r=5.0))
        x = known_params_to_X(gt, "static")
        for axis in ("v", "r"):
            assert x[axis][9] == 0.0
            assert x[axis][11] == 0.0
            assert x[axis][10] != 0.0

    def test_dynamic_needs_dynamic_thrust(self, gt_static):
        with pytest.raises(ValueError):
            known_params_to_X(gt_static, "dynamic")

    def test_pole_pair_relations(self, gt_dynamic):
        x = known_params_to_X(gt_dynamic, "dynamic")
        alpha = gt_dynamic.dynamic_thrust.alpha
        for vec, pair_idx in ((x["u"], 4), (x["v"], 7), (x["r"], 8)):
            r = vec[0] - alpha
            assert vec[pair_idx] == pytest.approx(-alpha * (1.0 + r), rel=1e-12)


class TestPrbs:
    def test_shape_and_range(self):
        frames = prbs_frames(500, seed=0)
        assert frames.shape == (500, 2)
        left = frames[:, 0] + frames[:, 1] / 2
        right = frames[:, 0] - frames[:, 1] / 2
        assert np.all(np.abs(left) <= 1.0) and np.all(np.abs(right) <= 1.0)

    def test_deterministic(self):
        assert np.array_equal(prbs_frames(200, seed=3), prbs_frames(200, seed=3))

    def test_holds_levels(self):
        frames = prbs_frames(100, seed=1, hold=5)
        for start in range(0, 100, 5):
            block = frames[start : start + 5]
            assert np.all(block == block[0])


class TestGenerateDiscrete:
    def test_zero_everything_stays_zero(self, gt_static):
        gt = replace(
            gt_static,
            thrust=ThrustStaticParams(0.0, 0.0, 0.0, 0.0),
            bias=(0.0, 0.0, 0.0),
        )
        cfg = DiscreteGenConfig(steps=50, kind="static", schedule=np.zeros((50, 2)))
        ds = generate_discrete(gt, cfg)
        assert np.all(ds.u == 0.0) and np.all(ds.v == 0.0) and np.all(ds.r == 0.0)

    def test_noise_scaling_of_parameter_error(self, gt_static):
        from asvid.estimator import identify_from_systems

        x = known_params_to_X(gt_static, "static")

        def max_err(noise):
            cfg = DiscreteGenConfig(
                steps=4000, kind="static", seed=11, noise_std=(noise,) * 3, n_segments=2
            )
            ds = generate_discrete(gt_static, cfg)
            model = identify_from_systems("static", build_systems(ds, "static"), ds.h)
            return max(
                float(np.max(np.abs(model.vector(a) - x[a]))) for a in ("u", "v", "r")
            )

        e_small, e_large = max_err(1e-5), max_err(1e-4)
        assert 3.0 < e_large / e_small < 30.0  # error scales about linearly with noise

    def test_segment_count_and_grid(self, ds_static):
        assert ds_static.summary()["segments"] == 4
        for sid in range(4):
            seg_t = ds_static.t[ds_static.segment == sid]
            assert np.allclose(np.diff(seg_t), ds_static.h, atol=1e-12)

    def test_divergence_guard(self, gt_static):
        unstable = replace(gt_static, x_u=60.0, x_uu=8.0, sigma_override=None)
        cfg = DiscreteGenConfig(steps=3000, kind="static", schedule=np.column_stack(
            [np.full(3000, 0.8), np.zeros(3000)]))
        with pytest.raises(RuntimeError, match="diverged at step"):
            generate_discrete(unstable, cfg)

    @pytest.mark.parametrize("kind", ["static", "dynamic"])
    def test_dead_zone_rows_stay_in_class(self, kind):
        gt = default_ground_truth(dynamic=kind == "dynamic")
        static = replace(gt.static_thrust, dead_zone_forward=0.1, dead_zone_reverse=-0.08)
        thrust = static if kind == "static" else replace(gt.thrust, static_part=static)
        gt = replace(gt, thrust=thrust)
        cfg = DiscreteGenConfig(steps=2000, kind=kind, seed=1, n_segments=4,
                                g0_scale=0.05 if kind == "dynamic" else 0.0)
        x = known_params_to_X(gt, kind)
        for axis, sys in build_systems(generate_discrete(gt, cfg), kind).items():
            assert np.max(np.abs(sys.a @ x[axis] - sys.b)) <= 1e-12, axis

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiscreteGenConfig(steps=2)
        with pytest.raises(ValueError):
            DiscreteGenConfig(steps=100, kind="both")
        with pytest.raises(ValueError):
            DiscreteGenConfig(steps=100, noise_std=(-1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            DiscreteGenConfig(steps=100, kind="static", g0_scale=0.1)


class TestContinuousSimulator:
    def test_equilibrium_stays_at_rest(self, gt_static):
        gt = replace(
            gt_static, thrust=ThrustStaticParams(0.0, 0.0, 0.0, 0.0), bias=(0.0, 0.0, 0.0)
        )
        traj = simulate_continuous(gt, lambda t: (0.0, 0.0), duration=10.0)
        assert np.max(np.abs(traj.nu)) == 0.0
        assert np.max(np.abs(traj.eta)) == 0.0

    def test_equal_thrusts_run_straight(self, gt_static):
        gt = replace(gt_static, bias=(0.0, 0.0, 0.0))
        traj = simulate_continuous(gt, lambda t: (0.6, 0.6), duration=30.0)
        assert np.max(np.abs(traj.nu[:, 1])) < 1e-12  # no sway
        assert np.max(np.abs(traj.nu[:, 2])) < 1e-12  # no turn
        assert np.max(np.abs(traj.eta[:, 1])) < 1e-9  # straight north track
        assert traj.nu[-1, 0] > 0.5

    def test_unforced_motion_dissipates_energy(self, gt_static):
        gt = replace(gt_static, thrust=ThrustStaticParams(0.0, 0.0, 0.0, 0.0), bias=(0.0, 0.0, 0.0))
        traj = simulate_continuous(gt, lambda t: (0.0, 0.0), duration=20.0,
                                   nu0=(0.8, 0.2, -0.5))
        m = gt.mass_matrix()
        energy = np.einsum("ij,nj,ni->n", m, traj.nu, traj.nu)
        assert np.all(np.diff(energy) <= 1e-12)
        assert energy[-1] < 0.01 * energy[0]

    def test_divergence_reports_step(self, gt_static):
        unstable = replace(gt_static, x_u=80.0, x_uu=10.0)
        with pytest.raises(RuntimeError, match="diverged at step"):
            simulate_continuous(unstable, lambda t: (0.9, 0.9), duration=60.0)

    def test_sigma_override_rejected(self, gt_static):
        gt = replace(gt_static, sigma_override=zero_sigma(gt_static))
        with pytest.raises(ValueError, match="sigma_override"):
            simulate_continuous(gt, lambda t: (0.0, 0.0), duration=1.0)

    def test_dt_must_divide_h(self, gt_static):
        with pytest.raises(ValueError):
            simulate_continuous(gt_static, lambda t: (0.0, 0.0), duration=1.0, dt=0.03)

    def test_dt_must_divide_the_hold(self, gt_static):
        exc = zoh_excitation(np.array([[0.2, 0.0]] * 20), h=0.105)
        with pytest.raises(ValueError, match="hold interval"):
            simulate_continuous(gt_static, exc, duration=1.0, dt=0.01)

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan")])
    def test_dt_must_be_positive(self, gt_static, dt):
        with pytest.raises(ValueError, match="dt must be > 0"):
            simulate_continuous(gt_static, lambda t: (0.0, 0.0), duration=1.0, dt=dt)

    def test_dynamic_run_calls_a_held_schedule_once_per_interval(self, gt_dynamic):
        exc = zoh_excitation(prbs_frames(10, seed=1, hold=2), gt_dynamic.h)
        times = []

        def counted(t):
            times.append(t)
            return exc(t)

        counted.hold = exc.hold
        held = simulate_continuous(gt_dynamic, counted, duration=2.0)
        every = simulate_continuous(gt_dynamic, lambda t: exc(t), duration=2.0)
        for name in ("t", "eta", "nu", "delta"):
            assert getattr(held, name).tobytes() == getattr(every, name).tobytes()
        # One call per 0.2 s interval of the 200 substeps, and one for the final row.
        assert times == [k * 0.01 for k in range(0, 200, 20)] + [200 * 0.01]

    def test_dynamic_run_with_a_hold_off_the_substep_grid_still_runs(self, gt_dynamic):
        # 0.105 s is no whole number of 0.01 s substeps: the static branch
        # refuses such a schedule, the dynamic one calls it at every substep.
        # The digest is that of the integrator that always did so.
        exc = zoh_excitation(prbs_frames(20, seed=1, hold=1), h=0.105)
        traj = simulate_continuous(gt_dynamic, exc, duration=2.0, dt=0.01)
        digest = hashlib.sha256()
        for values in (traj.t, traj.eta, traj.nu, traj.delta):
            digest.update(values.tobytes())
        assert digest.hexdigest() == (
            "5c582f157b47bb855c5e08e5719a4a2f63c7d4f1978d55060fd69a22d933b3bf"
        )

    @pytest.mark.parametrize("level", ["pos_m", "psi_rad", "pwm_us"])
    @pytest.mark.parametrize("value", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_noise_level_must_be_finite_and_not_negative(self, level, value):
        with pytest.raises(ValueError, match=f"^{level} must be a finite level >= 0"):
            SensorNoise(**{level: value})

    def test_held_interval_never_sees_the_next_frame(self, gt_static):
        # The first frame commands (0.2, 0.2) for the whole 0.2 s run; the
        # second frame starts exactly where the run ends.
        held = zoh_excitation(np.array([[0.2, 0.0], [0.4, 0.2]]), h=0.2)
        a = simulate_continuous(gt_static, held, duration=0.2, dt=0.01)
        b = simulate_continuous(gt_static, lambda t: (0.2, 0.2), duration=0.2, dt=0.01)
        assert a.eta.tobytes() == b.eta.tobytes()
        assert a.nu.tobytes() == b.nu.tobytes()

    def test_dynamic_thrust_reaches_static_steady_state(self, gt_dynamic, gt_static):
        # beta = 1 - alpha gives unit DC gain: same terminal speed as static
        exc = lambda t: (0.5, 0.5)
        traj_d = simulate_continuous(gt_dynamic, exc, duration=120.0)
        traj_s = simulate_continuous(gt_static, exc, duration=120.0)
        assert traj_d.nu[-1, 0] == pytest.approx(traj_s.nu[-1, 0], rel=1e-3)

    def test_one_step_euler_gap_shrinks_quadratically(self, gt_static):
        # the discrete class model is the Euler step of the continuous one:
        # halving the sampling period quarters the per-step mismatch.
        # Symmetric thrust curves keep the class torque exact, so the
        # discretization gap is the only error source.
        exc = smooth_excitation()
        symmetric = ThrustStaticParams(a_f=8.0, b_f=12.0, a_r=8.0, b_r=12.0)

        def mean_gap(h):
            gt = replace(gt_static, h=h, thrust=symmetric)
            traj = simulate_continuous(gt, exc, duration=60.0, dt=h / 40.0)
            x = known_params_to_X(gt, "static")
            systems = build_systems(trajectory_to_dataset(traj), "static")
            gaps = [
                np.mean(np.abs(systems[axis].a @ x[axis] - systems[axis].b))
                for axis in ("u", "v", "r")
            ]
            return float(np.mean(gaps))

        ratio = mean_gap(0.2) / mean_gap(0.1)
        assert 2.5 < ratio < 6.0


def _dead_zone_run(gt):
    thrust = replace(gt.thrust, dead_zone_forward=0.1, dead_zone_reverse=-0.08)
    exc = smooth_excitation(mean_center=0.1, mean_amp=0.3, mean_freq=0.05, diff_amp=0.3,
                            diff_freq=0.07)
    return simulate_continuous(replace(gt, thrust=thrust), exc, 20.0)


# SHA-256 of the t, eta, nu and delta bytes of 20 s runs, as the vectorized
# RK4 of asvid 0.1 computed them; the scalar integrator must keep every bit.
# "static-zoh-prbs" is pinned after the hold-interval fix (a held schedule
# gives its forces at the start of each substep); the others never changed.
# math.sin/cos come from the platform's libm, so the digests hold for glibc
# on x86-64; FINAL_STATES tells a different libm (states agree to 1e-12,
# digests differ) from a change in arithmetic (both fail).
PINNED_RUNS = {
    "static-smooth": (
        lambda gt, frames: simulate_continuous(gt, smooth_excitation(), 20.0),
        "b4cd0d593e599171944681761dbc0accb985e9342b8a4b6dd9a5fced395f7d3a",
    ),
    "static-zoh-prbs": (
        lambda gt, frames: simulate_continuous(gt, zoh_excitation(frames, gt.h), 20.0),
        "107a1ebb87d494d7d04f7f2ea8603153eb7f7fa42bca12a3a10b0195a451a94a",
    ),
    "static-dead-zone": (
        lambda gt, frames: _dead_zone_run(gt),
        "03863e11b46d45866c2212d56185149ae20291fed82360f7fe975da3ea0cbad1",
    ),
    "dynamic-prbs": (
        lambda gt, frames: simulate_continuous(
            default_ground_truth(dynamic=True), zoh_excitation(frames, gt.h), 20.0,
            nu0=(0.4, -0.05, 0.02), eta0=(1.0, -2.0, 0.3),
        ),
        "9c399735c6c41d831b3f1b5e1abd3c6b5053947f01bdcfd908ae73b08a7db569",
    ),
}


# (x, y, psi, u, v, r) at t = 20 s of each pinned run.
FINAL_STATES = {
    "static-smooth": (12.95220129045772, 13.598081474624642, 2.2251261594256246,
                      1.2666084047145008, -0.20082752812565885, 0.17671320487530728),
    "static-zoh-prbs": (6.636211917618241, 6.66199893122355, 3.4374032827648158,
                        0.5002123692244802, -0.1653236060239253, 0.03388220485033817),
    "static-dead-zone": (4.313914162764682, 3.7432797476537183, 0.5849477321376284,
                         0.015905464130655817, 0.015429499592935268, 0.021980841729161087),
    "dynamic-prbs": (7.416713962813785, 6.763937818890232, 3.2446636654377943,
                     0.6402802498993178, -0.23688760175049065, 0.36618861819852555),
}


def _pinned_run(name, gt):
    run, _ = PINNED_RUNS[name]
    return run(gt, prbs_frames(100, seed=3, hold=5))


# SHA-256 of the t, eta, nu and delta bytes of 50 s runs: 5001 rows, so the
# pose carries across a piece boundary.  Pinned from the integrator that
# evaluated the full six-state derivative at every RK4 stage.
TWO_PIECE_RUNS = {
    "static-smooth": (
        lambda: simulate_continuous(default_ground_truth(), smooth_excitation(), 50.0),
        "fd5687dcd24c2661bfbb6403e75110a9fa8625c43d46903507eec27cf3884613",
    ),
    "dynamic-prbs": (
        lambda: simulate_continuous(
            default_ground_truth(dynamic=True),
            zoh_excitation(prbs_frames(250, seed=3, hold=5), 0.2), 50.0,
            nu0=(0.4, -0.05, 0.02), eta0=(1.0, -2.0, 0.3),
        ),
        "064450756cad94c90accc665cb75ef79fde740e8d5874451996b8756dfc2ae01",
    ),
}


class TestSimulatorBits:
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_final_state_matches_reference(self, name, gt_static):
        traj = _pinned_run(name, gt_static)
        final = [*traj.eta[-1], *traj.nu[-1]]
        np.testing.assert_allclose(final, FINAL_STATES[name], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_trajectory_bytes_are_pinned(self, name, gt_static):
        _, expected = PINNED_RUNS[name]
        traj = _pinned_run(name, gt_static)
        digest = hashlib.sha256()
        for values in (traj.t, traj.eta, traj.nu, traj.delta):
            assert values.dtype == np.float64 and values.flags.c_contiguous
            digest.update(values.tobytes())
        assert traj.t.shape == (2001,)
        shapes = (traj.eta.shape, traj.nu.shape, traj.delta.shape)
        assert shapes == ((2001, 3), (2001, 3), (2001, 2))
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("name", sorted(TWO_PIECE_RUNS))
    def test_two_piece_trajectory_bytes_are_pinned(self, name):
        run, expected = TWO_PIECE_RUNS[name]
        traj = run()
        assert traj.t.shape == (5001,) and 5001 > _BLOCK_STEPS
        digest = hashlib.sha256()
        for values in (traj.t, traj.eta, traj.nu, traj.delta):
            digest.update(values.tobytes())
        assert digest.hexdigest() == expected

    def test_numpy_trig_equals_libm_on_the_stage_angles(self, gt_static):
        # The pose pass takes cos and sin from numpy, the pinned digests came
        # from math.cos and math.sin: a numpy whose float64 trig is not libm's
        # fails here, naming itself, besides failing the digests.
        traj = _pinned_run("dynamic-prbs", gt_static)
        psi, r = traj.eta[:-1, 2], traj.nu[:-1, 2]
        angles = np.concatenate([psi, psi + (0.5 * traj.dt) * r])  # stages 1 and 2, as formed
        for name, np_f, libm_f in (("cos", np.cos, math.cos), ("sin", np.sin, math.sin)):
            libm = np.array([libm_f(a) for a in angles.tolist()])
            differ = np.count_nonzero(np_f(angles).view(np.int64) != libm.view(np.int64))
            assert differ == 0, (
                f"numpy {np.__version__}: np.{name} differs from libm's math.{name} in the last "
                f"bits at {differ} of {angles.size} stage angles, so the pinned trajectory "
                "digests cannot hold with this numpy"
            )

    @pytest.mark.parametrize("bad, message", [
        (1.2, r"out of \[-1, 1\]: 1.2"), (float("nan"), "must be finite, got nan"),
    ])
    def test_static_command_out_of_range_raises(self, bad, message, gt_static):
        exc = lambda t: (0.5, bad) if t > 1.0 else (0.5, 0.5)
        with pytest.raises(ValueError, match=message):
            simulate_continuous(gt_static, exc, duration=2.0)

    def test_memory_stays_near_the_returned_arrays(self, gt_dynamic):
        # Packed float buffers: lists of per-step tuples would peak at ~7x.
        exc = zoh_excitation(prbs_frames(600, seed=1, hold=5), gt_dynamic.h)
        tracemalloc.start()
        try:
            traj = simulate_continuous(gt_dynamic, exc, duration=120.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (traj.t, traj.eta, traj.nu, traj.delta))
        assert peak <= 3 * returned


def _all_regions_schedule(steps):
    """Seeded commands in [-0.7, 0.7], held 5 steps: of 600 steps, 115 are reverse-reverse."""
    rng = np.random.default_rng(4)
    lr = rng.uniform(-0.7, 0.7, size=(steps // 5, 2)).repeat(5, axis=0)
    return np.column_stack([(lr[:, 0] + lr[:, 1]) / 2.0, lr[:, 0] - lr[:, 1]])


# SHA-256 of the PreparedDataset.columns() bytes, in column order, and the
# (u, v, r) of the last step.  The digests were re-pinned when the generator
# moved onto the term table (h*sigma summed from the table's columns times
# their entries, static surge in class in forward-forward); that moved no
# velocity by more than 7.8e-16, and the final states are unedited from the
# generator before it.  A change in the arithmetic order fails the digest;
# a change in the dynamics fails the final state too.
GENERATOR_RUNS = {
    "static-prbs": (
        False, dict(steps=2000, kind="static", seed=1),
        "b1873699a9f27752084b452f8317cc88bc51348fa684acd473572135f491374e",
        (0.7177846512590326, 0.0410278831695125, -0.14813353476223431),
    ),
    "dynamic-prbs": (
        True, dict(steps=2000, kind="dynamic", seed=1, n_segments=8, g0_scale=0.05),
        "df4e5d40d9797b1ed01a15a2b96a60a19ae80b3a27118fcc5a46fcc147114737",
        (0.9339883665222051, 0.03711601276516343, -0.020333009160802624),
    ),
    "static-all-regions": (
        False, dict(steps=600, kind="static", schedule=_all_regions_schedule(600)),
        "ed295275c1bf70b858158c2733802043e9f7a1cd48a656efae92870eb6c78c7c",
        (0.3816145394124197, 0.14588786369302342, -0.43684780633937365),
    ),
    "dynamic-all-regions": (
        True, dict(steps=600, kind="dynamic", schedule=_all_regions_schedule(600), n_segments=3,
                   g0_scale=0.05, seed=2),
        "5b85e705e6b752003e506867b6a56a8853e8188acd0715141277f684a0384b5f",
        (0.49644374030673816, 0.054126347541350255, -0.18738134617754573),
    ),
}


def _generated_columns(name):
    dynamic, kwargs, _, _ = GENERATOR_RUNS[name]
    gt = default_ground_truth(dynamic=dynamic)
    return generate_discrete(gt, DiscreteGenConfig(**kwargs)).columns()


class TestGeneratorBits:
    @pytest.mark.parametrize("name", sorted(GENERATOR_RUNS))
    def test_final_velocities_match_reference(self, name):
        cols = _generated_columns(name)
        final = [cols[axis][-1] for axis in ("u", "v", "r")]
        np.testing.assert_allclose(final, GENERATOR_RUNS[name][3], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(GENERATOR_RUNS))
    def test_dataset_bytes_are_pinned(self, name):
        cols = _generated_columns(name)
        digest = hashlib.sha256()
        for values in cols.values():
            digest.update(values.tobytes())
        assert digest.hexdigest() == GENERATOR_RUNS[name][2]


@pytest.fixture(scope="module")
def traj(gt_static):
    return simulate_continuous(gt_static, smooth_excitation(), duration=60.0)


class TestEmitSensorLogs:

    def test_rates(self, traj):
        bundle = emit_sensor_logs(traj, REF)
        per_second_gnss = bundle.gnss_t.size / traj.t[-1]
        per_second_heading = bundle.heading_t.size / traj.t[-1]
        assert per_second_heading / per_second_gnss == pytest.approx(10.0, rel=0.02)
        assert np.allclose(np.diff(bundle.gnss_t), 0.2, atol=1e-9)
        assert np.allclose(np.diff(bundle.heading_t), 0.02, atol=1e-9)
        assert np.allclose(np.diff(bundle.pwm_t), 0.1, atol=1e-9)

    def test_monotonic_timestamps(self, traj):
        bundle = emit_sensor_logs(traj, REF)
        for t in (bundle.gnss_t, bundle.heading_t, bundle.pwm_t):
            assert np.all(np.diff(t) > 0)

    def test_stationary_vessel_constant_streams(self, gt_static):
        gt = replace(
            gt_static, thrust=ThrustStaticParams(0.0, 0.0, 0.0, 0.0), bias=(0.0, 0.0, 0.0)
        )
        traj = simulate_continuous(gt, lambda t: (0.0, 0.0), duration=10.0)
        bundle = emit_sensor_logs(traj, REF)
        assert np.all(bundle.lat == bundle.lat[0])
        assert np.all(bundle.lon == bundle.lon[0])
        assert np.all(bundle.psi == bundle.psi[0])

    def test_heading_emitted_wrapped(self, gt_static):
        exc = smooth_excitation(diff_amp=0.25, diff_freq=0.02)
        traj = simulate_continuous(gt_static, exc, duration=120.0)
        assert np.max(np.abs(traj.eta[:, 2])) > math.pi  # the true heading winds up
        bundle = emit_sensor_logs(traj, REF)
        assert np.max(np.abs(bundle.psi)) <= math.pi

    def test_noise_is_seeded(self, traj):
        from asvid.oracle import SensorNoise

        b1 = emit_sensor_logs(traj, REF, noise=SensorNoise(pos_m=0.02, seed=5))
        b2 = emit_sensor_logs(traj, REF, noise=SensorNoise(pos_m=0.02, seed=5))
        assert np.array_equal(b1.lat, b2.lat)


NOISE = SensorNoise(pos_m=0.02, psi_rad=0.003, pwm_us=2.0, seed=7)


def _bundle_bytes(bundle) -> list[tuple]:
    return [(name, values.dtype, values.tobytes()) for name, values in vars(bundle).items()]


def _held(seed: int, duration: float):
    """A PRBS schedule held over h that covers ``duration``."""
    return lambda gt: zoh_excitation(prbs_frames(int(duration / gt.h) + 1, seed=seed), gt.h)


# At the default dt of 0.01 s, a run of (_BLOCK_STEPS - 1) * dt fills one
# piece exactly and one of _BLOCK_STEPS * dt leaves the final row alone in a
# second piece; 50 s ends mid-piece.
ONE_PIECE_S, LAST_ROW_ALONE_S = (_BLOCK_STEPS - 1) * 0.01, _BLOCK_STEPS * 0.01

# (dynamic thrust?, the excitation for the ground truth, duration in s, dt).
STREAMED_RUNS = {
    "static-smooth": (False, lambda gt: smooth_excitation(), 50.0, None),
    "static-held": (False, _held(2, 50.0), 50.0, None),
    "dynamic-prbs": (True, _held(3, 50.0), 50.0, None),
    "one-full-piece": (False, lambda gt: smooth_excitation(), ONE_PIECE_S, None),
    "last-row-alone": (True, _held(4, LAST_ROW_ALONE_S), LAST_ROW_ALONE_S, None),
    # Strides of 40, 4 and 20 rows, which need not divide the piece size, so a
    # log's first sample can sit at a different row of each piece.
    "dt-h/40": (True, _held(5, 30.0), 30.0, 0.005),
}


class TestStreamedSimulation:
    def test_emit_leaves_the_trajectory_unchanged(self, gt_dynamic):
        exc = zoh_excitation(prbs_frames(250, seed=2), gt_dynamic.h)
        whole = simulate_continuous(gt_dynamic, exc, 50.0)
        pieces = list(simulate_blocks(gt_dynamic, exc, 50.0))
        assert len(pieces) == 2

        def snapshot():
            return [(f, getattr(tr, f).tobytes()) for tr in (whole, *pieces)
                    for f in ("t", "eta", "nu", "delta")]

        before = snapshot()
        emit_sensor_logs(whole, REF, NOISE)
        emit_sensor_logs(pieces, REF, NOISE)
        assert snapshot() == before

    @pytest.mark.parametrize("name", sorted(STREAMED_RUNS))
    def test_pieces_tile_the_whole_run(self, name):
        dynamic, excitation, duration, dt = STREAMED_RUNS[name]
        gt = default_ground_truth(dynamic=dynamic)
        whole = simulate_continuous(gt, excitation(gt), duration, dt=dt)
        pieces = list(simulate_blocks(gt, excitation(gt), duration, dt=dt))
        assert [p.start for p in pieces] == list(range(0, whole.t.size, _BLOCK_STEPS))
        for field in ("t", "eta", "nu", "delta"):
            joined = np.concatenate([getattr(p, field) for p in pieces])
            assert joined.tobytes() == getattr(whole, field).tobytes(), field

    @pytest.mark.parametrize("name", sorted(STREAMED_RUNS))
    def test_streamed_logs_equal_whole_logs(self, name):
        dynamic, excitation, duration, dt = STREAMED_RUNS[name]
        gt = default_ground_truth(dynamic=dynamic)
        whole = emit_sensor_logs(simulate_continuous(gt, excitation(gt), duration, dt=dt), REF,
                                 NOISE)
        streamed = emit_sensor_logs(simulate_blocks(gt, excitation(gt), duration, dt=dt), REF,
                                    NOISE)
        assert _bundle_bytes(streamed) == _bundle_bytes(whole)

    def test_divergence_raises_the_same_step_from_either_form(self, gt_static):
        # Diverges at step 6262, in the second piece.
        unstable = replace(gt_static, x_u=-0.3, x_uu=0.0, bias=(0.0, 0.0, 0.0))
        exc = lambda t: (0.9, 0.9)
        with pytest.raises(RuntimeError) as whole:
            simulate_continuous(unstable, exc, duration=120.0)
        with pytest.raises(RuntimeError) as streamed:
            emit_sensor_logs(simulate_blocks(unstable, exc, duration=120.0), REF)
        assert str(streamed.value) == str(whole.value) == (
            "continuous simulation diverged at step 6262"
        )

    @pytest.mark.parametrize("streamed", [False, True])
    def test_dt_off_a_log_period_is_rejected(self, gt_static, streamed):
        # 0.04 s divides h = 0.2 s but not the 50 Hz heading or 10 Hz PWM periods.
        run = simulate_blocks if streamed else simulate_continuous
        with pytest.raises(ValueError, match=r"dt 0.04 s does not divide the heading log "
                                             r"period 0.02 s"):
            emit_sensor_logs(run(gt_static, smooth_excitation(), 2.0, dt=0.04), REF)

    def test_zero_duration_is_the_initial_row(self, gt_dynamic):
        # One piece without a substep: the pose pass gets no rows.
        exc = zoh_excitation(prbs_frames(3, seed=1), gt_dynamic.h)
        (piece,) = simulate_blocks(gt_dynamic, exc, 0.0, nu0=(0.1, 0.2, 0.3), eta0=(1.0, 2.0, 3.0))
        assert piece.t.tolist() == [0.0]
        assert piece.eta.tolist() == [[1.0, 2.0, 3.0]]
        assert piece.nu.tolist() == [[0.1, 0.2, 0.3]]
        assert piece.delta.tolist() == [list(exc(0.0))]

    def test_negative_duration_is_rejected(self, gt_static):
        with pytest.raises(ValueError, match="duration must be >= 0"):
            simulate_continuous(gt_static, smooth_excitation(), -1.0)

    def test_memory_does_not_grow_with_the_duration(self, gt_dynamic):
        # The whole 100 Hz trajectory is 9 values a row against 1.5 for the
        # logs; streamed, only the samples outlive a piece.
        used = {}
        for duration in (120.0, 600.0):
            exc = zoh_excitation(prbs_frames(int(duration / gt_dynamic.h), seed=1), gt_dynamic.h)
            tracemalloc.start()
            try:
                bundle = emit_sensor_logs(simulate_blocks(gt_dynamic, exc, duration), REF, NOISE)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            used[duration] = peak, sum(a.nbytes for a in vars(bundle).values())
        (peak_short, bytes_short), (peak_long, bytes_long) = used[120.0], used[600.0]
        assert peak_long <= 3 * bytes_long
        assert peak_long - peak_short <= 2 * (bytes_long - bytes_short)


class TestZohExcitation:
    def test_holds_within_interval(self):
        frames = np.array([[0.2, 0.0], [0.4, 0.2]])
        exc = zoh_excitation(frames, h=0.2)
        assert exc(0.0) == exc(0.19)
        assert exc(0.2) == pytest.approx((0.5, 0.3))
        assert exc.hold == 0.2

    def test_commands_equal_the_frames_mean_and_half_difference(self):
        frames = prbs_frames(6000, seed=1)
        exc = zoh_excitation(frames, h=0.2)
        for k, (mean, diff) in enumerate(frames.tolist()):
            assert exc(0.2 * k) == (mean + diff / 2.0, mean - diff / 2.0)
