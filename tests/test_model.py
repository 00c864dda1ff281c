from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from asvid.dataprep import PreparedDataset
from asvid.estimator import IdentifiedModel, resolve_alpha
from asvid.model import (
    REGION_SIGN,
    OperatingRegion,
    ThrustDynamicParams,
    ThrustStaticParams,
    classify_regions,
    thrust_static,
)
from asvid.oracle import (
    DiscreteGenConfig,
    default_ground_truth,
    generate_discrete,
    sigma_coeffs,
)
from asvid.regressors import TERMS, build_systems, term_index

SWAYYAW_THRUST = ("s*(mean^2+diff^2/4)", "mean*diff", "s*mean", "diff/2")


def frame(delta_l: float, delta_r: float) -> tuple[float, float, OperatingRegion]:
    """(mean, diff, region) of one pair of normalized PWM commands."""
    region = classify_regions(np.array([delta_l]), np.array([delta_r]))[0]
    return (delta_l + delta_r) / 2.0, delta_l - delta_r, OperatingRegion(int(region))


def from_mean_diff(mean: float, diff: float) -> tuple[float, float, OperatingRegion]:
    return frame(mean + diff / 2.0, mean - diff / 2.0)


def by_sign(delta_l: float, delta_r: float) -> OperatingRegion:
    """The sign table: zero counts as forward."""
    return {
        (True, True): OperatingRegion.FF,
        (True, False): OperatingRegion.FR,
        (False, True): OperatingRegion.RF,
        (False, False): OperatingRegion.RR,
    }[(delta_l >= 0, delta_r >= 0)]


def random_allowed_frame(rng) -> tuple[float, float, OperatingRegion]:
    while True:
        f = frame(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if f[2] is not OperatingRegion.RR:
            return f


def input_gain(kind: str, axis: str, f, x: np.ndarray) -> float:
    """The input gain a parameter vector induces: its row at rest, bias aside.

    The static kind reads the frame at k, the dynamic kind at k-1 (the
    dynamic gain's increment from one step of PWM history).
    """
    mean, diff, region = f
    step = SimpleNamespace(u=0.0, v=0.0, r=0.0, mean=mean, diff=diff, sign=REGION_SIGN[region])
    row = np.array([float(t.column(step)) for t in TERMS[(kind, axis)]])
    row[term_index(kind, axis, "1")] = 0.0
    return float(row @ x)


def one_step_dataset(*frames) -> PreparedDataset:
    """A three-step segment at rest per frame, then an all-FF one so every system has rows."""
    mean, diff, region = np.repeat([*frames, frame(0.5, 0.5)], 3, axis=0).T
    n = mean.size
    return PreparedDataset(
        0.2, np.arange(n) // 3, t=0.2 * (np.arange(n) % 3), u=np.zeros(n), v=np.zeros(n),
        r=np.zeros(n), delta_mean=mean, delta_diff=diff, region=region.astype(np.int8),
    )


class TestClassifyRegion:
    @pytest.mark.parametrize(
        "dl,dr,expected",
        [
            (0.5, 0.5, OperatingRegion.FF),
            (0.3, -0.3, OperatingRegion.FR),
            (-0.3, 0.3, OperatingRegion.RF),
            (-0.5, -0.5, OperatingRegion.RR),
            (0.0, 0.0, OperatingRegion.FF),  # boundary goes forward
            (0.0, -0.1, OperatingRegion.FR),
            (-0.1, 0.0, OperatingRegion.RF),
        ],
    )
    def test_cases(self, dl, dr, expected):
        assert classify_regions(np.array([dl]), np.array([dr])).tolist() == [expected]
        assert by_sign(dl, dr) is expected

    def test_out_of_range(self):
        # no range check here: out-of-range commands classify by sign, NaN as
        # reverse; generate_discrete rejects them before they get this far
        codes = classify_regions(np.array([1.2, 0.0, np.nan]), np.array([0.0, -1.01, 0.5]))
        assert codes.tolist() == [OperatingRegion.FF, OperatingRegion.FR, OperatingRegion.RF]

    def test_total_and_partitions_square(self, rng):
        # every point of [-1,1]^2 lands in exactly one region, matching signs
        dl, dr = rng.uniform(-1, 1, size=(2, 1000))
        codes = classify_regions(dl, dr)
        assert codes.dtype == np.int8
        assert codes.tolist() == [by_sign(a, b) for a, b in zip(dl, dr)]

    def test_vectorized_matches_scalar(self, rng):
        dl = np.concatenate([rng.uniform(-1, 1, size=500), [0.0, 0.0, -0.0, -1e-300]])
        dr = np.concatenate([rng.uniform(-1, 1, size=500), [0.0, -1e-300, 0.0, 0.0]])
        codes = classify_regions(dl, dr)
        assert codes.tolist() == [by_sign(a, b) for a, b in zip(dl, dr)]
        assert codes[-4:].tolist() == [0, 1, 0, 2]  # -0.0 is forward, -1e-300 reverse


class TestThrustStatic:
    def test_forward_substitution(self):
        p = ThrustStaticParams(a_f=1.0, b_f=1.0, a_r=2.0, b_r=3.0)
        assert thrust_static(0.5, p) == pytest.approx(0.75)

    def test_zero_without_dead_zone(self):
        p = ThrustStaticParams(a_f=4.0, b_f=-1.0, a_r=2.0, b_r=3.0)
        assert thrust_static(0.0, p) == 0.0

    def test_reverse_branch(self):
        p = ThrustStaticParams(a_f=1.0, b_f=1.0, a_r=2.0, b_r=3.0)
        assert thrust_static(-0.5, p) == pytest.approx(2.0 * 0.25 - 3.0 * 0.5)

    def test_continuous_at_zero(self):
        p = ThrustStaticParams(a_f=8.0, b_f=12.0, a_r=5.0, b_r=9.0)
        eps = 1e-12
        assert abs(thrust_static(eps, p) - thrust_static(-eps, p)) < 1e-10

    def test_dead_zone(self):
        p = ThrustStaticParams(
            a_f=1.0, b_f=1.0, a_r=1.0, b_r=1.0, dead_zone_forward=0.1, dead_zone_reverse=-0.05
        )
        assert thrust_static(0.05, p) == 0.0
        assert thrust_static(-0.04, p) == 0.0
        # shifted quadratic outside the dead band
        assert thrust_static(0.3, p) == pytest.approx(0.2**2 + 0.2)
        assert thrust_static(-0.3, p) == pytest.approx(0.25**2 - 0.25)

    def test_dead_zone_validation(self):
        with pytest.raises(ValueError):
            ThrustStaticParams(1, 1, 1, 1, dead_zone_forward=0.1)  # missing reverse
        with pytest.raises(ValueError):
            ThrustStaticParams(1, 1, 1, 1, dead_zone_forward=-0.1, dead_zone_reverse=-0.2)

    def test_range_check(self):
        p = ThrustStaticParams(1, 1, 1, 1)
        with pytest.raises(ValueError):
            thrust_static(1.5, p)


class TestThrustDynamic:
    def test_stability_flag(self):
        static = ThrustStaticParams(1, 1, 1, 1)
        assert ThrustDynamicParams(0.9, 0.1, static).stable
        assert not ThrustDynamicParams(1.01, 0.1, static).stable


class TestPwmFrame:
    """A schedule row (PWM mean, PWM difference) and the commands it stands for."""

    def test_mean_diff_roundtrip(self, rng):
        for _ in range(1000):
            dl, dr = rng.uniform(-1, 1, size=2)
            mean, diff, _ = frame(dl, dr)
            assert mean + diff / 2.0 == dl
            assert mean - diff / 2.0 == dr

    def test_from_mean_diff(self, gt_static):
        cfg = DiscreteGenConfig(steps=3, kind="static", schedule=np.tile([0.5, 0.2], (3, 1)))
        ds = generate_discrete(gt_static, cfg)
        assert ds.delta_mean.tolist() == [0.5] * 3 and ds.delta_diff.tolist() == [0.2] * 3
        assert ds.region.tolist() == [OperatingRegion.FF] * 3

    def test_region_consistency(self, gt_static, rng):
        # the generator labels each step by the signs of mean +- diff/2
        dl, dr = rng.uniform(-1, 1, size=(2, 200))
        schedule = np.column_stack([(dl + dr) / 2.0, dl - dr])
        ds = generate_discrete(
            gt_static, DiscreteGenConfig(steps=200, kind="static", schedule=schedule)
        )
        assert ds.region.tolist() == [by_sign(a, b) for a, b in zip(dl, dr)]
        assert set(ds.region.tolist()) == {0, 1, 2, 3}

    def test_range_enforced(self, gt_static):
        # one command at 1.2 (the other at 0), then a NaN mean: both commands NaN
        for row, message in (((0.6, 1.2), r"\(1.2, 0.0\)"), ((np.nan, 0.0), r"\(nan, nan\)")):
            schedule = np.tile([0.5, 0.0], (10, 1))
            schedule[6] = row
            cfg = DiscreteGenConfig(steps=10, kind="static", schedule=schedule)
            with pytest.raises(ValueError, match=rf"schedule step 6: normalized PWM {message}"):
                generate_discrete(gt_static, cfg)


class TestStaticInputGains:
    def test_surge_reported_values(self):
        # bold surge entries of the vessel's identified static model
        x = np.array([0, 0, 0, 0, 0, -0.0145, 0.1403])
        assert input_gain("static", "u", from_mean_diff(1.0, 0.0), x) == pytest.approx(
            0.1258, abs=1e-12
        )

    def test_surge_zero_input(self):
        x = np.arange(1.0, 8.0)
        assert input_gain("static", "u", from_mean_diff(0.0, 0.0), x) == 0.0

    def test_surge_matches_direct_formula(self, rng):
        quad = term_index("static", "u", "mean^2+diff^2/4")
        lin = term_index("static", "u", "mean")
        for _ in range(300):
            x = rng.normal(size=7)
            mean = rng.uniform(0.0, 0.5)
            lim = 2.0 * min(mean, 1.0 - mean)
            diff = rng.uniform(-lim, lim) if mean > 0 else 0.0
            direct = x[quad] * (mean**2 + diff**2 / 4.0) + x[lin] * mean
            gain = input_gain("static", "u", from_mean_diff(mean, diff), x)
            assert gain == pytest.approx(direct, abs=1e-15)

    def test_surge_rejects_non_ff(self):
        # the surge gain is only identified in forward-forward: no FR surge rows
        systems = build_systems(one_step_dataset(frame(0.4, -0.2)), "static")
        assert 0 not in systems["u"].segment
        assert 0 in systems["v"].segment

    def test_swayyaw_ff_reported_values(self):
        x = np.zeros(13)
        x[term_index("static", "v", "mean*diff")] = -0.0381
        x[term_index("static", "v", "diff/2")] = -0.0505
        f = from_mean_diff(0.5, 0.2)
        assert f[2] is OperatingRegion.FF
        assert input_gain("static", "v", f, x) == pytest.approx(-0.00886, abs=1e-12)

    def test_swayyaw_zero_input(self, rng):
        x = rng.normal(size=13)
        assert input_gain("static", "v", from_mean_diff(0.0, 0.0), x) == 0.0

    def test_fr_and_rf_branch_formulas(self, rng):
        idx = [term_index("static", "v", name) for name in SWAYYAW_THRUST]
        for _ in range(200):
            x = rng.normal(size=13)
            t1, t2, t3, t4 = x[idx]
            mean = rng.uniform(0.05, 0.45)
            diff = rng.uniform(2 * mean + 0.01, min(2 * mean + 0.5, 2 * (1 - mean) - 0.01))
            fr = from_mean_diff(mean, diff)
            rf = from_mean_diff(mean, -diff)
            assert fr[2] is OperatingRegion.FR and rf[2] is OperatingRegion.RF
            m1 = mean**2 + diff**2 / 4.0
            direct_fr = t1 * m1 + t2 * mean * diff + t3 * mean + t4 * diff / 2.0
            direct_rf = -t1 * m1 + t2 * mean * (-diff) - t3 * mean + t4 * (-diff) / 2.0
            assert input_gain("static", "v", fr, x) == pytest.approx(direct_fr, abs=1e-14)
            assert input_gain("static", "v", rf, x) == pytest.approx(direct_rf, abs=1e-14)

    def test_fr_rf_same_pwm_differ_by_signed_terms(self, rng):
        # same (mean, diff) evaluated under both sign conventions
        idx = [term_index("static", "v", name) for name in SWAYYAW_THRUST]
        for _ in range(200):
            x = rng.normal(size=13)
            t1, _, t3, _ = x[idx]
            mean = rng.uniform(0.05, 0.45)
            diff = rng.uniform(2 * mean + 0.01, min(2 * mean + 0.5, 2 * (1 - mean) - 0.01))
            m1 = mean**2 + diff**2 / 4.0
            gap = (input_gain("static", "v", (mean, diff, OperatingRegion.FR), x)
                   - input_gain("static", "v", (mean, diff, OperatingRegion.RF), x))
            assert gap == pytest.approx(2.0 * (t1 * m1 + t3 * mean), rel=1e-12)

    def test_rr_rejected(self):
        systems = build_systems(one_step_dataset(frame(-0.5, -0.5)), "static")
        assert all(0 not in sys.segment for sys in systems.values())


def zero_disturbance_run(alpha: float, schedule: np.ndarray, g0) -> np.ndarray:
    """Velocity increments of the dynamic generator with no lumped disturbance.

    Each increment is then the input gain itself: g(k) = alpha*g(k-1) + thrust(k-1).
    """
    gt = default_ground_truth(dynamic=True, alpha=alpha)
    gt = replace(gt, sigma_override={
        axis: dict.fromkeys(coeffs, 0.0) for axis, coeffs in sigma_coeffs(gt).items()
    })
    cfg = DiscreteGenConfig(steps=len(schedule), kind="dynamic", schedule=schedule, g0=g0)
    ds = generate_discrete(gt, cfg)
    return np.diff(np.column_stack([ds.u, ds.v, ds.r]), axis=0)


class TestDynamicInputGain:
    def test_memoryless_pole_reduces_to_static_increment(self, rng):
        # with alpha = 0 the dynamic gain is the thrust row of the previous step
        x = rng.normal(size=21)
        idx = [term_index("dynamic", "v", f"{name}[k-1]") for name in SWAYYAW_THRUST]
        t1, t2, t3, t4 = x[idx]
        for _ in range(100):
            mean, diff, region = f = random_allowed_frame(rng)
            s = REGION_SIGN[region]
            direct = s * t1 * (mean**2 + diff**2 / 4.0) + t2 * mean * diff + s * t3 * mean + t4 * diff / 2.0
            g = input_gain("dynamic", "v", f, np.where(np.isin(np.arange(21), idx), x, 0.0))
            assert g == pytest.approx(direct, abs=1e-15)

    def test_zero_pwm_history_decays_geometrically(self):
        g0, alpha = 0.8, 0.9
        steps = np.arange(59)
        inc = zero_disturbance_run(alpha, np.zeros((60, 2)), (g0, 0.0, 0.0))
        assert np.allclose(inc[:, 0], g0 * alpha**steps, rtol=1e-12, atol=0.0)
        assert np.all(inc[:, 1:] == 0.0)

    def test_affine_in_previous_gain_with_slope_alpha(self, rng):
        alpha = 0.93
        frames = [random_allowed_frame(rng) for _ in range(100)]
        schedule = np.array([(mean, diff) for mean, diff, _ in frames])
        inc_a = zero_disturbance_run(alpha, schedule, tuple(rng.normal(size=3) * 0.1))
        inc_b = zero_disturbance_run(alpha, schedule, tuple(rng.normal(size=3) * 0.1))
        gap = inc_a - inc_b
        assert np.allclose(gap[1:], alpha * gap[:-1], rtol=1e-9, atol=1e-15)

    def test_initial_condition_sensitivity_is_alpha_power(self, rng):
        # two rollouts over one shared frame sequence, different starts
        alpha = 0.9
        schedule = np.column_stack([rng.uniform(0.0, 0.9, size=200), np.zeros(200)])
        inc_a = zero_disturbance_run(alpha, schedule, (0.7, 0.3, -0.1))
        inc_b = zero_disturbance_run(alpha, schedule, (0.2, -0.2, 0.4))
        k = np.arange(199)
        for j, gap in enumerate((0.5, 0.5, -0.5)):
            assert np.max(np.abs((inc_a[:, j] - inc_b[:, j]) - gap * alpha**k)) < 1e-12

    def test_surge_requires_ff(self):
        # the dynamic surge gain recursion needs forward-forward PWM history
        systems = build_systems(one_step_dataset(frame(0.5, -0.5)), "dynamic")
        assert 0 not in systems["u"].segment
        assert 0 in systems["v"].segment

    def test_rejects_wrong_vector_type(self):
        # a dynamic model only takes vectors in the dynamic layout
        with pytest.raises(ValueError, match="vector lengths"):
            IdentifiedModel(kind="dynamic", surge=np.zeros(7), sway=np.zeros(13),
                            yaw=np.zeros(13), alpha=0.9)
        with pytest.raises(ValueError, match="dynamic vectors"):
            resolve_alpha(np.zeros(7), np.zeros(21), np.zeros(21))

    def test_rr_rejected(self):
        systems = build_systems(one_step_dataset(frame(-0.5, -0.5)), "dynamic")
        assert all(0 not in sys.segment for sys in systems.values())
