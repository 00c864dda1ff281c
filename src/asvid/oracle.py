"""Synthetic-data generators with known ground truth.

Two generators serve different purposes:

* :func:`generate_discrete` iterates the exact discrete-time model the
  estimator assumes: it steps the regressor term table ``TERMS`` itself
  (Euler-discretized kinetics, the quasi-quadratic lumped disturbance of
  :func:`sigma_coeffs`, region-switched thrust columns).  Data from it
  admits an exact parameter vector, so identification must recover
  :func:`known_params_to_X` to numerical precision.
* :func:`simulate_blocks` integrates the full continuous-time vessel model
  (RK4), which is *not* in the identified model class, in pieces of bounded
  size; it measures how much the discretized quasi-quadratic form gives
  away on realistic trajectories.  :func:`simulate_continuous` joins them.

:func:`emit_sensor_logs` turns a continuous trajectory, whole or in pieces,
back into raw multi-rate sensor logs for end-to-end pipeline tests.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

import numpy as np

from .dataprep import (
    GeoReference,
    PreparedDataset,
    PwmMapConfig,
    RawLogBundle,
    denormalize_pwm,
)
from .dataprep import ned_to_geodetic
from .model import (
    REGION_SIGN,
    ThrustDynamicParams,
    ThrustStaticParams,
    classify_regions,
    thrust_static,
)
from .regressors import TERMS, Term, region_allowed

__all__ = [
    "GroundTruth", "sigma_coeffs", "DiscreteGenConfig", "Trajectory", "default_ground_truth",
    "known_params_to_X", "prbs_frames", "generate_discrete", "simulate_blocks",
    "simulate_continuous", "trajectory_to_dataset", "emit_sensor_logs", "smooth_excitation",
    "zoh_excitation",
]

Excitation = Callable[[float], tuple[float, float]]


@dataclass(frozen=True)
class GroundTruth:
    """Full continuous-time vessel parameters (SNAME-style derivatives).

    ``x_uu`` etc. are the quadratic damping derivatives (coefficient names
    follow the damping matrix layout: ``y_rv`` multiplies ``|r| v``,
    ``y_vr`` multiplies ``|v| r``).  ``bias`` holds the constant lumped
    disturbance accelerations (m/s^2, m/s^2, rad/s^2), i.e. the values the
    bias entries of the parameter vectors lump with h.

    ``sigma_override`` replaces the lumped disturbance's coefficients with
    freely chosen ones, in the layout of :func:`sigma_coeffs`.  Only the
    discrete oracle (:func:`known_params_to_X`, :func:`generate_discrete`)
    reads it; the continuous simulator and the ground-truth file refuse it.
    """

    m: float
    x_g: float
    i_z: float
    x_udot: float
    y_vdot: float
    y_rdot: float
    n_rdot: float
    x_u: float
    x_uu: float
    y_v: float
    y_vv: float
    y_rv: float
    y_r: float
    y_vr: float
    y_rr: float
    n_v: float
    n_vv: float
    n_rv: float
    n_r: float
    n_vr: float
    n_rr: float
    thrust: ThrustStaticParams | ThrustDynamicParams
    d: float
    bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    h: float = 0.2
    sigma_override: dict[str, dict[str, float]] | None = None

    def __post_init__(self) -> None:
        if not self.d > 0:
            raise ValueError(f"d (the propeller separation) must be > 0, got {self.d!r}")
        if not self.h > 0:
            raise ValueError(f"h (the sampling period) must be > 0, got {self.h!r}")
        m = self.mass_matrix()
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("inertia matrix is singular")

    def mass_matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.m - self.x_udot, 0.0, 0.0],
                [0.0, self.m - self.y_vdot, self.m * self.x_g - self.y_rdot],
                [0.0, self.m * self.x_g - self.y_rdot, self.i_z - self.n_rdot],
            ]
        )

    def inv_inertia(self) -> tuple[float, float, float, float]:
        """(i11, i22, i23, i33): the nonzero entries of the inverse inertia."""
        m11 = self.m - self.x_udot
        m22 = self.m - self.y_vdot
        m23 = self.m * self.x_g - self.y_rdot
        m33 = self.i_z - self.n_rdot
        det = m22 * m33 - m23 * m23
        return 1.0 / m11, m33 / det, -m23 / det, m22 / det

    @property
    def static_thrust(self) -> ThrustStaticParams:
        if isinstance(self.thrust, ThrustDynamicParams):
            return self.thrust.static_part
        return self.thrust

    @property
    def dynamic_thrust(self) -> ThrustDynamicParams:
        if not isinstance(self.thrust, ThrustDynamicParams):
            raise ValueError("ground truth carries a static thrust model")
        return self.thrust


def default_ground_truth(dynamic: bool = False, alpha: float = 0.9) -> GroundTruth:
    """Catamaran-scale defaults (1.3 m, ~30 kg, twin thrusters 0.8 m apart).

    With ``dynamic=True`` the thrust model gains a first-order lag of pole
    ``alpha`` and unit steady-state gain (beta = 1 - alpha).
    """
    static = ThrustStaticParams(a_f=8.0, b_f=12.0, a_r=5.0, b_r=9.0)
    thrust: ThrustStaticParams | ThrustDynamicParams = static
    if dynamic:
        thrust = ThrustDynamicParams(alpha=alpha, beta=1.0 - alpha, static_part=static)
    return GroundTruth(
        m=30.0, x_g=0.05, i_z=6.5, x_udot=-3.0, y_vdot=-6.0, y_rdot=-0.6, n_rdot=-2.5,
        x_u=-6.0, x_uu=-8.0,
        y_v=-30.0, y_vv=-25.0, y_rv=-3.0, y_r=-2.0, y_vr=-2.0, y_rr=-1.0,
        n_v=-1.0, n_vv=-1.0, n_rv=-0.3, n_r=-6.0, n_vr=-0.8, n_rr=-2.5,
        thrust=thrust, d=0.8, bias=(0.02, 0.015, -0.01), h=0.2,
    )


def sigma_coeffs(gt: GroundTruth) -> dict[str, dict[str, float]]:
    """Lumped quasi-quadratic disturbance coefficients per axis.

    Each axis' coefficients are keyed by the names of the static layout's
    non-thrust terms (``"u|u|"``, ``"v*r"``, ..., ``"1"``), so the
    disturbance at nu is the sum of those columns at nu times their
    coefficients.  For this 3-DOF structure with a constant environmental
    force the lumped disturbance M^-1(-C nu - D nu + tau_w) is exactly
    quasi-quadratic in the body velocity, so the coefficients derive from
    the Fossen parameters; a ``sigma_override`` on the ground truth replaces
    them with freely chosen values.
    """
    if gt.sigma_override is not None:
        return gt.sigma_override
    i11, i22, i23, i33 = gt.inv_inertia()
    surge = {
        "u|u|": gt.x_uu * i11, "v*r": (gt.m - gt.y_vdot) * i11,
        "r^2": (gt.m * gt.x_g - gt.y_rdot) * i11, "u": gt.x_u * i11, "1": gt.bias[0],
    }

    def swayyaw(w2: float, w3: float, c: float) -> dict[str, float]:
        return {
            "v|v|": w2 * gt.y_vv + w3 * gt.n_vv, "v|r|": w2 * gt.y_rv + w3 * gt.n_rv,
            "r|v|": w2 * gt.y_vr + w3 * gt.n_vr, "r|r|": w2 * gt.y_rr + w3 * gt.n_rr,
            "u*v": w3 * (gt.y_vdot - gt.x_udot),
            "u*r": -w2 * (gt.m - gt.x_udot) - w3 * (gt.m * gt.x_g - gt.y_rdot),
            "v": w2 * gt.y_v + w3 * gt.n_v, "r": w2 * gt.y_r + w3 * gt.n_r, "1": c,
        }

    return {"u": surge, "v": swayyaw(i22, i23, gt.bias[1]), "r": swayyaw(i23, i33, gt.bias[2])}


def known_params_to_X(gt: GroundTruth, kind: str) -> dict[str, np.ndarray]:
    """Ground truth -> the exact lumped parameter vectors the estimator targets.

    One entry per term of ``TERMS[(kind, axis)]``, in the table's order,
    with c the term's :func:`sigma_coeffs` coefficient.  A static entry is
    h*c.  In the dynamic kind a lagged entry is -alpha*h*c, the axis' own
    velocity is alpha + h*c at k and -alpha*(1 + h*c) at k-1, and the bias
    is h*(1 - alpha)*c.  A thrust entry is h*g times the thrust-curve
    combination of its column, times beta in the dynamic kind, with g the
    axis' gain from the propeller forces (2*i11, or i23*d/2 and i33*d/2).
    """
    if kind not in ("static", "dynamic"):
        raise ValueError(f"unknown model kind {kind!r}")
    h = gt.h
    i11, _, i23, i33 = gt.inv_inertia()
    sigma = sigma_coeffs(gt)
    ts = gt.static_thrust
    gain = {"u": 2.0 * i11, "v": i23 * gt.d / 2.0, "r": i33 * gt.d / 2.0}
    curve = {
        "mean^2+diff^2/4": ts.a_f, "mean": ts.b_f,
        "s*(mean^2+diff^2/4)": ts.a_f - ts.a_r, "mean*diff": ts.a_f + ts.a_r,
        "s*mean": ts.b_f - ts.b_r, "diff/2": ts.b_f + ts.b_r,
    }
    if kind == "dynamic":
        alpha, beta = gt.dynamic_thrust.alpha, gt.dynamic_thrust.beta

    def entry(axis: str, t: Term) -> float:
        name = t.name.removesuffix("[k-1]")
        if t.thrust:
            x = curve[name]
            return h * (gain[axis] * x) if kind == "static" else h * beta * gain[axis] * x
        c = sigma[axis][name]
        if kind == "static":
            return h * c
        if name == axis:
            return -alpha * (1.0 + h * c) if t.lag else alpha + h * c
        if name == "1":
            return h * (1.0 - alpha) * c
        return -alpha * h * c if t.lag else h * c

    return {axis: np.array([entry(axis, t) for t in TERMS[(kind, axis)]]) for axis in "uvr"}


def prbs_frames(
    steps: int,
    seed: int,
    mean_levels: tuple[float, ...] = (0.1, 0.2, 0.35, 0.8),
    diff_levels: tuple[float, ...] = (-0.9, -0.6, 0.0, 0.6, 0.9),
    hold: int = 5,
) -> np.ndarray:
    """Pseudo-random level-switching excitation, (steps, 2) of (mean, diff).

    Levels switch independently every ``hold`` steps.  Combinations that
    would push a propeller past full scale are clipped per propeller and
    the mean/difference recomputed, so every emitted frame is realizable.

    The default levels are chosen so the split-region steps visit at least
    four linearly independent patterns of the thrust monomials
    (mean^2+diff^2/4, mean*diff, mean, diff/2); two mean levels alone leave
    the four asymmetric thrust parameters unidentifiable.
    """
    rng = np.random.default_rng(seed)
    n_holds = -(-steps // hold)
    means = rng.choice(mean_levels, size=n_holds).repeat(hold)[:steps]
    diffs = rng.choice(diff_levels, size=n_holds).repeat(hold)[:steps]
    left = np.clip(means + diffs / 2.0, -1.0, 1.0)
    right = np.clip(means - diffs / 2.0, -1.0, 1.0)
    return np.column_stack([(left + right) / 2.0, left - right])


@dataclass(frozen=True)
class DiscreteGenConfig:
    """Settings for the exact discrete generator.

    ``schedule`` is a (steps, 2) array of (PWM mean, PWM difference); when
    omitted a pseudo-random level sequence from ``seed`` is used.  Noise is
    measurement noise added to the recorded velocities, never fed back into
    the dynamics.  ``n_segments`` chops the run into equal contiguous
    segments.

    ``g0_scale`` (dynamic kind) draws an independent random initial
    input-gain state per segment.  Sway and yaw gains are exactly
    proportional when both start from rest (they share the torque), which
    leaves one direction of the dynamic sway/yaw vectors unidentifiable from
    perfectly consistent data; unmatched initial states at segment starts
    break that degeneracy while keeping every row exactly in class.
    """

    steps: int = 2000
    kind: str = "static"
    nu0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    schedule: np.ndarray | None = None
    noise_std: tuple[float, float, float] = (0.0, 0.0, 0.0)
    seed: int = 0
    n_segments: int = 1
    g0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    g0_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.steps < 3:
            raise ValueError("need at least 3 steps")
        if self.kind not in ("static", "dynamic"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if any(s < 0 for s in self.noise_std):
            raise ValueError("noise std must be non-negative")
        if self.n_segments < 1 or self.n_segments > self.steps // 3:
            raise ValueError("n_segments out of range")
        if self.g0_scale < 0:
            raise ValueError("g0_scale must be non-negative")
        if self.g0_scale > 0 and self.kind != "dynamic":
            raise ValueError("g0_scale only applies to dynamic generation")


_DIVERGENCE_BOUND = 50.0


def generate_discrete(gt: GroundTruth, cfg: DiscreteGenConfig) -> PreparedDataset:
    """Iterate the identification-class dynamics step by step.

    Velocities follow ``nu(k+1) = nu(k) + G(k) + h*sigma(nu(k))``.  The term
    h*sigma is the static layout's non-thrust columns of ``TERMS`` at nu(k)
    times their :func:`known_params_to_X` entries.  Each step's input is the
    thrust columns times their entries where the axis admits the step's
    region (:func:`region_allowed`), and the physical thrust map elsewhere:
    reverse-reverse steps, and surge outside forward-forward.  The static
    kind takes the input of step k as G(k); the dynamic kind passes it
    through the pole, G(k) = alpha*G(k-1) + input(k-1), with the physical
    map scaled by beta.  Every regression row the builders emit is thus
    exactly consistent with the vectors of :func:`known_params_to_X`, dead
    zones included.
    """
    if cfg.kind == "dynamic" and not isinstance(gt.thrust, ThrustDynamicParams):
        raise ValueError("dynamic generation needs a dynamic thrust model in the ground truth")
    h = gt.h
    i11, _, i23, i33 = gt.inv_inertia()
    schedule = cfg.schedule if cfg.schedule is not None else prbs_frames(cfg.steps, cfg.seed)
    schedule = np.asarray(schedule, dtype=float)
    if schedule.shape != (cfg.steps, 2):
        raise ValueError(f"schedule must have shape ({cfg.steps}, 2)")
    left = schedule[:, 0] + schedule[:, 1] / 2.0
    right = schedule[:, 0] - schedule[:, 1] / 2.0
    bad = np.flatnonzero(~((np.abs(left) <= 1.0) & (np.abs(right) <= 1.0)))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"schedule step {k}: normalized PWM ({left[k]}, {right[k]}) is not finite "
            "or out of [-1, 1]"
        )
    region = classify_regions(left, right)

    # Every step's input, per axis: in class where the axis admits the region.
    step = SimpleNamespace(mean=(left + right) / 2.0, diff=left - right, sign=REGION_SIGN[region])
    x = known_params_to_X(gt, cfg.kind)
    ts = gt.static_thrust
    t_l = np.array([thrust_static(d, ts) for d in left.tolist()])
    t_r = np.array([thrust_static(d, ts) for d in right.tolist()])
    force, tau = t_l + t_r, 0.5 * gt.d * (t_l - t_r)
    scale = h * gt.dynamic_thrust.beta if cfg.kind == "dynamic" else h
    physical = {"u": scale * i11 * force, "v": scale * i23 * tau, "r": scale * i33 * tau}
    # Memoryviews index to Python floats without a per-step list of them.
    in_u, in_v, in_r = (
        memoryview(np.where(
            region_allowed(axis, region),
            sum(t.column(step) * e for t, e in zip(TERMS[(cfg.kind, axis)], x[axis]) if t.thrust),
            physical[axis],
        ))
        for axis in "uvr"
    )

    # h*sigma: the static non-thrust columns and their entries, per axis.
    x_static = known_params_to_X(gt, "static")
    sigma_u, sigma_v, sigma_r = (
        [(t.column, e) for t, e in zip(TERMS[("static", axis)], x_static[axis]) if not t.thrust]
        for axis in "uvr"
    )
    nu = SimpleNamespace()
    dynamic = cfg.kind == "dynamic"
    if dynamic:
        alpha = gt.dynamic_thrust.alpha

    def run(a: int, b: int, g0) -> np.ndarray:
        """Steps a..b-1 from velocity nu0; the dynamic kind starts at gain state g0."""
        u, v, r = (float(c) for c in cfg.nu0)
        g_u, g_v, g_r = (float(c) for c in g0)
        out = np.empty((b - a, 3))
        for k in range(a, b):
            out[k - a] = u, v, r
            if not dynamic:
                g_u, g_v, g_r = in_u[k], in_v[k], in_r[k]
            elif k > a:
                p = k - 1
                g_u, g_v, g_r = alpha * g_u + in_u[p], alpha * g_v + in_v[p], alpha * g_r + in_r[p]
            nu.u, nu.v, nu.r = u, v, r
            u, v, r = (
                u + g_u + sum(e * column(nu) for column, e in sigma_u),
                v + g_v + sum(e * column(nu) for column, e in sigma_v),
                r + g_r + sum(e * column(nu) for column, e in sigma_r),
            )
            if math.hypot(u, v, r) > _DIVERGENCE_BOUND:
                raise RuntimeError(f"discrete generation diverged at step {k - a}")
        return out

    bounds = np.linspace(0, cfg.steps, cfg.n_segments + 1).astype(int)
    if cfg.g0_scale == 0.0:
        nus = run(0, cfg.steps, cfg.g0)
    else:
        # Independent segments with their own initial input-gain state.
        g0_rng = np.random.default_rng(cfg.seed + 2)
        nus = np.concatenate([
            run(a, b, np.asarray(cfg.g0) + g0_rng.normal(0.0, cfg.g0_scale, 3))
            for a, b in zip(bounds[:-1], bounds[1:])
        ])

    if any(s > 0 for s in cfg.noise_std):
        rng = np.random.default_rng(cfg.seed + 1)
        nus = nus + rng.normal(0.0, cfg.noise_std, size=nus.shape)

    return PreparedDataset(
        h, np.repeat(np.arange(cfg.n_segments), np.diff(bounds)),
        t=h * np.arange(cfg.steps), u=nus[:, 0], v=nus[:, 1], r=nus[:, 2],
        # Copies, so the dataset never aliases the caller's schedule.
        delta_mean=schedule[:, 0].copy(), delta_diff=schedule[:, 1].copy(), region=region,
    )


@dataclass
class Trajectory:
    """Continuous simulation output on a fine, uniform time grid, from row ``start`` of the run."""

    t: np.ndarray
    eta: np.ndarray  # (n, 3): x, y, psi
    nu: np.ndarray  # (n, 3): u, v, r
    delta: np.ndarray  # (n, 2): delta_l, delta_r
    dt: float
    h: float
    start: int = 0


def smooth_excitation(
    mean_center: float = 0.55,
    mean_amp: float = 0.12,
    mean_freq: float = 0.005,
    diff_amp: float = 0.1,
    diff_freq: float = 0.0035,
    diff_phase: float = 0.5,
) -> Excitation:
    """Slow two-sine schedule on (mean, difference); returns (delta_l, delta_r)."""

    def schedule(t: float) -> tuple[float, float]:
        mean = mean_center + mean_amp * math.sin(2.0 * math.pi * mean_freq * t)
        diff = diff_amp * math.sin(2.0 * math.pi * diff_freq * t + diff_phase)
        return mean + diff / 2.0, mean - diff / 2.0

    return schedule


def zoh_excitation(frames: np.ndarray, h: float) -> Excitation:
    """Hold a (steps, 2) (mean, diff) schedule constant over each h interval.

    The schedule's ``hold`` attribute is ``h``; :func:`simulate_blocks`
    reads it to keep each RK4 substep inside one interval.
    """
    frames = np.asarray(frames, dtype=float)
    # Memoryviews index to Python floats without a per-frame list of them.
    left = memoryview(frames[:, 0] + frames[:, 1] / 2.0)
    right = memoryview(frames[:, 0] - frames[:, 1] / 2.0)
    last = len(frames) - 1

    def schedule(t: float) -> tuple[float, float]:
        i = min(int(t / h + 1e-9), last)
        return left[i], right[i]

    schedule.hold = h
    return schedule


# Rows per piece of simulate_blocks: 0.29 MB of t, eta, nu and delta, beside
# one 0.46 MB buffer of 14 floats a row that every piece of a run reuses.
_BLOCK_STEPS = 4096
_ROW = struct.Struct("14d")  # a substep's (u, v, r) at its four RK4 stages and its command


def _time_grid(gt: GroundTruth, duration: float, dt: float | None) -> tuple[float, int, int]:
    """(dt, substeps per h, substeps of the run) of a continuous simulation."""
    dt = dt if dt is not None else gt.h / 20.0
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    n_sub = round(gt.h / dt)
    if n_sub < 1 or abs(n_sub * dt - gt.h) > 1e-9:
        raise ValueError("dt must divide the sampling period h")
    if not duration >= 0:
        raise ValueError(f"duration must be >= 0, got {duration!r}")
    return dt, n_sub, int(round(duration / dt))


def simulate_blocks(
    gt: GroundTruth,
    excitation: Excitation,
    duration: float,
    dt: float | None = None,
    nu0: tuple[float, float, float] = (0.0, 0.0, 0.0),
    eta0: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> Iterator[Trajectory]:
    """Fixed-step RK4 integration of the full vessel model, yielded in pieces.

    Kinetics: M nu_dot = -(C(nu) + D(nu)) nu + tau_w + tau with the thrust
    force/torque from the excitation schedule (no lateral force), kinematics
    eta_dot = R(psi) nu.  A dynamic thrust model updates its first-order
    state at each sampling instant h and holds it in between.  A held
    schedule (one with a ``hold`` attribute, see :func:`zoh_excitation`)
    gives static thrust evaluated once per substep, at its start, so no
    stage of the last substep of an interval sees the next interval; with
    dynamic thrust it is called once per hold interval if dt divides it.

    Row k of the n = duration/dt substeps is the state at ``t[k] = k*dt``
    and the command given there.  The pieces tile rows 0..n in order, at
    most ``_BLOCK_STEPS`` rows each, so memory does not grow with the
    duration; a divergence raises after the pieces before it.

    The kinetics never read the pose, so each substep works on three Python
    floats (u, v, r) and the thrust state in a fixed arithmetic order: stage
    states ``x + (0.5*dt)*k`` and ``x + dt*k3``, the update
    ``x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4)`` summed left to right, and
    ``t[k] = k*dt``.  A substep packs its stage velocities and command into
    one row of a buffer that every piece reuses; a piece gets copies of its
    ``nu`` and ``delta`` columns.  Once per piece, :func:`_pose_pass` integrates the pose from them with
    numpy in the same expression order, and a sequential ``cumsum`` adds the
    increments as the scalar loop would.  Numpy's elementwise float64
    operations are IEEE operations, never fused, and its cos and sin give
    libm's bits (a test checks that), so trajectories are bitwise reproducible
    and tests pin their SHA-256.
    """
    if gt.sigma_override is not None:
        raise ValueError("the continuous simulator integrates the Fossen model; "
                         "it cannot follow a sigma_override")
    dt, n_sub, n_steps = _time_grid(gt, duration, dt)
    dynamic = isinstance(gt.thrust, ThrustDynamicParams)
    # The dynamic branch calls a held schedule once per hold of n_hold
    # substeps, and any other schedule at every substep.
    held = hasattr(excitation, "hold")
    n_hold = round(excitation.hold / dt) if held else 0
    if n_hold < 1 or abs(n_hold * dt - excitation.hold) > 1e-9:
        if held and not dynamic:
            raise ValueError("dt must divide the hold interval of the excitation")
        n_hold = 1

    m = gt.m
    a1 = m - gt.y_vdot
    a2 = m * gt.x_g - gt.y_rdot
    a3 = m - gt.x_udot
    i11, i22, i23, i33 = gt.inv_inertia()
    tau_w = gt.mass_matrix() @ np.asarray(gt.bias)
    tw1, tw2, tw3 = (float(w) for w in tau_w)
    ts = gt.static_thrust
    half_d = 0.5 * gt.d
    x_u, x_uu = gt.x_u, gt.x_uu
    y_v, y_vv, y_rv, y_r, y_vr, y_rr = gt.y_v, gt.y_vv, gt.y_rv, gt.y_r, gt.y_vr, gt.y_rr
    n_v, n_vv, n_rv, n_r, n_vr, n_rr = gt.n_v, gt.n_vv, gt.n_rv, gt.n_r, gt.n_vr, gt.n_rr

    def forces_at(time: float) -> tuple[float, float, float, float]:
        """Static-thrust surge force and yaw torque, and the commands, at ``time``."""
        dl, dr = excitation(time)
        tl, tr = thrust_static(dl, ts), thrust_static(dr, ts)
        return tl + tr, half_d * (tl - tr), dl, dr

    x, y, psi = (float(c) for c in eta0)
    u, v, r = (float(c) for c in nu0)
    half, sixth = 0.5 * dt, dt / 6.0
    pack_row, row_bytes = _ROW.pack_into, _ROW.size

    # Dynamic thrust state per propeller, updated at multiples of h; the
    # forces it gives hold until the next update.
    t_l = t_r = 0.0
    fu_a = fu_b = fu_c = t_l + t_r
    tr_a = tr_b = tr_c = half_d * (t_l - t_r)

    # Per row, (u, v, r) at each of the four stages, then the command.  One
    # buffer serves every piece, which gets copies of its columns.
    rows = np.empty((min(_BLOCK_STEPS, n_steps + 1), 14))
    for start in range(0, n_steps + 1, _BLOCK_STEPS):
        stop = min(start + _BLOCK_STEPS, n_steps + 1)
        steps = min(stop, n_steps) - start  # the last piece's final row is no substep
        at = 0  # the byte offset of row k - start
        for k in range(start, start + steps):
            tk = k * dt
            if dynamic:
                if k % n_hold == 0:
                    dl, dr = excitation(tk)
                if k % n_sub == 0:
                    if k > 0:
                        dyn = gt.dynamic_thrust
                        t_l = dyn.alpha * t_l + dyn.beta * thrust_static(prev_dl, ts)
                        t_r = dyn.alpha * t_r + dyn.beta * thrust_static(prev_dr, ts)
                        fu_a = fu_b = fu_c = t_l + t_r
                        tr_a = tr_b = tr_c = half_d * (t_l - t_r)
                    prev_dl, prev_dr = dl, dr
            else:
                fu_a, tr_a, dl, dr = forces_at(tk)
                if held:
                    fu_b = fu_c = fu_a
                    tr_b = tr_c = tr_a
                else:
                    fu_b, tr_b, _, _ = forces_at(tk + half)
                    fu_c, tr_c, _, _ = forces_at(tk + dt)

            # The kinetics at the four stages; the pose never enters them.
            av, ar = abs(v), abs(r)
            c13, c23 = -a1 * v - a2 * r, a3 * u
            du1 = i11 * (-c13 * r + (x_u + x_uu * abs(u)) * u + tw1 + fu_a)
            f2 = (-c23 * r + (y_v + y_vv * av + y_rv * ar) * v
                  + (y_r + y_vr * av + y_rr * ar) * r + tw2)
            f3 = (c13 * u + c23 * v + (n_v + n_vv * av + n_rv * ar) * v
                  + (n_r + n_vr * av + n_rr * ar) * r + tw3 + tr_a)
            dv1, dr1 = i22 * f2 + i23 * f3, i23 * f2 + i33 * f3
            u2, v2, r2 = u + half * du1, v + half * dv1, r + half * dr1

            av, ar = abs(v2), abs(r2)
            c13, c23 = -a1 * v2 - a2 * r2, a3 * u2
            du2 = i11 * (-c13 * r2 + (x_u + x_uu * abs(u2)) * u2 + tw1 + fu_b)
            f2 = (-c23 * r2 + (y_v + y_vv * av + y_rv * ar) * v2
                  + (y_r + y_vr * av + y_rr * ar) * r2 + tw2)
            f3 = (c13 * u2 + c23 * v2 + (n_v + n_vv * av + n_rv * ar) * v2
                  + (n_r + n_vr * av + n_rr * ar) * r2 + tw3 + tr_b)
            dv2, dr2 = i22 * f2 + i23 * f3, i23 * f2 + i33 * f3
            u3, v3, r3 = u + half * du2, v + half * dv2, r + half * dr2

            av, ar = abs(v3), abs(r3)
            c13, c23 = -a1 * v3 - a2 * r3, a3 * u3
            du3 = i11 * (-c13 * r3 + (x_u + x_uu * abs(u3)) * u3 + tw1 + fu_b)
            f2 = (-c23 * r3 + (y_v + y_vv * av + y_rv * ar) * v3
                  + (y_r + y_vr * av + y_rr * ar) * r3 + tw2)
            f3 = (c13 * u3 + c23 * v3 + (n_v + n_vv * av + n_rv * ar) * v3
                  + (n_r + n_vr * av + n_rr * ar) * r3 + tw3 + tr_b)
            dv3, dr3 = i22 * f2 + i23 * f3, i23 * f2 + i33 * f3
            u4, v4, r4 = u + dt * du3, v + dt * dv3, r + dt * dr3

            av, ar = abs(v4), abs(r4)
            c13, c23 = -a1 * v4 - a2 * r4, a3 * u4
            du4 = i11 * (-c13 * r4 + (x_u + x_uu * abs(u4)) * u4 + tw1 + fu_c)
            f2 = (-c23 * r4 + (y_v + y_vv * av + y_rv * ar) * v4
                  + (y_r + y_vr * av + y_rr * ar) * r4 + tw2)
            f3 = (c13 * u4 + c23 * v4 + (n_v + n_vv * av + n_rv * ar) * v4
                  + (n_r + n_vr * av + n_rr * ar) * r4 + tw3 + tr_c)
            dv4, dr4 = i22 * f2 + i23 * f3, i23 * f2 + i33 * f3

            pack_row(rows, at, u, v, r, u2, v2, r2, u3, v3, r3, u4, v4, r4, dl, dr)
            at += row_bytes
            u = u + sixth * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
            v = v + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
            r = r + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
            if math.hypot(u, v, r) > _DIVERGENCE_BOUND:
                raise RuntimeError(f"continuous simulation diverged at step {k + 1}")
        if stop > n_steps:  # row n: the final state, at every stage, and the command at its time
            pack_row(rows, at, *(u, v, r) * 4, *excitation(n_steps * dt))
        pose = np.empty((steps + 1, 3))
        pose[0] = x, y, psi
        _pose_pass(pose, rows[:steps, :12], half, dt, sixth)
        x, y, psi = pose[steps].tolist()
        yield Trajectory(
            t=dt * np.arange(start, stop), eta=pose[:stop - start],
            nu=rows[:stop - start, :3].copy(), delta=rows[:stop - start, 12:].copy(),
            dt=dt, h=gt.h, start=start,
        )


def _pose_pass(pose: np.ndarray, rows: np.ndarray, half: float, dt: float, sixth: float) -> None:
    """Fill rows 1..m of ``pose`` (x, y, psi) from its row 0 and the m substeps' stage velocities.

    ``rows[:, 3*i:3*i + 3]`` holds (u, v, r) at stage i + 1 of each substep.
    Each value is the scalar RK4's expression in its order, and ``cumsum``
    adds the increments one after another.
    """
    u1, v1, r1, u2, v2, r2, u3, v3, r3, u4, v4, r4 = rows.T
    pose[1:, 2] = sixth * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
    np.cumsum(pose[:, 2], out=pose[:, 2])
    psi = pose[:-1, 2]

    def rotated(ang: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, s = np.cos(ang), np.sin(ang)
        return c * u - s * v, s * u + c * v

    k1x, k1y = rotated(psi, u1, v1)
    k2x, k2y = rotated(psi + half * r1, u2, v2)
    k3x, k3y = rotated(psi + half * r2, u3, v3)
    k4x, k4y = rotated(psi + dt * r3, u4, v4)
    pose[1:, 0] = sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    pose[1:, 1] = sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    np.cumsum(pose[:, :2], axis=0, out=pose[:, :2])


def simulate_continuous(
    gt: GroundTruth,
    excitation: Excitation,
    duration: float,
    dt: float | None = None,
    nu0: tuple[float, float, float] = (0.0, 0.0, 0.0),
    eta0: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> Trajectory:
    """The whole run of :func:`simulate_blocks`: its pieces copied into arrays of n + 1 rows."""
    dt, _, n_steps = _time_grid(gt, duration, dt)
    n = n_steps + 1
    traj = Trajectory(t=dt * np.arange(n), eta=np.empty((n, 3)), nu=np.empty((n, 3)),
                      delta=np.empty((n, 2)), dt=dt, h=gt.h)
    for piece in simulate_blocks(gt, excitation, duration, dt, nu0, eta0):
        rows = slice(piece.start, piece.start + piece.t.size)
        traj.eta[rows], traj.nu[rows], traj.delta[rows] = piece.eta, piece.nu, piece.delta
    return traj


def trajectory_to_dataset(traj: Trajectory, n_segments: int = 1) -> PreparedDataset:
    """Sample the exact simulator state at the h grid (no sensor pipeline)."""
    stride = round(traj.h / traj.dt)
    idx = np.arange(0, traj.t.size, stride)
    mean = 0.5 * (traj.delta[idx, 0] + traj.delta[idx, 1])
    diff = traj.delta[idx, 0] - traj.delta[idx, 1]
    region = classify_regions(traj.delta[idx, 0], traj.delta[idx, 1])
    bounds = np.linspace(0, idx.size, n_segments + 1).astype(int)
    return PreparedDataset(
        traj.h, np.repeat(np.arange(n_segments), np.diff(bounds)),
        t=traj.t[idx], u=traj.nu[idx, 0], v=traj.nu[idx, 1], r=traj.nu[idx, 2],
        delta_mean=mean, delta_diff=diff, region=region,
    )


@dataclass(frozen=True)
class SensorNoise:
    """Optional measurement noise for emitted logs."""

    pos_m: float = 0.0
    psi_rad: float = 0.0
    pwm_us: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("pos_m", "psi_rad", "pwm_us"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite level >= 0")


_LOG_PERIODS = {"gnss": 0.2, "heading": 0.02, "pwm": 0.1}  # s: 5 Hz, 50 Hz, 10 Hz


def _log_rows(log: str, period: float, piece: Trajectory) -> slice:
    """The rows of ``piece`` whose index in the run is a multiple of ``log``'s period over dt."""
    dt = piece.dt
    stride = round(period / dt)
    if stride < 1 or abs(stride * dt - period) > 1e-9:
        raise ValueError(f"dt {dt:g} s does not divide the {log} log period {period:g} s")
    return slice(-piece.start % stride, piece.t.size, stride)


def _log_samples(piece: Trajectory) -> tuple[tuple[np.ndarray, ...], ...]:
    """Copies of the GNSS (t, x, y, psi), heading (t, psi) and PWM (t, delta_l, delta_r)
    samples; views would keep every piece alive."""
    gi, hi, pi_ = (_log_rows(log, period, piece) for log, period in _LOG_PERIODS.items())
    return tuple(tuple(column.copy() for column in log) for log in (
        (piece.t[gi], piece.eta[gi, 0], piece.eta[gi, 1], piece.eta[gi, 2]),
        (piece.t[hi], piece.eta[hi, 2]),
        (piece.t[pi_], piece.delta[pi_, 0], piece.delta[pi_, 1]),
    ))


def _joined(columns: tuple[np.ndarray, ...]) -> np.ndarray:
    """One column's samples from every piece; a lone piece's uncopied, to keep the peak down."""
    return columns[0] if len(columns) == 1 else np.concatenate(columns)


def emit_sensor_logs(
    traj: Trajectory | Iterable[Trajectory], ref: GeoReference, noise: SensorNoise | None = None
) -> RawLogBundle:
    """Turn a simulated trajectory into raw multi-rate sensor logs.

    Inverts the preparation pipeline: body-origin positions move to the
    antenna, NED positions become geodetic fixes (5 Hz), headings are
    wrapped to (-pi, pi] (50 Hz), and normalized PWM commands become pulse
    widths in us under the default :class:`PwmMapConfig` (10 Hz).

    ``traj`` is a whole trajectory or the pieces of :func:`simulate_blocks`.
    Each log keeps the rows k that are multiples of its period over dt (a
    ValueError naming the log if dt does not divide it), at ``t[k]``.  The
    noise is drawn after the last piece, so both forms give the same bits.
    """
    pieces = [traj] if isinstance(traj, Trajectory) else traj
    gnss, heading, pwm = zip(*map(_log_samples, pieces))  # per log: the samples of each piece
    gnss_t, x, y, psi_g = map(_joined, zip(*gnss))
    heading_t, psi = map(_joined, zip(*heading))
    pwm_t, delta_l, delta_r = map(_joined, zip(*pwm))
    del gnss, heading, pwm  # the per-piece copies, so they are not held through the noise

    noise = noise or SensorNoise()
    pwm_map = PwmMapConfig()
    rng = np.random.default_rng(noise.seed)
    ox, oy = ref.antenna_offset
    ax = x + np.cos(psi_g) * ox - np.sin(psi_g) * oy
    ay = y + np.sin(psi_g) * ox + np.cos(psi_g) * oy
    if noise.pos_m > 0:
        ax += rng.normal(0.0, noise.pos_m, ax.shape)
        ay += rng.normal(0.0, noise.pos_m, ay.shape)
    lat, lon = ned_to_geodetic(ax, ay, ref)

    # In place on the sample copies: the same operations as psi + noise, wrapped.
    if noise.psi_rad > 0:
        psi += rng.normal(0.0, noise.psi_rad, psi.shape)
    psi += math.pi
    np.mod(psi, 2.0 * math.pi, out=psi)
    psi -= math.pi

    pwm_l = denormalize_pwm(delta_l, pwm_map)
    pwm_r = denormalize_pwm(delta_r, pwm_map)
    if noise.pwm_us > 0:
        pwm_l += rng.normal(0.0, noise.pwm_us, pwm_l.shape)
        pwm_r += rng.normal(0.0, noise.pwm_us, pwm_r.shape)

    return RawLogBundle(
        gnss_t=gnss_t,
        lat=lat,
        lon=lon,
        heading_t=heading_t,
        psi=psi,
        pwm_t=pwm_t,
        pwm_l=pwm_l,
        pwm_r=pwm_r,
    )
