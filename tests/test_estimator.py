import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asvid.errors import DataError
from asvid.estimator import (
    CONDITION_WARN_THRESHOLD,
    _solve_segments,
    identify_from_systems,
    resolve_alpha,
    solve_least_squares,
)
from asvid.oracle import (
    DiscreteGenConfig,
    default_ground_truth,
    generate_discrete,
    known_params_to_X,
    prbs_frames,
)
from asvid.regressors import RegressionSystem, RowBlock, build_systems


_SHAPE_TO_KIND = {7: ("static", "u"), 13: ("static", "v"), 11: ("dynamic", "u"), 21: ("dynamic", "v")}


def own_rows(a, b, segment, k, kind="static", axis="u"):
    """A system on a block of its own rows, in its own column order."""
    n, p = a.shape
    return RegressionSystem(RowBlock(a, b[None], segment, k), 0, np.arange(p), kind, axis,
                            np.zeros(n))


def system_from(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    kind, axis = _SHAPE_TO_KIND[a.shape[1]]
    return own_rows(a, b, np.zeros(a.shape[0], dtype=int), np.arange(a.shape[0]), kind, axis)


def fabricate_pole_vectors(alpha, rs):
    xu, xv, xr = np.zeros(11), np.zeros(21), np.zeros(21)
    xu[0], xu[4] = alpha + rs[0], -alpha * (1 + rs[0])
    xv[0], xv[7] = alpha + rs[1], -alpha * (1 + rs[1])
    xr[0], xr[8] = alpha + rs[2], -alpha * (1 + rs[2])
    return xu, xv, xr


class TestSolveLeastSquares:
    def test_identity_system(self, rng):
        b = rng.normal(size=7)
        rep = solve_least_squares(system_from(np.eye(7), b))
        assert np.allclose(rep.solution, b, atol=1e-14)
        assert rep.residual_norm < 1e-14
        assert rep.rank == 7 and not rep.rank_deficient

    def test_consistent_square_system(self):
        a = np.zeros((13, 13))
        a[:2, :2] = [[2.0, 1.0], [1.0, 3.0]]
        a[2:, 2:] = np.eye(11)
        x_true = np.arange(1.0, 14.0)
        rep = solve_least_squares(system_from(a, a @ x_true))
        assert np.max(np.abs(rep.solution - x_true)) < 1e-12

    def test_recovers_solution_under_orthogonal_residual(self, rng):
        a = rng.normal(size=(500, 13))
        x_true = rng.normal(size=13)
        z = rng.normal(size=500)
        # residual component orthogonal to the column space
        q, _ = np.linalg.qr(a)
        n = z - q @ (q.T @ z)
        rep = solve_least_squares(system_from(a, a @ x_true + n))
        assert np.max(np.abs(rep.solution - x_true)) < 1e-10
        assert rep.residual_norm == pytest.approx(np.linalg.norm(n), rel=1e-10)

    def test_underdetermined_rejected(self):
        with pytest.raises(DataError):
            solve_least_squares(system_from(np.ones((5, 7)), np.ones(5)))

    def test_rank_deficient_minimum_norm(self, rng):
        base = rng.normal(size=(50, 6))
        a = np.column_stack([base, base[:, 0]])  # duplicated column
        x = rng.normal(size=7)
        rep = solve_least_squares(system_from(a, a @ x))
        assert rep.rank_deficient and rep.rank == 6
        # among all zero-residual solutions, the returned one has minimal norm
        assert rep.residual_norm < 1e-10
        assert np.linalg.norm(rep.solution) <= np.linalg.norm(x) + 1e-10

    def test_condition_warning(self, rng):
        a = rng.normal(size=(100, 7))
        # nearly duplicated column: ill conditioned but still full numerical rank
        a[:, 6] = a[:, 5] + 1e-9 * rng.normal(size=100)
        with pytest.warns(UserWarning, match="condition"):
            rep = solve_least_squares(system_from(a, rng.normal(size=100)))
        assert rep.condition_estimate > CONDITION_WARN_THRESHOLD
        assert not rep.rank_deficient

    def test_deterministic(self, rng):
        a = rng.normal(size=(60, 7))
        b = rng.normal(size=60)
        r1 = solve_least_squares(system_from(a, b))
        r2 = solve_least_squares(system_from(a.copy(), b.copy()))
        assert np.array_equal(r1.solution, r2.solution)

    def test_scale_equivariance(self, rng):
        a = rng.normal(size=(60, 7))
        b = rng.normal(size=60)
        x1 = solve_least_squares(system_from(a, b)).solution
        x4 = solve_least_squares(system_from(a, 4.0 * b)).solution
        assert np.array_equal(4.0 * x1, x4)  # power-of-two scaling is exact
        x37 = solve_least_squares(system_from(a, 3.7 * b)).solution
        assert np.allclose(3.7 * x1, x37, rtol=1e-12)

    def test_first_order_stationarity(self, rng):
        a = rng.normal(size=(200, 13))
        b = rng.normal(size=200)
        rep = solve_least_squares(system_from(a, b))
        best = np.linalg.norm(a @ rep.solution - b)
        for _ in range(50):
            step = rng.normal(size=13)
            step *= 1e-6 / np.linalg.norm(step)
            assert np.linalg.norm(a @ (rep.solution + step) - b) >= best - 1e-12

    def test_rank_threshold_is_eps_times_sigma_max(self, rng):
        # sigma_min / sigma_max = 1e-14 sits between eps and eps*max(m, n):
        # gelsd with numpy's default rcond would drop the last direction.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        u, _ = np.linalg.qr(rng.normal(size=(1000, 7)))
        v, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        a = (u * np.logspace(0, -14, 7)) @ v.T
        b = rng.normal(size=1000)
        with pytest.warns(UserWarning, match="condition"):
            rep = solve_least_squares(system_from(a, b))
        assert rep.rank == 7 and not rep.rank_deficient
        ref, _, ref_rank, sv = scipy_linalg.lstsq(a, b, lapack_driver="gelsd")
        assert ref_rank == 7
        assert np.max(np.abs(rep.solution - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert rep.condition_estimate == pytest.approx(sv[0] / sv[-1], rel=1e-12)


@st.composite
def segmented_systems(draw):
    """A 7-column system of 2-6 segments (some shorter than 7 rows), with an
    exact zero column and a duplicated column, and a subset of its segment ids."""
    p = 7
    lengths = draw(st.lists(st.integers(1, 3 * p), min_size=2, max_size=6))
    ids = sorted(draw(st.lists(st.integers(0, 1000), min_size=len(lengths),
                               max_size=len(lengths), unique=True)))
    zero, dup, src = draw(st.permutations(range(p)))[:3]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(lengths)
    scales = 10.0 ** rng.uniform(-2.0, 2.0, p)
    # A duplicate's computed singular value is rounding of the pair's size;
    # three decades below the largest column it stays far under the rank
    # threshold eps*sigma_max, where either algorithm's rank is determined.
    scales[src] = 1e-3 * scales.max()
    a = rng.normal(size=(n, p)) * scales
    a[:, zero] = 0.0
    a[:, dup] = a[:, src]
    b = a @ rng.normal(size=p) + rng.normal(0.0, draw(st.sampled_from([0.0, 1e-3, 1.0])), n)
    sys = own_rows(a, b, np.repeat(ids, lengths), np.concatenate([np.arange(m) for m in lengths]))
    chosen = draw(st.sets(st.sampled_from(ids), min_size=1))
    return sys, chosen, zero


class TestSegmentMerge:
    @settings(max_examples=200, deadline=None)
    @given(case=segmented_systems())
    def test_merged_fit_matches_gathered_rows(self, case):
        sys, chosen, zero = case
        rows = np.flatnonzero(np.isin(sys.segment, sorted(chosen)))
        gathered_sys = own_rows(sys.a[rows], sys.b[rows], sys.segment[rows], sys.k[rows])
        try:
            gathered = solve_least_squares(gathered_sys)
        except DataError as exc:
            with pytest.raises(DataError) as merged_exc:
                _solve_segments(sys, chosen)
            assert str(merged_exc.value) == str(exc)
            return
        merged = _solve_segments(sys, chosen)
        assert merged.rank == gathered.rank
        assert merged.rows_used == gathered.rows_used == gathered_sys.n_rows
        assert merged.solution[zero] == 0.0 and gathered.solution[zero] == 0.0
        if gathered.condition_estimate <= 1e6:
            x = gathered.solution
            assert np.linalg.norm(merged.solution - x) <= 1e-10 * np.linalg.norm(x)
            scale = max(gathered.residual_norm, np.linalg.norm(gathered_sys.b))
            assert abs(merged.residual_norm - gathered.residual_norm) <= 1e-10 * scale

    def test_factors_are_cached_per_segment(self, rng):
        a, b = rng.normal(size=(30, 7)), rng.normal(size=30)
        sys = own_rows(a, b, np.repeat([4, 9, 11], [5, 15, 10]), np.arange(30))
        factors = sys.block.segment_factors
        assert sys.block.segment_factors is factors
        assert {sid: (r.shape, m) for sid, (r, m) in factors.items()} == {
            4: ((5, 8), 5), 9: ((8, 8), 15), 11: ((8, 8), 10),
        }
        r, _ = factors[9]
        # R^T R is the Gram matrix of the segment's [A | b] rows.
        block = np.column_stack((a[5:20], b[5:20]))
        assert np.allclose(r.T @ r, block.T @ block, rtol=1e-12, atol=1e-12)

    def test_ungrouped_rows_rejected(self, rng):
        sys = own_rows(rng.normal(size=(20, 7)), rng.normal(size=20),
                       np.repeat([1, 2, 1], [7, 6, 7]), np.arange(20))
        with pytest.raises(DataError, match="not grouped by segment"):
            _solve_segments(sys, {1})

    def test_identify_takes_rows_or_segments(self, ds_static):
        systems = build_systems(ds_static, "static")
        rows = {axis: np.arange(sys.n_rows) for axis, sys in systems.items()}
        with pytest.raises(ValueError, match="rows or segments"):
            identify_from_systems("static", systems, ds_static.h, rows=rows, segments={0})

    def test_all_segments_match_the_full_fit(self, ds_dynamic):
        systems = build_systems(ds_dynamic, "dynamic")
        full = identify_from_systems("dynamic", systems, ds_dynamic.h)
        merged = identify_from_systems(
            "dynamic", systems, ds_dynamic.h, segments=set(ds_dynamic.segment.tolist())
        )
        assert merged.metadata["rows_used"] == full.metadata["rows_used"]
        for axis in ("u", "v", "r"):
            x = full.vector(axis)
            assert np.max(np.abs(merged.vector(axis) - x)) <= 1e-12 * np.max(np.abs(x))
        assert merged.alpha == pytest.approx(full.alpha, abs=1e-9)


class TestResolveAlpha:
    def test_exact_consistent_inputs(self):
        res = resolve_alpha(*fabricate_pole_vectors(0.998, [-0.01, -0.01, -0.01]))
        assert res.alpha == pytest.approx(0.998, abs=1e-10)
        assert res.residual <= 1e-12
        assert res.stable

    def test_candidate_short_of_the_pole_does_not_win_the_tie(self):
        # A complex pair of quintic roots has its real part 5e-3 below the pole;
        # two Newton steps leave it 5.6e-10 above, at a cost within 1e-18 of the
        # pole's, so the tie rule picks it unless the winner is polished.
        alpha = 0.8482191993598431
        res = resolve_alpha(*fabricate_pole_vectors(alpha, [-0.00139581, -0.03793774, -0.4474269]))
        assert res.alpha == pytest.approx(alpha, abs=1e-12)
        assert res.residual <= 1e-12

    def test_distinct_damping_terms(self):
        res = resolve_alpha(*fabricate_pole_vectors(0.998, [-0.01, -0.05, -0.02]))
        assert res.alpha == pytest.approx(0.998, abs=1e-10)
        assert res.r_u1 == pytest.approx(-0.01, abs=1e-9)
        assert res.r_v2 == pytest.approx(-0.05, abs=1e-9)
        assert res.r_r3 == pytest.approx(-0.02, abs=1e-9)

    def test_degenerate_zero_pole(self):
        res = resolve_alpha(*fabricate_pole_vectors(0.0, [-0.036, -0.143, -0.065]))
        assert res.alpha == pytest.approx(0.0, abs=1e-10)
        assert res.residual <= 1e-12

    def test_unstable_pole_flagged(self):
        res = resolve_alpha(*fabricate_pole_vectors(1.02, [-0.03, -0.11, -0.05]))
        assert res.alpha == pytest.approx(1.02, abs=1e-8)
        assert not res.stable

    def test_no_real_seed_root_still_resolves(self):
        xu, xv, xr = fabricate_pole_vectors(0.9, [-0.05, -0.05, -0.05])
        # destroy consistency so no axis' quadratic q_j has a real root
        xu[4] = xv[7] = xr[8] = -5.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = resolve_alpha(xu, xv, xr)
        assert np.isfinite(res.alpha)
        assert res.residual > 0

    def test_length_validation(self):
        with pytest.raises(ValueError):
            resolve_alpha(np.zeros(11), np.zeros(21), np.zeros(20))

    def test_non_finite_entry_names_the_axis(self):
        xu, xv, xr = fabricate_pole_vectors(0.9, [-0.05, -0.05, -0.05])
        xv[7] = np.nan
        with pytest.raises(ValueError, match="v axis has a non-finite pole entry"):
            resolve_alpha(xu, xv, xr)

    def test_rounding_level_input_changes_stay_at_rounding_level(self, gt_dynamic):
        cfg = DiscreteGenConfig(
            steps=2000, kind="dynamic", seed=1, n_segments=8, g0_scale=0.05,
            noise_std=(0.01, 0.005, 0.005),
        )
        ds = generate_discrete(gt_dynamic, cfg)
        model = identify_from_systems("dynamic", build_systems(ds, "dynamic"), ds.h)
        vectors = [model.vector(axis) for axis in ("u", "v", "r")]
        rng = np.random.default_rng(0)
        for _ in range(20):
            scaled = [x * (1.0 + 1e-15 * rng.normal(size=x.size)) for x in vectors]
            assert abs(resolve_alpha(*scaled).alpha - model.alpha) <= 1e-12


def identify(ds, kind):
    return identify_from_systems(kind, build_systems(ds, kind), ds.h)


class TestIdentify:
    def test_static_recovery(self, gt_static, ds_static):
        x = known_params_to_X(gt_static, "static")
        model = identify(ds_static, "static")
        for axis in ("u", "v", "r"):
            rel = np.max(np.abs(model.vector(axis) - x[axis]) / np.abs(x[axis]))
            assert rel < 1e-8

    def test_dynamic_recovery(self, gt_dynamic, ds_dynamic):
        x = known_params_to_X(gt_dynamic, "dynamic")
        model = identify(ds_dynamic, "dynamic")
        for axis in ("u", "v", "r"):
            rel = np.max(np.abs(model.vector(axis) - x[axis]) / np.abs(x[axis]))
            assert rel < 1e-6
        assert model.alpha == pytest.approx(0.9, abs=1e-6)
        assert model.alpha_resolution.stable
        assert model.metadata["alpha_residual"] <= 1e-10

    def test_ff_only_dataset_keeps_cancelled_columns_zero(self, gt_static):
        frames = prbs_frames(1500, seed=9, mean_levels=(0.3, 0.5, 0.7), diff_levels=(-0.2, 0.0, 0.2))
        cfg = DiscreteGenConfig(steps=1500, kind="static", schedule=frames, seed=9)
        ds = generate_discrete(gt_static, cfg)
        model = identify(ds, "static")
        assert model.sway[9] == 0.0 and model.sway[11] == 0.0
        assert model.yaw[9] == 0.0 and model.yaw[11] == 0.0
        assert model.reports["v"].rank_deficient

    def test_static_model_has_no_alpha(self, ds_static):
        model = identify(ds_static, "static")
        assert model.alpha is None
        assert model.kind == "static"

    def test_beta_zero_kills_thrust_entries(self):
        gt = default_ground_truth(dynamic=True, alpha=0.9)
        gt = type(gt)(**{**gt.__dict__, "thrust": type(gt.thrust)(0.9, 0.0, gt.thrust.static_part)})
        x = known_params_to_X(gt, "dynamic")
        assert np.all(x["u"][9:] == 0.0)
        assert np.all(x["v"][17:] == 0.0)
        assert np.all(x["r"][17:] == 0.0)

    def test_determinism(self, ds_static):
        m1 = identify(ds_static, "static")
        m2 = identify(ds_static, "static")
        for axis in ("u", "v", "r"):
            assert np.array_equal(m1.vector(axis), m2.vector(axis))
