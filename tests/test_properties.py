"""Property tests: exact file round trips, causality of the preparation filters, the
in-class generator and the pole fit."""

import json
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from asvid import storage
from asvid.dataprep import (
    _TIME_TOL,
    RAW_STREAMS,
    GeoReference,
    PrepareConfig,
    PreparedDataset,
    PwmMapConfig,
    RawLogBundle,
    SavGolConfig,
    _ulps,
    resample_causal,
    savitzky_golay,
)
from asvid.errors import DataError
from asvid.estimator import IdentifiedModel, resolve_alpha
from asvid.files import from_json
from asvid.model import ThrustDynamicParams, ThrustStaticParams
from asvid.oracle import (
    DiscreteGenConfig,
    GroundTruth,
    SensorNoise,
    default_ground_truth,
    generate_discrete,
    known_params_to_X,
    sigma_coeffs,
)
from asvid.regressors import TERMS, build_systems, term_index

SPECIALS = [-0.0, 1e-300, -1e-300, 1e300, -1e300]
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIALS))
# Raw logs keep non-finite cells; the NaN is the one repr writes back ("nan").
raw_value = st.one_of(finite, st.sampled_from([float("nan"), float("inf"), float("-inf")]))
epoch = st.one_of(st.floats(-10.0, 10.0), st.floats(1.7e9 - 1e3, 1.7e9 + 1e3))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def prepared_datasets(draw):
    """Tables whose segments come grouped, in a shuffled id order."""
    h = draw(st.sampled_from([0.2, 0.1, 0.05, 0.013, 1.0]))
    lengths = draw(st.lists(st.integers(2, 50), min_size=1, max_size=6))
    ids = sorted(draw(st.lists(st.integers(0, 10_000), min_size=len(lengths),
                               max_size=len(lengths), unique=True)))
    t0 = draw(epoch)
    # Segment i keeps its time span whatever its place in the file.
    order = draw(st.permutations(range(len(lengths))))
    n = sum(lengths)
    return PreparedDataset(
        h,
        np.repeat([ids[i] for i in order], [lengths[i] for i in order]),
        t=np.concatenate([(t0 + 100.0 * i) + h * np.arange(lengths[i]) for i in order]),
        region=draw(arrays(np.int8, n, elements=st.integers(0, 3))),
        **dict(zip(("u", "v", "r", "delta_mean", "delta_diff"),
                   draw(arrays(np.float64, (5, n), elements=finite)))),
    )


@settings(max_examples=60, deadline=None)
@given(ds=prepared_datasets())
def test_prepared_csv_round_trip_is_bitwise(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("prep") / "prepared.csv"
    storage.write_prepared_csv(path, ds)
    back = storage.read_prepared_csv(path)
    assert back.h == ds.h
    for name, want in ds.columns().items():
        assert same_bits(getattr(back, name), want), name


@settings(max_examples=60, deadline=None)
@given(ds=prepared_datasets())
def test_constructor_groups_rows_by_ascending_id(ds):
    # Each segment's span comes after those of all smaller ids, so the time
    # column ascends only if the groups were sorted and kept their row order.
    assert np.all(np.diff(ds.segment) >= 0)
    assert np.all(np.diff(ds.t) > 0)
    _, counts = np.unique(ds.segment, return_counts=True)
    assert ds.k.tolist() == [k for n in counts for k in range(n)]


@st.composite
def raw_bundles(draw):
    fields = {}
    t0 = draw(epoch)
    for stream, names in (("gnss", ("lat", "lon")), ("heading", ("psi",)),
                          ("pwm", ("pwm_l", "pwm_r"))):
        steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=50))
        n = len(steps)
        fields[f"{stream}_t"] = t0 + np.cumsum(steps)
        for name in names:
            fields[name] = draw(arrays(np.float64, n, elements=raw_value))
    return RawLogBundle(**fields)


@settings(max_examples=60, deadline=None)
@given(bundle=raw_bundles())
def test_raw_log_round_trip_is_bitwise(tmp_path_factory, bundle):
    """Raw logs are written with every cell; reading drops the rows with a
    non-finite cell, one warning per stream, and the rest read back bit for bit."""
    log_dir = tmp_path_factory.mktemp("logs")
    storage.write_raw_logs(log_dir, bundle)
    kept, dropped = {}, set()
    for stream, _, names in RAW_STREAMS:
        finite = np.isfinite(np.stack([getattr(bundle, n) for n in names])).all(axis=0)
        kept.update({n: getattr(bundle, n)[finite] for n in names})
        if not finite.all():
            dropped.add(f"{stream}.csv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if any(kept[names[0]].size == 0 for _, _, names in RAW_STREAMS):
            with pytest.raises(DataError, match="stream is empty"):
                storage.read_raw_logs(log_dir)
            return
        back = storage.read_raw_logs(log_dir)
    assert sorted(str(w.message).split(":")[0] for w in caught) == sorted(dropped)
    for name, want in kept.items():
        assert same_bits(getattr(back, name), want), name


write_value = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, float("inf"), float("-inf"), float("nan"),
                     1e16, -1e16, 1e-5, 9.999999999999999e15]),
)


@settings(max_examples=100, deadline=None)
@given(table=st.integers(1, 4).flatmap(
    lambda k: st.lists(st.tuples(*[write_value] * k), max_size=30)), data=st.data())
def test_write_csv_cells_are_float_repr(tmp_path_factory, table, data):
    """Each float64 cell is written as repr(float(x)), however many blocks the rows take."""
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    k = len(table[0]) if table else 1
    columns = [np.array([row[j] for row in table], dtype=np.float64) for j in range(k)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(storage, "_WRITE_BLOCK", data.draw(st.integers(1, 8)))
        storage.write_csv(path, [f"c{j}" for j in range(k)], columns, ["# note"])
    want = [",".join(f"c{j}" for j in range(k)), "# note"]
    want += [",".join(repr(float(x)) for x in row) for row in table]
    assert path.read_text() == "\n".join(want) + "\n"


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(st.floats(0.01, 1.0), min_size=5, max_size=60),
    t0=epoch,
    h=st.floats(0.05, 0.5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_resample_causal_never_looks_ahead(steps, t0, h, seed, data):
    rng = np.random.default_rng(seed)
    t_raw = t0 + np.cumsum(steps)
    y_raw = rng.normal(0.0, 10.0, t_raw.size)
    grid = t_raw[0] + h * np.arange(int((t_raw[-1] - t_raw[0]) / h) + 1)
    j = data.draw(st.integers(0, grid.size - 1))
    tol = max(_TIME_TOL, _ulps(t_raw, grid))
    later = t_raw > grid[j] + tol
    # Later samples change value and move later still.
    y_pert = y_raw.copy()
    y_pert[later] += rng.normal(0.0, 100.0, int(later.sum()))
    t_pert = t_raw.copy()
    t_pert[later] += rng.uniform(0.0, 1.0)
    out, age = resample_causal(t_raw, y_raw, grid)
    out_p, age_p = resample_causal(t_pert, y_pert, grid)
    assert same_bits(out[: j + 1], out_p[: j + 1])
    assert same_bits(age[: j + 1], age_p[: j + 1])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 80),
    half=st.integers(0, 7),
    order=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_causal_savitzky_golay_never_looks_ahead(n, half, order, seed, data):
    window = 2 * half + 1
    cfg = SavGolConfig(window, min(order, window - 1))
    rng = np.random.default_rng(seed)
    signal = rng.normal(0.0, 1.0, n)
    k = data.draw(st.integers(0, n - 1))
    perturbed = signal.copy()
    perturbed[k + 1:] += rng.normal(0.0, 100.0, n - k - 1)
    out = savitzky_golay(signal, cfg, causal=True)
    out_p = savitzky_golay(perturbed, cfg, causal=True)
    assert same_bits(out[: k + 1], out_p[: k + 1])


SUBNORMALS = [5e-324, -5e-324, 1e-310, -2.5e-320]
vector_value = st.one_of(finite, st.sampled_from([0.0, *SUBNORMALS]))


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["static", "dynamic"]))
    vectors = [draw(arrays(np.float64, len(TERMS[(kind, axis)]), elements=vector_value))
               for axis in "uvr"]
    alpha = draw(vector_value) if kind == "dynamic" else None
    metadata = {
        "h": draw(st.floats(1e-3, 10.0)),
        "alpha_stable": None if alpha is None else alpha < 1.0,
        "residual_norms": {axis: draw(st.floats(0.0, 1e300)) for axis in "uvr"},
        "rows_used": {axis: draw(st.integers(0, 10**9)) for axis in "uvr"},
        "provenance": {"created_unix": draw(st.integers(0, 2**40))},
    }
    return IdentifiedModel(kind, *vectors, alpha=alpha, metadata=metadata)


@settings(max_examples=60, deadline=None)
@given(model=models())
def test_model_file_round_trip_is_bitwise(tmp_path_factory, model):
    d = tmp_path_factory.mktemp("model")
    storage.write_model_file(d / "a.json", model)
    back = storage.read_model_file(d / "a.json")
    storage.write_model_file(d / "b.json", back)
    assert (d / "a.json").read_bytes() == (d / "b.json").read_bytes()
    for axis in "uvr":
        assert same_bits(back.vector(axis), model.vector(axis)), axis
    if model.alpha is not None:
        assert same_bits(np.float64(back.alpha), np.float64(model.alpha))


coefficient = st.floats(-1e3, 1e3)


@st.composite
def ground_truths(draw):
    static = ThrustStaticParams(*(draw(coefficient) for _ in range(4)))
    if draw(st.booleans()):
        static = ThrustStaticParams(
            static.a_f, static.b_f, static.a_r, static.b_r,
            dead_zone_forward=draw(st.floats(1e-6, 0.5)),
            dead_zone_reverse=draw(st.floats(-0.5, -1e-6)),
        )
    thrust = static
    if draw(st.booleans()):
        thrust = ThrustDynamicParams(draw(st.floats(0.0, 1.5)), draw(coefficient), static)
    names = [name for name in GroundTruth.__dataclass_fields__
             if name not in ("thrust", "d", "bias", "h", "sigma_override")]
    try:
        return GroundTruth(
            **{name: draw(coefficient) for name in names},
            thrust=thrust, d=draw(st.floats(1e-3, 10.0)),
            bias=tuple(draw(coefficient) for _ in range(3)),
            h=draw(st.floats(1e-3, 10.0)),
        )
    except ValueError:  # a singular inertia matrix
        reject()


@settings(max_examples=60, deadline=None)
@given(gt=ground_truths())
def test_ground_truth_round_trip(tmp_path_factory, gt):
    path = tmp_path_factory.mktemp("gt") / "ground_truth.json"
    storage.write_ground_truth(path, gt)
    assert storage.parse_ground_truth(storage.read_json(path), path.name) == gt


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# A noise level: finite and not negative.
level = st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                  st.sampled_from([s for s in SPECIALS if s >= 0]))


@st.composite
def prepare_configs(draw):
    window = 2 * draw(st.integers(0, 20)) + 1
    return PrepareConfig(
        h=draw(positive),
        pwm_map=PwmMapConfig(draw(finite), draw(positive), draw(finite)),
        savgol=SavGolConfig(window, draw(st.integers(0, window - 1))),
        gap_factor=draw(finite),
    )


# The config sections read by field type, with a strategy over valid values.
CONFIG_SECTIONS = {
    "prepare": prepare_configs(),
    "geo_reference": st.builds(
        GeoReference, st.floats(-90.0, 90.0), st.floats(-180.0, 180.0), st.tuples(finite, finite)
    ),
    "simulate.noise": st.builds(SensorNoise, level, level, level, st.integers()),
}


@pytest.mark.parametrize("key", sorted(CONFIG_SECTIONS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_config_section_round_trips_through_json(key, data):
    # Every field type of a section (nested ones too) is one the reader knows.
    obj = data.draw(CONFIG_SECTIONS[key])
    doc = json.loads(json.dumps(asdict(obj)))
    assert from_json(type(obj), doc, key, "cfg.json") == obj


@st.composite
def in_class_runs(draw):
    """A ground truth within 30% of the defaults (the pole kept below 1), with
    optional dead zones and an optional disturbance override, and a generator
    config whose held commands visit all four regions."""
    kind = draw(st.sampled_from(["static", "dynamic"]))
    gt = default_ground_truth(dynamic=kind == "dynamic")
    scale = st.floats(0.7, 1.3)
    static = gt.static_thrust
    static = replace(static, **{n: draw(scale) * getattr(static, n)
                                for n in ("a_f", "b_f", "a_r", "b_r")})
    if draw(st.booleans()):
        static = replace(static, dead_zone_forward=draw(st.floats(0.02, 0.3)),
                         dead_zone_reverse=draw(st.floats(-0.3, -0.02)))
    thrust = static
    if kind == "dynamic":
        alpha = draw(st.floats(0.63, 0.99))
        thrust = ThrustDynamicParams(alpha, draw(scale) * (1.0 - alpha), static)
    names = [f.name for f in fields(gt) if f.name not in ("thrust", "bias", "sigma_override")]
    gt = replace(gt, thrust=thrust, bias=tuple(draw(scale) * b for b in gt.bias),
                 **{name: draw(scale) * getattr(gt, name) for name in names})
    if draw(st.booleans()):
        gt = replace(gt, sigma_override={
            axis: {name: draw(scale) * c for name, c in coeffs.items()}
            for axis, coeffs in sigma_coeffs(gt).items()
        })
    seed = draw(st.integers(0, 2**16))
    lr = np.random.default_rng(seed).uniform(-0.7, 0.7, size=(60, 2)).repeat(5, axis=0)
    cfg = DiscreteGenConfig(
        steps=300, kind=kind, seed=seed, n_segments=draw(st.integers(1, 4)),
        schedule=np.column_stack([(lr[:, 0] + lr[:, 1]) / 2.0, lr[:, 0] - lr[:, 1]]),
        g0_scale=draw(st.floats(0.0, 0.1)) if kind == "dynamic" else 0.0,
    )
    return gt, cfg


@settings(max_examples=60, deadline=None)
@given(run=in_class_runs())
def test_generator_rows_are_exact_for_the_known_vectors(run):
    gt, cfg = run
    try:
        ds = generate_discrete(gt, cfg)
    except RuntimeError:  # the drawn dynamics diverged
        reject()
    x = known_params_to_X(gt, cfg.kind)
    for axis, system in build_systems(ds, cfg.kind).items():
        assert np.max(np.abs(system.a @ x[axis] - system.b)) <= 1e-12, axis


POLE_GRID = np.linspace(-3.0, 3.0, 2001)


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(0.0, 1.2),
    rs=st.lists(st.floats(-0.5, 0.2), min_size=3, max_size=3),
    noise=st.lists(st.floats(-0.1, 0.1), min_size=6, max_size=6),
)
def test_resolve_alpha_finds_the_global_minimum(alpha, rs, noise):
    vectors = []
    pairs = np.empty((3, 2))
    for j, (axis, r) in enumerate(zip("uvr", rs)):
        x = np.zeros(len(TERMS[("dynamic", axis)]))
        idx = [term_index("dynamic", axis, name) for name in (axis, f"{axis}[k-1]")]
        x[idx] = (alpha + r + noise[2 * j], -alpha * (1.0 + r) + noise[2 * j + 1])
        pairs[j] = x[idx]
        vectors.append(x)
    first, paired = pairs[:, None, 0], pairs[:, None, 1]
    # The six-residual cost with each r_j at its optimum, on a grid of poles.
    q = paired + (1.0 + first) * POLE_GRID - POLE_GRID**2
    projected = np.sum(q**2, axis=0) / (1.0 + POLE_GRID**2)

    res = resolve_alpha(*vectors)
    r_hat = np.array([res.r_u1, res.r_v2, res.r_r3])
    direct = np.concatenate(
        [pairs[:, 0] - (res.alpha + r_hat), pairs[:, 1] + res.alpha * (1.0 + r_hat)]
    )
    assert res.residual**2 <= projected.min() + 1e-12
    assert res.residual == pytest.approx(np.linalg.norm(direct), rel=1e-9, abs=1e-15)
