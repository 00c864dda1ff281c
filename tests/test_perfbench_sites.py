"""The traced benchmark patches program names; a removed name must fail here, fast."""

import importlib
import importlib.util
import sys
from pathlib import Path

from asvid import cli, storage
from asvid.dataprep import RAW_STREAMS, GeoReference
from asvid.oracle import (
    DiscreteGenConfig,
    default_ground_truth,
    generate_discrete,
    smooth_excitation,
)
from asvid.regressors import build_systems

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_site_resolves():
    spans = load_perfbench("spans")
    for module_name, attr, _, _ in spans.SITES:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"


def test_system_rows_reads_build_systems(ds_dynamic):
    systems = build_systems(ds_dynamic, "dynamic")
    spans = load_perfbench("spans")
    attrs = spans._system_rows(build_systems, (ds_dynamic, "dynamic"), {}, systems)
    assert attrs == {
        "rows.u": systems["u"].n_rows,
        "skipped.u": systems["u"].n_skipped,
        "rows.vr": systems["v"].n_rows,
        "skipped.vr": systems["v"].n_skipped,
    }


def test_raw_log_attrs_read_real_storage_calls(tmp_path, small_bundle):
    spans = load_perfbench("spans")
    sites = [site for site in spans.SITES if site[2].endswith("_raw_logs")]
    with spans.Tracer(sites) as tracer:
        storage.write_raw_logs(log_dir=tmp_path, bundle=small_bundle)
        storage.write_raw_logs(tmp_path, small_bundle)
        bundle = storage.read_raw_logs(tmp_path)
    written = sum((tmp_path / f"{s}.csv").stat().st_size for s in ("gnss", "heading", "pwm"))
    rows = bundle.gnss_t.size + bundle.heading_t.size + bundle.pwm_t.size
    assert [(s.name, s.attrs) for s in tracer.spans] == [
        ("storage.write_raw_logs", {"bytes": written}),
        ("storage.write_raw_logs", {"bytes": written}),
        ("storage.read_raw_logs", {"rows": rows}),
    ]


def test_dataprep_attrs_read_a_real_build(small_bundle):
    spans = load_perfbench("spans")
    sites = [site for site in spans.SITES if site[2].startswith("dataprep.")]
    with spans.Tracer(sites) as tracer:
        ds = cli.build_prepared_dataset(small_bundle, GeoReference(lat0=37.4, lon0=-6.0))
    (build,) = [s for s in tracer.spans if s.name == "dataprep.build_prepared_dataset"]
    assert build.attrs == {"points": ds.n_samples}
    resamples = [s for s in tracer.spans if s.name == "dataprep.resample_causal"]
    assert len(resamples) == len(RAW_STREAMS)  # one call per raw stream
    assert all(s.parent == build.span_id for s in resamples)
    # The grid spans the GNSS log at the default step of 0.2 s.
    n_grid = round((small_bundle.gnss_t[-1] - small_bundle.gnss_t[0]) / 0.2) + 1
    assert {s.attrs["grid_points"] for s in resamples} == {n_grid}


def test_simulate_site_counts_substeps():
    # The traced benchmark reads traj.t.size, so the trajectory must hold arrays.
    spans = load_perfbench("spans")
    sites = [site for site in spans.SITES if site[2] == "oracle.simulate_continuous"]
    with spans.Tracer(sites) as tracer:
        cli.simulate_continuous(default_ground_truth(), smooth_excitation(), 2.0)
    assert [(s.name, s.attrs) for s in tracer.spans] == [
        ("oracle.simulate_continuous", {"substeps": 200}),
    ]


def test_benchmark_configs_load(tmp_path, capsys):
    # Every config the benchmark writes passes the CLI's config check.
    workloads = load_perfbench("workloads")
    tiny = workloads.Size(static_s=2.0, discrete_steps=50, dynamic_s=2.0, sensitivity=1)
    for name, w in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        w.generate(tmp_path / name, 1, tiny)
        cfg = str(tmp_path / name / "config.json")
        if "simulate" in cli._config(cfg)[0]:
            assert cli.main(["--config", cfg, "simulate", "--out", str(tmp_path / "sim")]) == 0
    capsys.readouterr()


def test_validate_builds_once_and_merges_segment_fits(tmp_path, gt_dynamic, capsys):
    # Segment fits (the main one and each repetition) merge per-segment
    # factors; only the by_points sweep still solves gathered rows.
    cfg = DiscreteGenConfig(steps=2000, kind="dynamic", n_segments=8, g0_scale=0.05, seed=1)
    storage.write_prepared_csv(tmp_path / "prepared.csv", generate_discrete(gt_dynamic, cfg))
    spans = load_perfbench("spans")
    with spans.Tracer() as tracer:
        rc = cli.main([
            "validate", "--prepared", str(tmp_path / "prepared.csv"), "--kind", "dynamic",
            "--method", "by_segments", "--sensitivity", "3", "--sweep", "0.7,0.6",
            "--out", str(tmp_path / "validate"),
        ])
    capsys.readouterr()
    assert rc == 0
    calls = spans.LayerTotals.of(tracer.spans).calls
    assert calls["regressors.build_systems"] == 1
    assert calls["estimator.resolve_alpha"] == 1 + 3 + 2
    assert calls["estimator.solve_least_squares"] == 3 * 2
