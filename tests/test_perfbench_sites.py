"""The traced benchmark patches program names; a removed name must fail here, fast."""

import importlib
import importlib.util
import sys
from pathlib import Path

from asvid import storage
from asvid.regressors import build_systems

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_site_resolves():
    spans = load_spans()
    for module_name, attr, _, _ in spans.SITES:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"


def test_system_rows_reads_build_systems(ds_dynamic):
    systems = build_systems(ds_dynamic, "dynamic")
    attrs = load_spans()._system_rows(build_systems, (ds_dynamic, "dynamic"), {}, systems)
    assert attrs == {
        "rows.u": systems["u"].n_rows,
        "skipped.u": systems["u"].n_skipped,
        "rows.vr": systems["v"].n_rows,
        "skipped.vr": systems["v"].n_skipped,
    }


def test_raw_log_attrs_read_real_storage_calls(tmp_path, small_bundle):
    spans = load_spans()
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
