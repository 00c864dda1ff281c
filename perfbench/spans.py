"""In-process tracing for the benchmark: spans around the calls into each layer.

The program carries no tracing of its own.  ``Tracer`` replaces public
functions at the module attribute where their callers look them up (for
example ``asvid.cli.build_systems``, the name ``cmd_identify`` calls), records
one span per call with the id of the enclosing span, and puts the originals
back when the ``with`` block ends.  Self time is a span's duration minus the
part of it that its direct children cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - covered(children[s.span_id], s.start, s.end)
        for s in spans
    }


def _arg(fn: Callable, name: str, args: tuple, kwargs: dict):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _raw_bytes(fn, args, kwargs, result) -> dict:
    log_dir = Path(_arg(fn, "log_dir", args, kwargs))
    return {"bytes": sum((log_dir / f"{s}.csv").stat().st_size for s in ("gnss", "heading", "pwm"))}


def _raw_rows(fn, args, kwargs, bundle) -> dict:
    return {"rows": bundle.gnss_t.size + bundle.heading_t.size + bundle.pwm_t.size}


def _system_rows(fn, args, kwargs, systems) -> dict:
    return {
        "rows.u": systems["u"].n_rows,
        "skipped.u": systems["u"].n_skipped,
        "rows.vr": systems["v"].n_rows,
        "skipped.vr": systems["v"].n_skipped,
    }


# (module, attribute looked up by the caller, span name, attributes from the call)
SITES: list[tuple[str, str, str, Callable | None]] = [
    ("asvid.cli", "cmd_simulate", "cli.simulate", None),
    ("asvid.cli", "cmd_prepare", "cli.prepare", None),
    ("asvid.cli", "cmd_identify", "cli.identify", None),
    ("asvid.cli", "cmd_validate", "cli.validate", None),
    ("asvid.cli", "cmd_report", "cli.report", None),
    ("asvid.cli", "simulate_continuous", "oracle.simulate_continuous",
     lambda fn, a, k, traj: {"substeps": traj.t.size - 1}),
    ("asvid.cli", "emit_sensor_logs", "oracle.emit_sensor_logs", None),
    ("asvid.storage", "write_raw_logs", "storage.write_raw_logs", _raw_bytes),
    ("asvid.storage", "read_raw_logs", "storage.read_raw_logs", _raw_rows),
    ("asvid.storage", "write_prepared_csv", "storage.write_prepared_csv", None),
    ("asvid.storage", "read_prepared_csv", "storage.read_prepared_csv", None),
    ("asvid.storage", "write_model_file", "storage.write_model_file", None),
    ("asvid.cli", "build_prepared_dataset", "dataprep.build_prepared_dataset",
     lambda fn, a, k, ds: {"points": ds.n_samples}),
    ("asvid.dataprep", "resample_causal", "dataprep.resample_causal",
     lambda fn, a, k, r: {"grid_points": len(_arg(fn, "t_grid", a, k))}),
    ("asvid.dataprep", "savitzky_golay", "dataprep.savitzky_golay", None),
    ("asvid.cli", "build_systems", "regressors.build_systems", _system_rows),
    ("asvid.validate", "build_systems", "regressors.build_systems", _system_rows),
    ("asvid.cli", "identify_from_systems", "estimator.identify_from_systems", None),
    ("asvid.validate", "identify_from_systems", "estimator.identify_from_systems", None),
    ("asvid.estimator", "solve_least_squares", "estimator.solve_least_squares", None),
    ("asvid.estimator", "resolve_alpha", "estimator.resolve_alpha", None),
    ("asvid.cli", "partition", "validate.partition", None),
    ("asvid.validate", "partition", "validate.partition", None),
    ("asvid.cli", "evaluate", "validate.evaluate", None),
    ("asvid.validate", "evaluate", "validate.evaluate", None),
    ("asvid.cli", "sensitivity_study", "validate.sensitivity_study",
     lambda fn, a, k, r: {"repetitions": r.repetitions}),
    ("asvid.cli", "training_fraction_sweep", "validate.training_fraction_sweep", None),
    ("asvid.cli", "prediction_traces", "validate.prediction_traces", None),
]


class Tracer:
    """Patches ``sites`` on entry, records spans, restores the originals on exit."""

    def __init__(self, sites=SITES, clock: Callable[[], float] = time.perf_counter):
        self.sites = sites
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable, attrs_of: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, 0.0)
            self.spans.append(span)
            self._stack.append(span.span_id)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name, attrs_of in self.sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, attrs_of))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


@dataclass
class LayerTotals:
    """Per span name: summed self time, call count and summed attributes."""

    self_s: dict[str, float]
    calls: dict[str, int]
    attrs: dict[str, dict[str, float]]
    spans: list[Span]

    @classmethod
    def of(cls, spans: list[Span]) -> "LayerTotals":
        own = self_times(spans)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        attrs: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        for s in spans:
            self_s[s.name] += own[s.span_id]
            calls[s.name] += 1
            for key, value in s.attrs.items():
                attrs[s.name][key] += value
        return cls(dict(self_s), dict(calls), {k: dict(v) for k, v in attrs.items()}, spans)

    def attr(self, name: str, key: str) -> float:
        return self.attrs.get(name, {}).get(key, 0)

    def first_attr(self, name: str, key: str) -> float:
        """The attribute of the first call (one dataset gives equal values each call)."""
        for s in self.spans:
            if s.name == name:
                return s.attrs[key]
        return 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: LayerTotals) -> dict[str, float]:
    """Every per-layer metric of one traced chain, keyed by metric name.

    ``*_s`` is summed self time.  A layer the chain never calls reads 0.
    """
    s = lambda name: t.self_s.get(name, 0.0)  # noqa: E731
    n = lambda name: t.calls.get(name, 0)  # noqa: E731
    substeps = t.attr("oracle.simulate_continuous", "substeps")
    grid = t.attr("dataprep.resample_causal", "grid_points")
    # build_prepared_dataset resamples every stream onto one grid: the grid of
    # its first resample_causal child is the grid of the build.
    build_grid = 0
    for b in t.spans:
        if b.name == "dataprep.build_prepared_dataset":
            build_grid += next(
                c.attrs["grid_points"]
                for c in t.spans
                if c.parent == b.span_id and c.name == "dataprep.resample_causal"
            )
    reps = t.attr("validate.sensitivity_study", "repetitions")
    sens_inclusive = sum(
        sp.end - sp.start for sp in t.spans if sp.name == "validate.sensitivity_study"
    )
    sens_builds = sum(
        sp.end - sp.start
        for sp in t.spans
        if sp.name == "regressors.build_systems"
        and sp.parent is not None
        and t.spans[sp.parent].name == "validate.sensitivity_study"
    )
    rows_u = t.first_attr("regressors.build_systems", "rows.u")
    rows_vr = t.first_attr("regressors.build_systems", "rows.vr")
    skipped_u = t.first_attr("regressors.build_systems", "skipped.u")
    skipped_vr = t.first_attr("regressors.build_systems", "skipped.vr")
    return {
        "oracle.simulate_continuous_s": s("oracle.simulate_continuous"),
        "oracle.rk4_substeps": substeps,
        "oracle.substeps_per_s": _ratio(substeps, s("oracle.simulate_continuous")),
        "oracle.emit_sensor_logs_s": s("oracle.emit_sensor_logs"),
        "storage.write_raw_logs_s": s("storage.write_raw_logs"),
        "storage.raw_bytes_written": t.attr("storage.write_raw_logs", "bytes"),
        "storage.read_raw_logs_s": s("storage.read_raw_logs"),
        "storage.raw_rows_read": t.attr("storage.read_raw_logs", "rows"),
        "storage.write_prepared_csv_s": s("storage.write_prepared_csv"),
        "storage.read_prepared_csv_s": s("storage.read_prepared_csv"),
        "storage.read_prepared_csv_calls": n("storage.read_prepared_csv"),
        "storage.write_model_file_s": s("storage.write_model_file"),
        "dataprep.build_prepared_dataset_s": s("dataprep.build_prepared_dataset"),
        "dataprep.resample_causal_s": s("dataprep.resample_causal"),
        "dataprep.resample_grid_points": grid,
        "dataprep.savitzky_golay_s": s("dataprep.savitzky_golay"),
        "dataprep.usable_ratio": _ratio(
            t.attr("dataprep.build_prepared_dataset", "points"), build_grid
        ),
        "regressors.build_systems_s": s("regressors.build_systems"),
        "regressors.build_systems_calls": n("regressors.build_systems"),
        "regressors.rows.u": rows_u,
        "regressors.rows.vr": rows_vr,
        "regressors.row_yield.u": _ratio(rows_u, rows_u + skipped_u),
        "regressors.row_yield.vr": _ratio(rows_vr, rows_vr + skipped_vr),
        "estimator.identify_from_systems_s": s("estimator.identify_from_systems"),
        "estimator.solve_least_squares_s": s("estimator.solve_least_squares"),
        "estimator.solve_least_squares_calls": n("estimator.solve_least_squares"),
        "estimator.resolve_alpha_s": s("estimator.resolve_alpha"),
        "estimator.resolve_alpha_calls": n("estimator.resolve_alpha"),
        "validate.partition_s": s("validate.partition"),
        "validate.evaluate_s": s("validate.evaluate"),
        "validate.sensitivity_study_s": s("validate.sensitivity_study"),
        # Inclusive: one partition -> identify -> evaluate repetition.
        "validate.sensitivity_rep_s": _ratio(sens_inclusive - sens_builds, reps),
        "validate.training_fraction_sweep_s": s("validate.training_fraction_sweep"),
        "validate.prediction_traces_s": s("validate.prediction_traces"),
        "cli.simulate_self_s": s("cli.simulate"),
        "cli.prepare_self_s": s("cli.prepare"),
        "cli.identify_self_s": s("cli.identify"),
        "cli.validate_self_s": s("cli.validate"),
        "cli.report_self_s": s("cli.report"),
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """``import.asvid_s`` (cumulative) and ``import.scipy_s`` (summed self) in s.

    Reads the ``-X importtime`` lines ``import time: self | cumulative | name``.
    """
    asvid_us = None
    scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        own, cumulative, name = int(parts[0]), int(parts[1]), parts[2].strip()
        if name == "asvid":
            asvid_us = cumulative
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += own
    if asvid_us is None:
        raise ValueError("no 'asvid' line in the -X importtime output")
    return {"import.asvid_s": asvid_us / 1e6, "import.scipy_s": scipy_us / 1e6}
