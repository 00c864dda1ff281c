"""Command-line entry point: simulate | prepare | identify | validate | report.

Every command is deterministic given its inputs, config and seed.  Exit
codes: 0 success, 1 numerical failure, 2 an input file that is missing or
malformed (the message names the file, and the line of a bad CSV cell), a
bad flag value, or another I/O failure.

The config file (``--config``) is one JSON object.  Each section is built
into the class or function whose parameters define it: the keys are those
parameters, the defaults theirs, and every value must match its annotation
(:func:`asvid.files.from_json`).  Every section may be left out.

* top level (``_Config``): ``kind`` "static" (default) or "dynamic", ``seed``
  an integer (0), and the sections below;
* ``geo_reference``: ``GeoReference`` (``lat0`` 37.4, ``lon0`` -6.0 supplied,
  ``antenna_offset`` [0, 0]);
* ``prepare``: ``PrepareConfig`` (``h`` 0.2, ``gap_factor`` 3), with
  ``pwm_map`` a ``PwmMapConfig`` (``neutral_us`` 1500, ``half_span_us`` 400,
  ``oob_fraction`` 0.05) and ``savgol`` a ``SavGolConfig`` (``window_length``
  11, ``poly_order`` 3);
* ``column_adapter``: per ``RAW_STREAMS`` stream, its column names mapped to
  the names in the log's header;
* ``ground_truth``: the ``ground_truth.json`` layout
  (``storage.parse_ground_truth``); ``simulate`` uses it for the vessel;
* ``simulate`` (``_Simulate``): ``duration_s`` 600, ``dt`` null (the
  simulator's step), ``noise`` a ``SensorNoise`` (levels 0; its seed is the
  run's, not a key), and ``excitation`` with ``type`` "smooth" (default; the
  parameters of ``smooth_excitation``) or "prbs" (``_prbs``: ``hold`` 5).

The whole file is checked when it is loaded, whichever command runs.  An
unknown or missing key, a value of the wrong type, or one the built class
rejects exits 2 naming the file and the dotted key, for example
``cfg.json: 'prepare.h': must be a finite number, got 'abc'``.  The check
loads the simulator (``oracle``) only for a file with a ``simulate`` or
``ground_truth`` section: without them, the noise and excitation it would
build are the defaults, which cannot fail.

Each command runs numpy's OpenBLAS on one thread.  When
``OPENBLAS_NUM_THREADS`` is unset and numpy is not yet loaded, :func:`main`
sets it to 1 before it parses the flags (the ``--sweep`` check loads numpy).
Every solve and product is small (chunks of at most 8,192 entries, at most 21
columns), so a second thread costs its start-up and gains nothing.  Export
``OPENBLAS_NUM_THREADS`` to choose another count.  A caller that runs
:func:`main` after loading numpy finds its environment unchanged.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Literal

from .errors import SchemaError
from .files import atomic_write_text, from_json, read_json, write_json

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_IO = 2


# The names the numeric commands call, by the module that defines them.  A
# command binds into this module's globals the names of the modules it runs
# (``_COMMANDS``), so ``report`` never loads numpy and no command compiles a
# module it does not call.  ``storage`` is bound as a module.
_NUMERIC = {
    name: module
    for module, names in {
        "dataprep": ("GeoReference", "PrepareConfig", "RAW_STREAMS", "build_prepared_dataset"),
        "estimator": ("identify_from_systems",),
        "model": ("ThrustDynamicParams",),
        "oracle": (
            "SensorNoise", "default_ground_truth", "emit_sensor_logs", "known_params_to_X",
            "prbs_frames", "simulate_blocks", "simulate_continuous", "smooth_excitation",
            "zoh_excitation",
        ),
        "regressors": ("build_systems",),
        "validate": (
            "TRACE_COLUMNS", "PartitionSpec", "evaluate", "fit_split", "partition",
            "prediction_traces", "sensitivity_study", "training_fraction_sweep",
        ),
    }.items()
    for name in names
}

# The modules whose names each numeric command calls, besides ``storage`` and
# the ones its config check loads (see ``_settings``).
_COMMANDS = {
    "simulate": ("model", "oracle"),
    "prepare": ("dataprep",),
    "identify": ("regressors", "estimator"),
    "validate": ("regressors", "validate"),
}


def _module(name: str):
    """The submodule ``name``, loaded with ``__import__``: ``-X importtime``
    does not see ``importlib.import_module``."""
    name = f"{__package__}.{name}"
    __import__(name)
    return sys.modules[name]


def _bind_numeric(modules=frozenset(_NUMERIC.values())) -> None:
    """Import ``storage`` and ``modules`` (by default every numeric module), and
    bind ``storage`` and the ``_NUMERIC`` names they define.

    A name that is already bound keeps its value, so a tracer that replaced
    it before the first command keeps its wrapper.
    """
    names = globals()
    names.setdefault("storage", _module("storage"))
    for name, module in _NUMERIC.items():
        if module in modules:
            names.setdefault(name, getattr(_module(module), name))


def __getattr__(name: str):
    if name != "storage" and name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_numeric()
    return globals()[name]


@dataclass(frozen=True)
class _Simulate:
    """The ``simulate`` section; :func:`_settings` reads ``excitation`` and ``noise``."""

    duration_s: float = 600.0
    dt: float | None = None
    excitation: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be a positive number of seconds, got {self.dt!r}")


@dataclass(frozen=True)
class _Config:
    """The top level of a config file; :func:`_settings` reads the sections held as dicts."""

    kind: Literal["static", "dynamic"] = "static"
    seed: int = 0
    ground_truth: dict | None = None
    column_adapter: dict[str, dict[str, str]] = field(default_factory=dict)
    geo_reference: dict = field(default_factory=dict)
    prepare: dict = field(default_factory=dict)
    simulate: _Simulate = field(default_factory=_Simulate)


def _prbs(hold: int = 5) -> int:
    """The keys of a PRBS ``simulate.excitation`` besides ``type``."""
    if hold < 1:
        raise ValueError(f"hold must be a positive integer, got {hold!r}")
    return hold


def _settings(cfg: dict, path: str | None, simulate: bool = False) -> SimpleNamespace:
    """Every section of the config document ``cfg`` built into what it configures.

    A bad key or value is a :class:`SchemaError` naming the file ``path`` and
    the dotted key (see the module docstring).  The noise and excitation of
    the ``simulate`` section are built when the section is present or
    ``simulate`` is set, and are None otherwise.
    """
    simulate = simulate or "simulate" in cfg
    _bind_numeric(("dataprep", "oracle") if simulate else ("dataprep",))
    source = Path(path).name if path else "config"
    top = from_json(_Config, cfg, "", source)
    streams = {stream: columns for stream, columns, _ in RAW_STREAMS}
    for stream, rename in top.column_adapter.items():
        known = streams.get(stream)
        bad = [f"{stream}.{c}" for c in sorted(rename) if c not in known] if known else [stream]
        if bad:
            raise SchemaError(f"{source}: 'column_adapter.{bad[0]}': is not a known key")
    excitation = dict(top.simulate.excitation)
    schedule = excitation.pop("type", "smooth")
    if schedule not in ("smooth", "prbs"):
        raise SchemaError(
            f"{source}: 'simulate.excitation.type': must be one of ['smooth', 'prbs'], "
            f"got {schedule!r}"
        )
    geo = {"lat0": 37.4, "lon0": -6.0, **top.geo_reference}
    gt = storage.parse_ground_truth(top.ground_truth, source) if top.ground_truth else None
    settings = SimpleNamespace(
        kind=top.kind, seed=top.seed, ground_truth=gt, column_adapter=top.column_adapter,
        geo_reference=from_json(GeoReference, geo, "geo_reference", source),
        prepare=from_json(PrepareConfig, top.prepare, "prepare", source),
        duration_s=top.simulate.duration_s, dt=top.simulate.dt, schedule=schedule,
        excitation=None, noise=None,
    )
    if simulate:
        read_excitation = _prbs if schedule == "prbs" else smooth_excitation
        settings.excitation = from_json(read_excitation, excitation, "simulate.excitation", source)
        settings.noise = from_json(SensorNoise, top.simulate.noise, "simulate.noise", source,
                                   seed=top.seed)
    return settings


def _config(path: str | None, simulate: bool = False) -> tuple[dict, SimpleNamespace]:
    """The config document as written (provenance hashes it) and its sections
    built by :func:`_settings`, which also checks them."""
    cfg = {} if path is None else read_json(path)
    if not isinstance(cfg, dict):
        raise SchemaError(f"{Path(path).name}: a config file holds one JSON object")
    return cfg, _settings(cfg, path, simulate)


def cmd_simulate(args: argparse.Namespace) -> int:
    _, cfg = _config(args.config, simulate=True)
    out = Path(args.out)
    kind = args.kind or cfg.kind
    seed = args.seed if args.seed is not None else cfg.seed
    gt = cfg.ground_truth or default_ground_truth(dynamic=(kind == "dynamic"))
    thrust = "dynamic" if isinstance(gt.thrust, ThrustDynamicParams) else "static"
    if thrust != kind:  # only a configured ground truth can disagree
        raise SchemaError(f"{Path(args.config).name}: kind {kind!r} contradicts the {thrust} "
                          "thrust model of 'ground_truth'")

    duration = cfg.duration_s
    if cfg.schedule == "prbs":
        steps = int(round(duration / gt.h))
        excitation = zoh_excitation(prbs_frames(steps, seed=seed, hold=cfg.excitation), gt.h)
    else:
        excitation = cfg.excitation
    traj = simulate_continuous(gt, excitation, duration, dt=cfg.dt)
    bundle = emit_sensor_logs(traj, cfg.geo_reference, noise=replace(cfg.noise, seed=seed))
    del traj  # 8.6 MB for 1200 s at 100 Hz: not held while the logs are written
    out.mkdir(parents=True, exist_ok=True)
    storage.write_raw_logs(out, bundle)
    storage.write_ground_truth(out / "ground_truth.json", gt)
    vectors = known_params_to_X(gt, kind)
    alpha = gt.dynamic_thrust.alpha if kind == "dynamic" else None
    storage.write_expected_x(out / "expected_x.json", kind, vectors, alpha=alpha)
    print(f"wrote logs for {duration:.1f} s of simulation to {out}")
    return EXIT_OK


def cmd_prepare(args: argparse.Namespace) -> int:
    _, cfg = _config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bundle = storage.read_raw_logs(args.logs, adapter=cfg.column_adapter)
    ds = build_prepared_dataset(bundle, cfg.geo_reference, cfg.prepare)
    storage.write_prepared_csv(out / "prepared.csv", ds)
    summary = ds.summary()
    write_json(out / "summary.json", summary)
    print(
        f"prepared {summary['points']} points in {summary['segments']} segments "
        f"({summary['minutes']:.2f} minutes at h={ds.h} s)"
    )
    return EXIT_OK


def cmd_identify(args: argparse.Namespace) -> int:
    doc, cfg = _config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = args.kind or cfg.kind
    ds = storage.read_prepared_csv(args.prepared)
    systems = build_systems(ds, kind)
    model = identify_from_systems(kind, systems, ds.h)
    provenance = storage.provenance_stamp(args.prepared, doc or None)
    storage.write_model_file(out / "model.json", model, provenance)
    for axis in ("u", "v", "r"):
        rep = model.reports[axis]
        print(f"{axis}: rows={rep.rows_used} residual={rep.residual_norm:.6e} rank={rep.rank}")
    if model.alpha is not None:
        res = model.alpha_resolution
        print(f"alpha={model.alpha:.6f} (residual {res.residual:.2e}, stable={res.stable})")
    return EXIT_OK


def _metrics_csv_rows(doc: dict) -> list[tuple]:
    blocks = [("metrics", side, doc[side]) for side in ("train", "validation") if side in doc]
    blocks += [
        (f"sweep_{entry['train_fraction']}", side, entry[side])
        for entry in doc.get("sweep", [])
        for side in ("train", "validation")
    ]
    rows = [
        (section, side, axis, metric, value)
        for section, side, block in blocks
        for metric in ("r2", "mae")
        for axis, value in block[metric].items()
    ]
    sens = doc.get("sensitivity")
    if sens:
        for stat in ("mean_r2", "sd_r2", "mean_mae", "sd_mae"):
            for axis, value in sens[stat].items():
                rows.append(("sensitivity", sens["method"], axis, stat, value))
    return rows


def cmd_validate(args: argparse.Namespace) -> int:
    _, cfg = _config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = args.kind or cfg.kind
    seed = args.seed if args.seed is not None else cfg.seed
    ds = storage.read_prepared_csv(args.prepared)
    systems = build_systems(ds, kind)
    doc: dict = {"kind": kind}
    spec = PartitionSpec(args.method, args.train_fraction, seed)
    if args.model:
        model = storage.read_model_file(args.model)
        name, h = Path(args.model).name, model.metadata.get("h")
        if model.kind != kind:
            raise SchemaError(f"{name}: model kind {model.kind!r} is not {kind!r}")
        same_h = isinstance(h, (int, float)) and math.isclose(h, ds.h, rel_tol=1e-9)
        if h is not None and not same_h:
            raise SchemaError(f"{name}: model h {h!r} is not the prepared dataset's h {ds.h!r}")
        metrics = evaluate(model, systems, None, {"side": "full dataset"})
        doc["validation"] = asdict(metrics)
        traces = prediction_traces(model, systems, ds)
    else:
        split = partition(ds, spec, kind, systems=systems)
        model = fit_split(kind, systems, ds.h, split)
        info = split.describe()
        train_metrics = evaluate(model, systems, split.train, {**info, "side": "train"})
        val_metrics = evaluate(model, systems, split.val, {**info, "side": "validation"})
        doc["partition"] = info
        doc["train"] = asdict(train_metrics)
        doc["validation"] = asdict(val_metrics)
        traces = prediction_traces(model, systems, ds, rows=split.val)
        if model.alpha is not None:
            doc["alpha"] = model.alpha
            doc["alpha_stable"] = model.alpha_resolution.stable

    if args.sensitivity:
        report = sensitivity_study(ds, kind, spec, args.sensitivity, systems=systems)
        doc["sensitivity"] = asdict(report)
    if args.sweep:
        sweep = training_fraction_sweep(ds, kind, args.sweep, seed=seed, systems=systems)
        doc["sweep"] = [
            {
                "train_fraction": entry["train_fraction"],
                "train": asdict(entry["train"]),
                "validation": asdict(entry["validation"]),
            }
            for entry in sweep
        ]

    write_json(out / "metrics.json", doc)
    metrics_header = ("section", "side", "axis", "metric", "value")
    storage.write_csv(out / "metrics.csv", metrics_header, list(zip(*_metrics_csv_rows(doc))))
    storage.write_csv(out / "traces.csv", TRACE_COLUMNS, [traces[name] for name in TRACE_COLUMNS])

    val = doc["validation"]
    print("validation R^2:", {a: round(val["r2"][a], 6) for a in ("u", "v", "r")})
    print("validation MAE:", {a: round(val["mae"][a], 6) for a in ("u", "v", "r")})
    return EXIT_OK


def _format_metric_table(title: str, block: dict) -> list[str]:
    lines = [title, f"{'axis':<6}{'R^2':>12}{'MAE':>12}{'rows':>8}"]
    for axis in ("u", "v", "r"):
        lines.append(
            f"{axis:<6}{block['r2'][axis]:>12.6f}{block['mae'][axis]:>12.6f}"
            f"{block['evaluated'][axis]:>8d}"
        )
    lines.append("")
    return lines


def _report_lines(doc: dict) -> list[str]:
    lines: list[str] = [f"Model kind: {doc.get('kind', '?')}", ""]
    if "alpha" in doc:
        lines.append(f"Shared propeller pole alpha = {doc['alpha']:.6f} "
                     f"(stable: {doc.get('alpha_stable')})")
        lines.append("")
    if "partition" in doc:
        part = doc["partition"]
        lines.append(
            f"Partition: {part.get('method')} train_fraction={part.get('train_fraction')} "
            f"seed={part.get('seed')} realized={part.get('realized_train_fraction'):.4f}"
        )
        lines.append("")
    if "train" in doc:
        lines += _format_metric_table("Training metrics", doc["train"])
    lines += _format_metric_table("Validation metrics", doc["validation"])
    if "sensitivity" in doc:
        sens = doc["sensitivity"]
        lines.append(
            f"Sensitivity over {sens['repetitions']} random partitions ({sens['method']}):"
        )
        lines.append(f"{'axis':<6}{'mean R^2':>12}{'SD R^2':>12}{'mean MAE':>12}{'SD MAE':>12}")
        for axis in ("u", "v", "r"):
            lines.append(
                f"{axis:<6}{sens['mean_r2'][axis]:>12.6f}{sens['sd_r2'][axis]:>12.2e}"
                f"{sens['mean_mae'][axis]:>12.6f}{sens['sd_mae'][axis]:>12.2e}"
            )
        lines.append("")
    for entry in doc.get("sweep", []):
        lines += _format_metric_table(
            f"Training share {entry['train_fraction']:.0%} (training side)", entry["train"]
        )
        lines += _format_metric_table(
            f"Training share {entry['train_fraction']:.0%} (validation side)",
            entry["validation"],
        )
    return lines


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.metrics)
    doc = read_json(path)
    try:
        lines = _report_lines(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path.name}: not a metrics file: {exc!r}") from None
    text = "\n".join(lines).rstrip() + "\n"
    if args.out:
        atomic_write_text(Path(args.out), text)
        print(f"wrote report to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _flag_type(convert, valid, want: str):
    """An argparse ``type``: ``convert(text)``, which must work and be ``valid``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {want}")
        return value
    return parse


_fraction = _flag_type(float, lambda f: 0.0 < f < 1.0, "a number strictly between 0 and 1")
_fractions = _flag_type(
    lambda text: tuple(map(float, text.split(","))), lambda fs: all(0.0 < f < 1.0 for f in fs),
    "a comma-separated list of numbers strictly between 0 and 1",
)


def _sweep(text: str) -> tuple[float, ...]:
    """The ``--sweep`` type: training fractions that leave room for the
    validation share of the sweep."""
    fractions = _fractions(text)
    try:
        _module("validate").check_sweep_fractions(fractions)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return fractions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asvid",
        description="Input-gain identification toolkit for twin-thruster surface vessels",
    )
    parser.add_argument("--config", help="JSON config file with shared settings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic raw sensor logs")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=("static", "dynamic"))
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prepare", help="raw logs -> prepared dataset CSV")
    p.add_argument("--logs", required=True, help="directory with gnss/heading/pwm CSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("identify", help="prepared dataset -> model file")
    p.add_argument("--prepared", required=True)
    p.add_argument("--kind", choices=("static", "dynamic"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("validate", help="metrics for an identified or freshly fit model")
    p.add_argument("--prepared", required=True)
    p.add_argument("--model", help="existing model file; omitted = identify-and-validate")
    p.add_argument("--kind", choices=("static", "dynamic"))
    p.add_argument("--method", choices=("by_points", "by_segments"), default="by_points")
    p.add_argument("--train-fraction", type=_fraction, default=0.7)
    p.add_argument("--seed", type=int)
    p.add_argument("--sensitivity", type=_flag_type(int, lambda n: n >= 2, "an integer >= 2"),
                   help="repetitions for the sensitivity study, at least 2")
    p.add_argument("--sweep", type=_sweep,
                   help="comma-separated training fractions, e.g. 0.7,0.6,0.5")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="render metrics files as plain-text tables")
    p.add_argument("--metrics", required=True, help="metrics.json from validate")
    p.add_argument("--out", help="output text file (default: stdout)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # OpenBLAS reads this once, when numpy loads (see the module docstring).
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "report":
        _bind_numeric(_COMMANDS[args.command])
    try:
        return args.func(args)
    except (OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:  # numpy's LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
