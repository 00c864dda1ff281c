"""Command-line entry point: simulate | prepare | identify | validate | report.

Every command is deterministic given its inputs, config and seed.  Exit
codes: 0 success, 1 numerical failure, 2 an input file that is missing or
malformed (the message names the file, and the line of a bad CSV cell) or
another I/O failure.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .errors import SchemaError
from .files import atomic_write_text, read_json, write_json

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_IO = 2


# The names the numeric commands call, by the module that defines them.  They
# are bound into this module's globals when a command other than ``report``
# runs, so ``report`` never loads numpy.  ``storage`` is bound as a module.
_NUMERIC = {
    name: module
    for module, names in {
        "dataprep": (
            "GeoReference",
            "PrepareConfig",
            "PwmMapConfig",
            "SavGolConfig",
            "build_prepared_dataset",
        ),
        "estimator": ("identify_from_systems",),
        "oracle": (
            "SensorNoise",
            "default_ground_truth",
            "emit_sensor_logs",
            "known_params_to_X",
            "prbs_frames",
            "simulate_continuous",
            "smooth_excitation",
            "zoh_excitation",
        ),
        "regressors": ("build_systems",),
        "validate": (
            "PartitionSpec",
            "evaluate",
            "fit_split",
            "partition",
            "prediction_traces",
            "sensitivity_study",
            "training_fraction_sweep",
        ),
    }.items()
    for name in names
}


def _bind_numeric() -> None:
    """Import the numeric modules and bind ``storage`` and the ``_NUMERIC`` names.

    A name that is already bound keeps its value, so a tracer that replaced
    it before the first command keeps its wrapper.
    """
    names = globals()
    for name, module in _NUMERIC.items():
        names.setdefault(name, getattr(importlib.import_module(f"{__package__}.{module}"), name))
    names.setdefault("storage", importlib.import_module(f"{__package__}.storage"))


def __getattr__(name: str):
    if name != "storage" and name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_numeric()
    return globals()[name]


def _config_keys() -> tuple[dict, dict]:
    """The keys each config section may hold (every section is a JSON object),
    and the keys of simulate.excitation besides "type", per excitation type.

    Built when a config is checked: they read the fields of numeric modules."""
    _bind_numeric()
    sections = {
        (): {"kind", "seed", "ground_truth", "column_adapter", "geo_reference", "prepare",
             "simulate"},
        ("geo_reference",): {f.name for f in fields(GeoReference)},
        ("prepare",): {f.name for f in fields(PrepareConfig)},
        ("prepare", "pwm_map"): {f.name for f in fields(PwmMapConfig)},
        ("prepare", "savgol"): {f.name for f in fields(SavGolConfig)},
        ("simulate",): {"duration_s", "dt", "excitation", "noise"},
        ("simulate", "noise"): {f.name for f in fields(SensorNoise)} - {"seed"},
    }
    excitations = {
        "smooth": set(inspect.signature(smooth_excitation).parameters),
        "prbs": {"hold"},
    }
    return sections, excitations


def _section(cfg: dict, path: tuple[str, ...], known: set[str], name: str) -> dict:
    """The config section at ``path`` ({} when absent), checked to hold only ``known`` keys."""
    doc = cfg
    for key in path:
        doc = doc.get(key, {})
    if not isinstance(doc, dict):
        raise SchemaError(f"{name}: config key {'.'.join(path)!r} must hold a JSON object")
    unknown = sorted(set(doc) - known)
    if unknown:
        raise SchemaError(f"{name}: unknown config key {'.'.join((*path, unknown[0]))!r}")
    return doc


def _check_config(cfg: dict, name: str) -> None:
    """Every section an object, every key known, the excitation well formed."""
    sections, excitations = _config_keys()
    for path, known in sections.items():
        _section(cfg, path, known, name)
    path = ("simulate", "excitation")
    any_key = {"type"}.union(*excitations.values())
    kind = _section(cfg, path, any_key, name).get("type", "smooth")
    if kind not in excitations:
        raise SchemaError(
            f"{name}: config key 'simulate.excitation.type' must be one of "
            f"{sorted(excitations)}, got {kind!r}"
        )
    hold = _section(cfg, path, {"type", *excitations[kind]}, name).get("hold", 5)
    if isinstance(hold, bool) or not isinstance(hold, int) or hold < 1:
        raise SchemaError(
            f"{name}: config key 'simulate.excitation.hold' must be a positive integer, "
            f"got {hold!r}"
        )


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise SchemaError(f"{Path(path).name}: a config file holds one JSON object")
    _check_config(cfg, Path(path).name)
    return cfg


def _geo_reference(cfg: dict) -> GeoReference:
    geo = cfg.get("geo_reference", {})
    return GeoReference(
        lat0=geo.get("lat0", 37.4),
        lon0=geo.get("lon0", -6.0),
        antenna_offset=tuple(geo.get("antenna_offset", (0.0, 0.0))),
    )


def _prepare_config(cfg: dict) -> PrepareConfig:
    kwargs = dict(cfg.get("prepare", {}))
    for key, section in (("pwm_map", PwmMapConfig), ("savgol", SavGolConfig)):
        if key in kwargs:
            kwargs[key] = section(**kwargs[key])
    return PrepareConfig(**kwargs)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = args.kind or cfg.get("kind", "static")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)

    if cfg.get("ground_truth"):
        gt = storage.parse_ground_truth(cfg["ground_truth"], Path(args.config).name)
    else:
        gt = default_ground_truth(dynamic=(kind == "dynamic"))

    sim = cfg.get("simulate", {})
    duration = float(sim.get("duration_s", 600.0))
    exc_cfg = sim.get("excitation", {"type": "smooth"})
    if exc_cfg.get("type") == "prbs":
        steps = int(round(duration / gt.h))
        frames = prbs_frames(steps, seed=seed, hold=exc_cfg.get("hold", 5))
        excitation = zoh_excitation(frames, gt.h)
    else:
        params = {k: v for k, v in exc_cfg.items() if k != "type"}
        excitation = smooth_excitation(**params)
    traj = simulate_continuous(gt, excitation, duration, dt=sim.get("dt"))

    ref = _geo_reference(cfg)
    noise = SensorNoise(**sim.get("noise", {}), seed=seed)
    bundle = emit_sensor_logs(traj, ref, noise=noise)
    storage.write_raw_logs(out, bundle)
    storage.write_ground_truth(out / "ground_truth.json", gt)
    vectors = known_params_to_X(gt, kind)
    alpha = gt.dynamic_thrust.alpha if kind == "dynamic" else None
    storage.write_expected_x(out / "expected_x.json", kind, vectors, alpha=alpha)
    print(f"wrote logs for {duration:.1f} s of simulation to {out}")
    return EXIT_OK


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bundle = storage.read_raw_logs(args.logs, adapter=cfg.get("column_adapter"))
    ds = build_prepared_dataset(bundle, _geo_reference(cfg), _prepare_config(cfg))
    storage.write_prepared_csv(out / "prepared.csv", ds)
    summary = ds.summary()
    write_json(out / "summary.json", summary)
    print(
        f"prepared {summary['points']} points in {summary['segments']} segments "
        f"({summary['minutes']:.2f} minutes at h={ds.h} s)"
    )
    return EXIT_OK


def cmd_identify(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = args.kind or cfg.get("kind", "static")
    ds = storage.read_prepared_csv(args.prepared)
    systems = build_systems(ds, kind)
    model = identify_from_systems(kind, systems, ds.h)
    provenance = storage.provenance_stamp(args.prepared, cfg or None)
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
    cfg = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = args.kind or cfg.get("kind", "static")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    ds = storage.read_prepared_csv(args.prepared)
    systems = build_systems(ds, kind)
    doc: dict = {"kind": kind}

    if args.model:
        model = storage.read_model_file(args.model)
        if model.kind != kind:
            raise SchemaError(f"{Path(args.model).name}: model kind {model.kind!r} is not {kind!r}")
        metrics = evaluate(model, systems, None, {"side": "full dataset"})
        doc["validation"] = asdict(metrics)
        traces = prediction_traces(model, systems, ds)
    else:
        spec = PartitionSpec(args.method, args.train_fraction, seed)
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
        spec = PartitionSpec(args.method, args.train_fraction, seed)
        report = sensitivity_study(ds, kind, spec, args.sensitivity, systems=systems)
        doc["sensitivity"] = asdict(report)
    if args.sweep:
        fractions = tuple(float(f) for f in args.sweep.split(","))
        sweep = training_fraction_sweep(ds, kind, fractions, seed=seed, systems=systems)
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
    storage.write_csv(out / "traces.csv", ("t", "axis", "truth", "prediction"), list(zip(*traces)))

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
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--seed", type=int)
    p.add_argument("--sensitivity", type=int, help="repetitions for the sensitivity study")
    p.add_argument("--sweep", help="comma-separated training fractions, e.g. 0.7,0.6,0.5")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="render metrics files as plain-text tables")
    p.add_argument("--metrics", required=True, help="metrics.json from validate")
    p.add_argument("--out", help="output text file (default: stdout)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "report":
        _bind_numeric()
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
