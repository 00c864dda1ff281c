"""The benchmark's workloads: seeded inputs, the timed CLI chain, output checks.

Each workload makes its inputs from the seed once (log CSVs, a prepared CSV
or a config JSON), caches them and keeps that step out of the timing.  The
timed chain is a list of ``asvid`` CLI argument vectors; the program sees
only the generated files, never the seed itself except through the config.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NOISE = {"pos_m": 0.02, "psi_rad": 0.003, "pwm_us": 2.0}
GEO = {"lat0": 37.4, "lon0": -6.0, "antenna_offset": [0.0, 0.0]}
TRUE_ALPHA = 0.9
# In-class recovery on the exact discrete data: the solve is exact up to
# rounding, so anything above this is a defect, not noise.
EXACT_TOL = 1e-9
MODEL_KEYS = ("format_version", "kind", "h", "alpha", "vectors", "residual_norms", "rows_used")
METRICS_KEYS = ("kind", "partition", "train", "validation", "sensitivity", "sweep")


@dataclass(frozen=True)
class Size:
    static_s: float
    discrete_steps: int
    dynamic_s: float
    sensitivity: int


FULL = Size(static_s=1800.0, discrete_steps=20000, dynamic_s=1200.0, sensitivity=20)
# Reduced inputs for the benchmark's own smoke tests.
SMOKE = Size(static_s=120.0, discrete_steps=2000, dynamic_s=120.0, sensitivity=3)


def cli_main(argv: list[str]) -> int:
    """Run one ``asvid`` command in this process, its stdout discarded."""
    from asvid import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _static_trajectory(shared: Path, size: Size):
    """The noise-free static trajectory.  Only the sensor noise depends on the
    seed, so one cached copy serves every seed."""
    from asvid.oracle import Trajectory, default_ground_truth, simulate_continuous, smooth_excitation

    path = shared / f"static-trajectory-{size.static_s:g}s.npz"
    if not path.is_file():
        traj = simulate_continuous(default_ground_truth(), smooth_excitation(), size.static_s)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            np.savez(fh, t=traj.t, eta=traj.eta, nu=traj.nu, delta=traj.delta,
                     dt=traj.dt, h=traj.h)
        os.replace(tmp, path)
    with np.load(path) as z:
        return Trajectory(t=z["t"], eta=z["eta"], nu=z["nu"], delta=z["delta"],
                          dt=float(z["dt"]), h=float(z["h"]))


def _gen_static(d: Path, seed: int, size: Size) -> None:
    from asvid import storage
    from asvid.dataprep import GeoReference
    from asvid.oracle import SensorNoise, default_ground_truth, emit_sensor_logs, known_params_to_X

    _write_json(d / "config.json", {"kind": "static", "seed": seed, "geo_reference": GEO})
    traj = _static_trajectory(d.parent, size)
    ref = GeoReference(GEO["lat0"], GEO["lon0"], tuple(GEO["antenna_offset"]))
    bundle = emit_sensor_logs(traj, ref, noise=SensorNoise(**NOISE, seed=seed))
    storage.write_raw_logs(d / "logs", bundle)
    storage.write_expected_x(
        d / "logs" / "expected_x.json", "static", known_params_to_X(default_ground_truth(), "static")
    )


def _gen_discrete(d: Path, seed: int, size: Size) -> None:
    from asvid import storage
    from asvid.oracle import (
        DiscreteGenConfig, default_ground_truth, generate_discrete, known_params_to_X,
    )

    gt = default_ground_truth(dynamic=True, alpha=TRUE_ALPHA)
    cfg = DiscreteGenConfig(
        steps=size.discrete_steps, kind="dynamic", n_segments=8, g0_scale=0.05, seed=seed
    )
    storage.write_prepared_csv(d / "prepared.csv", generate_discrete(gt, cfg))
    storage.write_expected_x(
        d / "expected_x.json", "dynamic", known_params_to_X(gt, "dynamic"), alpha=TRUE_ALPHA
    )
    _write_json(d / "config.json", {"kind": "dynamic", "seed": seed})


def _gen_dynamic_sim(d: Path, seed: int, size: Size) -> None:
    _write_json(d / "config.json", {
        "kind": "dynamic",
        "seed": seed,
        "simulate": {
            "duration_s": size.dynamic_s,
            "excitation": {"type": "prbs", "hold": 5},
            "noise": NOISE,
        },
    })


def _validate_argv(cfg: Path, prepared: Path, out: Path, size: Size, method: str) -> list[str]:
    return [
        "--config", str(cfg), "validate", "--prepared", str(prepared), "--method", method,
        "--sensitivity", str(size.sensitivity), "--sweep", "0.7,0.6,0.5",
        "--out", str(out / "validate"),
    ]


def _chain_static(inp: Path, out: Path, size: Size) -> list[tuple[str, list[str]]]:
    cfg, prepared = inp / "config.json", out / "prep" / "prepared.csv"
    return [
        ("prepare", ["--config", str(cfg), "prepare", "--logs", str(inp / "logs"),
                     "--out", str(out / "prep")]),
        ("identify", ["--config", str(cfg), "identify", "--prepared", str(prepared),
                      "--out", str(out / "identify")]),
        ("validate", _validate_argv(cfg, prepared, out, size, "by_points")),
        ("report", ["report", "--metrics", str(out / "validate" / "metrics.json"),
                    "--out", str(out / "report.txt")]),
    ]


def _chain_discrete(inp: Path, out: Path, size: Size) -> list[tuple[str, list[str]]]:
    cfg, prepared = inp / "config.json", inp / "prepared.csv"
    return [
        ("identify", ["--config", str(cfg), "identify", "--prepared", str(prepared),
                      "--out", str(out / "identify")]),
        ("validate", _validate_argv(cfg, prepared, out, size, "by_segments")),
        ("report", ["report", "--metrics", str(out / "validate" / "metrics.json"),
                    "--out", str(out / "report.txt")]),
    ]


def _chain_dynamic_sim(inp: Path, out: Path, size: Size) -> list[tuple[str, list[str]]]:
    cfg = inp / "config.json"
    return [
        ("simulate", ["--config", str(cfg), "simulate", "--out", str(out / "logs")]),
        ("prepare", ["--config", str(cfg), "prepare", "--logs", str(out / "logs"),
                     "--out", str(out / "prep")]),
        ("identify", ["--config", str(cfg), "identify", "--prepared",
                      str(out / "prep" / "prepared.csv"), "--out", str(out / "identify")]),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[Path, int, Size], None]
    chain: Callable[[Path, Path, Size], list[tuple[str, list[str]]]]
    # Where the chain finds the exact parameter vectors of its data.
    expected_x: Callable[[Path, Path], Path]
    # In-class data: parameters must be recovered to rounding.
    exact: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "static-rawlog-1800s",
            "real-log path: raw CSV reading and dataprep do most non-import work; "
            "the 7/13-column static solves stay light",
            _gen_static, _chain_static,
            lambda inp, out: inp / "logs" / "expected_x.json", exact=False,
        ),
        Workload(
            "dynamic-discrete-20k",
            "estimator path: 21-column solves, resolve_alpha and partition loops on "
            "exact in-class data; no oracle or dataprep",
            _gen_discrete, _chain_discrete,
            lambda inp, out: inp / "expected_x.json", exact=True,
        ),
        Workload(
            "dynamic-sim-1200s",
            "simulator and raw-log write path: RK4 simulate_continuous dominates; "
            "measures the noise bias of the pole",
            _gen_dynamic_sim, _chain_dynamic_sim,
            lambda inp, out: out / "logs" / "expected_x.json", exact=False,
        ),
    )
}


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def source_digest(src: Path) -> str:
    """Digest of the program sources, so cached inputs follow the oracle's code."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_inputs(
    w: Workload, seed: int, size: Size, cache: Path, src: Path
) -> tuple[Path, dict[str, str]]:
    """Generate the seeded inputs once per (workload, size, seed, sources).

    Returns the input directory and the SHA-256 of every file in it.  A
    change to the oracle's output bits shows up as changed digests.
    """
    tag = "smoke" if size == SMOKE else "full"
    d = cache / source_digest(src) / f"{w.name}-{tag}-seed{seed}"
    if not d.is_dir():
        tmp = d.with_name(d.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            w.generate(tmp, seed, size)
            os.replace(tmp, d)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    files = sorted(p for p in d.rglob("*") if p.is_file())
    return d, {p.relative_to(d).as_posix(): sha256_of(p) for p in files}


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _vectors(doc: dict) -> dict[str, np.ndarray]:
    return {a: np.array([row["value"] for row in doc["vectors"][a]]) for a in ("u", "v", "r")}


def check_command(w: Workload, command: str, inp: Path, out: Path) -> tuple[list[str], dict]:
    """Output checks of one finished command: (failures, accuracy figures)."""
    fail: list[str] = []
    acc: dict[str, float] = {}
    try:
        if command == "simulate":
            for name in ("gnss.csv", "heading.csv", "pwm.csv", "expected_x.json"):
                if not (out / "logs" / name).is_file():
                    fail.append(f"simulate wrote no {name}")
        elif command == "prepare":
            if not (out / "prep" / "prepared.csv").is_file():
                fail.append("prepare wrote no prepared.csv")
            if _load_json(out / "prep" / "summary.json")["points"] <= 0:
                fail.append("prepare kept no points")
        elif command == "identify":
            model = _load_json(out / "identify" / "model.json")
            fail += [f"model.json lacks {k!r}" for k in MODEL_KEYS if k not in model]
            expected = _load_json(w.expected_x(inp, out))
            got, want = _vectors(model), _vectors(expected)
            errs = {a: float(np.linalg.norm(got[a] - want[a]) / np.linalg.norm(want[a]))
                    for a in got}
            acc["param_rel_err_max"] = max(errs.values())
            if not all(math.isfinite(e) for e in errs.values()):
                fail.append(f"non-finite parameter error {errs}")
            if expected["alpha"] is not None:
                acc["alpha_abs_err"] = abs(model["alpha"] - expected["alpha"])
            if w.exact:
                if acc["param_rel_err_max"] > EXACT_TOL:
                    fail.append(f"in-class parameter error {errs} exceeds {EXACT_TOL}")
                if acc["alpha_abs_err"] > EXACT_TOL:
                    fail.append(f"in-class pole error {acc['alpha_abs_err']} exceeds {EXACT_TOL}")
        elif command == "validate":
            doc = _load_json(out / "validate" / "metrics.json")
            fail += [f"metrics.json lacks {k!r}" for k in METRICS_KEYS if k not in doc]
            r2 = [*doc["train"]["r2"].values(), *doc["validation"]["r2"].values(),
                  *doc["sensitivity"]["mean_r2"].values()]
            for entry in doc["sweep"]:
                r2 += [*entry["train"]["r2"].values(), *entry["validation"]["r2"].values()]
            if not all(math.isfinite(x) for x in r2):
                fail.append("metrics.json reports a non-finite R^2")
            acc["val_r2_min"] = min(doc["validation"]["r2"].values())
        elif command == "report":
            if "Validation metrics" not in (out / "report.txt").read_text(encoding="utf-8"):
                fail.append("report.txt has no validation table")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        fail.append(f"{command}: {type(exc).__name__}: {exc}")
    return fail, acc
