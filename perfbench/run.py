"""Seeded benchmark of the asvid CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
``src/``.  With ``--trace 0`` every command of the workload's chain runs as
its own ``python -m asvid.cli`` subprocess, untraced, and chains repeat for
about ``--seconds``; the end-to-end metrics are medians over chains, in
reference-speed seconds (see ``ReferenceClock``).  With ``--trace 1`` the
same chain runs in this process, alternately untraced and with spans around
every layer (see ``spans.py``), and the per-layer metrics are reported.  Both modes check every command's outputs, print a
table of all metrics, and end with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
an output check fails and 2 when the program sources are missing.

Working files (cached inputs, chain outputs, a result record) go to
``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from spans import LayerTotals, Tracer, layer_metrics, parse_importtime
from workloads import FULL, SMOKE, WORKLOADS, check_command, cli_main, ensure_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Stop starting new work past this, so a run ends well inside 180 s.
HARD_LIMIT_S = 165.0
T_START = time.monotonic()
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
# The calibration process: the kinds of work the commands do (interpreter
# start, importing numpy and scipy, a pure-Python loop like the simulator's),
# but none of the program's code.
CALIBRATION = [
    "-c",
    "import numpy, scipy.signal, scipy.linalg\ns = 0\nfor i in range(400_000):\n    s += i * i % 7",
]
# End-to-end times are reported in seconds of a host on which the
# calibration process takes this long.
CAL_REF_S = 1.0

# name: (unit, better, in the result line).  A metric is in the result line
# only when every workload measures it and its median over one run is steady
# enough to compare; the others are printed in the table.  identify_s runs on
# every workload, but as one short command per chain it spreads too much.
END_TO_END = {
    "setup_s": ("s", "lower", True),
    "pipeline_s": ("s", "lower", True),
    "setup_wall_s": ("s", "lower", False),
    "pipeline_wall_s": ("s", "lower", False),
    "calibration_s": ("s", "lower", False),
    "simulate_s": ("s", "lower", False),
    "prepare_s": ("s", "lower", False),
    "identify_s": ("s", "lower", False),
    "validate_s": ("s", "lower", False),
    "report_s": ("s", "lower", False),
    "peak_rss_mb": ("MB", "lower", True),
    "failed_frac": ("ratio", "lower", False),
    "param_rel_err_max": ("ratio", "lower", False),
    "alpha_abs_err": ("1", "lower", False),
    "val_r2_min": ("1", "higher", False),
}

# name: (unit, better, in the result line).  Layer times that some workload never
# calls would read 0 there on every run, so they stay in the table; counts
# and ratios, which may be 0, go in the result line.
PER_LAYER = {
    "import.asvid_s": ("s", "lower", True),
    "import.scipy_s": ("s", "lower", True),
    "oracle.simulate_continuous_s": ("s", "lower", False),
    "oracle.rk4_substeps": ("count", "lower", True),
    "oracle.substeps_per_s": ("1/s", "higher", False),
    "oracle.emit_sensor_logs_s": ("s", "lower", False),
    "storage.write_raw_logs_s": ("s", "lower", False),
    "storage.raw_bytes_written": ("count", "lower", True),
    "storage.read_raw_logs_s": ("s", "lower", False),
    "storage.raw_rows_read": ("count", "lower", True),
    "storage.write_prepared_csv_s": ("s", "lower", False),
    "storage.read_prepared_csv_s": ("s", "lower", True),
    "storage.read_prepared_csv_calls": ("count", "lower", True),
    "storage.write_model_file_s": ("s", "lower", True),
    "dataprep.build_prepared_dataset_s": ("s", "lower", False),
    "dataprep.resample_causal_s": ("s", "lower", False),
    "dataprep.resample_grid_points": ("count", "lower", True),
    "dataprep.savitzky_golay_s": ("s", "lower", False),
    "dataprep.usable_ratio": ("ratio", "higher", True),
    "regressors.build_systems_s": ("s", "lower", True),
    "regressors.build_systems_calls": ("count", "lower", True),
    "regressors.rows.u": ("count", "higher", True),
    "regressors.rows.vr": ("count", "higher", True),
    "regressors.row_yield.u": ("ratio", "higher", True),
    "regressors.row_yield.vr": ("ratio", "higher", True),
    "estimator.identify_from_systems_s": ("s", "lower", True),
    "estimator.solve_least_squares_s": ("s", "lower", True),
    "estimator.solve_least_squares_calls": ("count", "lower", True),
    "estimator.resolve_alpha_s": ("s", "lower", False),
    "estimator.resolve_alpha_calls": ("count", "lower", True),
    "validate.partition_s": ("s", "lower", False),
    "validate.evaluate_s": ("s", "lower", False),
    "validate.sensitivity_study_s": ("s", "lower", False),
    "validate.sensitivity_rep_s": ("s", "lower", False),
    "validate.training_fraction_sweep_s": ("s", "lower", False),
    "validate.prediction_traces_s": ("s", "lower", False),
    "cli.simulate_self_s": ("s", "lower", False),
    "cli.prepare_self_s": ("s", "lower", False),
    "cli.identify_self_s": ("s", "lower", True),
    "cli.validate_self_s": ("s", "lower", False),
    "cli.report_self_s": ("s", "lower", False),
    "trace.overhead_frac": ("ratio", "lower", True),
}
# Metrics that depend only on the inputs: equal on every traced chain.
EXACT_LAYER = {n for n, (unit, _, _) in PER_LAYER.items() if unit in ("count", "ratio")} - {
    "trace.overhead_frac"
}


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    code: int
    ref_seconds: float = 0.0


@dataclass
class Chain:
    seconds: dict[str, float] = field(default_factory=dict)
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    accuracy: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())


def run_process(argv: list[str], env: dict, deadline: float, stderr_path: Path) -> Outcome:
    """Run one subprocess; wall time, max RSS (from wait4) and exit code.

    The process is killed at ``deadline`` (a ``time.monotonic`` value).
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    return Outcome(seconds, usage.ru_maxrss / 1024.0, proc.returncode)


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


class ReferenceClock:
    """Times subprocesses in seconds of a reference host.

    The speed of a shared host drifts by tens of percent over tens of
    seconds, and a whole run cannot average that out.  So a calibration
    process runs between the measured ones, and each measured wall time is
    scaled by ``CAL_REF_S`` over the median of the (up to) two calibration
    times just before it and two just after it.  The calibration runs none
    of the program's code, so a change to the program moves only the
    measured side.
    """

    def __init__(self, env: dict, deadline: float, scratch: Path):
        self.env, self.deadline, self.scratch = env, deadline, scratch
        self.samples: list[float] = []
        self._measured: list[tuple[Outcome, int]] = []
        self.calibrate()

    def calibrate(self) -> None:
        err = self.scratch / "calibration.stderr"
        res = run_process([sys.executable, *CALIBRATION], self.env, self.deadline, err)
        if res.code != 0:
            raise RuntimeError(f"calibration process failed: {_stderr_tail(err)}")
        self.samples.append(res.seconds)

    def run(self, argv: list[str], stderr_path: Path) -> Outcome:
        res = run_process(argv, self.env, self.deadline, stderr_path)
        self._measured.append((res, len(self.samples)))
        return res

    def finish(self) -> None:
        """Fill ``ref_seconds`` of every measured outcome; call after the last calibration."""
        for res, n_before in self._measured:
            near = self.samples[max(n_before - 2, 0) : n_before + 2]
            res.ref_seconds = res.seconds * CAL_REF_S / statistics.median(near)


def run_chain_subprocess(w, inp: Path, out: Path, size, clock: ReferenceClock) -> Chain:
    chain = Chain()
    out.mkdir(parents=True)
    for command, argv in w.chain(inp, out, size):
        err = out / f"{command}.stderr"
        res = clock.run([sys.executable, "-m", "asvid.cli", *argv], err)
        clock.calibrate()
        chain.outcomes[command] = res
        chain.seconds[command] = res.seconds
        failures = [] if res.code == 0 else [f"{command} exited {res.code}: {_stderr_tail(err)}"]
        if res.code == 0:
            failures, acc = check_command(w, command, inp, out)
            chain.accuracy.update(acc)
        chain.failures += failures
        chain.failed += bool(failures)
    return chain


def run_chain_inprocess(w, inp: Path, out: Path, size, traced: bool) -> Chain:
    chain = Chain()
    out.mkdir(parents=True)
    tracer = Tracer()
    for command, argv in w.chain(inp, out, size):
        failures = []
        start = time.perf_counter()
        try:
            if traced:
                with tracer:
                    code = cli_main(argv)
            else:
                code = cli_main(argv)
            if code != 0:
                failures.append(f"{command} returned {code}")
        except Exception as exc:  # noqa: BLE001 - any crash is a failed command
            failures.append(f"{command} raised {type(exc).__name__}: {exc}")
        chain.seconds[command] = time.perf_counter() - start
        if not failures:
            failures, acc = check_command(w, command, inp, out)
            chain.accuracy.update(acc)
        chain.failures += failures
        chain.failed += bool(failures)
    if traced:
        chain.layers = layer_metrics(LayerTotals.of(tracer.spans))
        chain.spans = [vars(s) for s in tracer.spans]
    return chain


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _run_repeated(make_chain, seconds: float) -> list[Chain]:
    """Chains for about ``seconds``, and at least one.

    Judged by the length of the chain before it, another chain is started
    only if it would end less than half a chain past ``seconds``, and before
    the hard limit.
    """
    chains: list[Chain] = []
    t0 = time.monotonic()
    while True:
        started = time.monotonic()
        chains.append(make_chain(len(chains)))
        now = time.monotonic()
        took = now - started
        if now - t0 + took / 2 > seconds or now - T_START + took > HARD_LIMIT_S:
            return chains


def measure_end_to_end(w, inp: Path, run_dir: Path, size, seconds: float, env: dict):
    deadline = T_START + HARD_LIMIT_S + 10.0
    probe = [sys.executable, "-c", "import asvid"]
    err = run_dir / "import.stderr"
    warm = run_process(probe, env, deadline, err)  # also writes the bytecode caches
    if warm.code != 0:
        raise RuntimeError(f"import asvid failed: {_stderr_tail(err)}")
    clock = ReferenceClock(env, deadline, run_dir)
    setup = []
    for _ in range(SETUP_REPEATS):
        setup.append(clock.run(probe, err))
        clock.calibrate()
    chains = _run_repeated(
        lambda i: run_chain_subprocess(w, inp, run_dir / f"chain{i}", size, clock), seconds
    )
    clock.finish()

    def ref(c: Chain) -> float:
        return sum(o.ref_seconds for o in c.outcomes.values())

    metrics: dict[str, float | None] = {name: None for name in END_TO_END}
    metrics["setup_s"] = _median([r.ref_seconds for r in setup])
    metrics["setup_wall_s"] = _median([r.seconds for r in setup])
    metrics["pipeline_s"] = _median([ref(c) for c in chains])
    metrics["pipeline_wall_s"] = _median([c.total_s for c in chains])
    metrics["calibration_s"] = _median(clock.samples)
    for command in chains[0].outcomes:
        metrics[f"{command}_s"] = _median([c.outcomes[command].ref_seconds for c in chains])
    metrics["peak_rss_mb"] = _median([max(o.rss_mb for o in c.outcomes.values()) for c in chains])
    attempted = sum(len(c.seconds) for c in chains)
    failed = sum(c.failed for c in chains)
    metrics["failed_frac"] = failed / attempted
    for key in ("param_rel_err_max", "alpha_abs_err", "val_r2_min"):
        values = [c.accuracy[key] for c in chains if key in c.accuracy]
        if values:
            metrics[key] = _median(values)
    record = {
        "setup_samples": [asdict(r) for r in setup],
        "calibration_samples_s": clock.samples,
        "chains": [asdict(c) for c in chains],
    }
    failures = [f for c in chains for f in c.failures]
    return metrics, attempted, failed, failures, record, len(chains)


def measure_layers(w, inp: Path, run_dir: Path, size, seconds: float, env: dict):
    deadline = T_START + HARD_LIMIT_S + 10.0
    err = run_dir / "importtime.stderr"
    run_process([sys.executable, "-c", "import asvid"], env, deadline, err)
    imports = []
    for _ in range(IMPORTTIME_REPEATS):
        res = run_process([sys.executable, "-X", "importtime", "-c", "import asvid"],
                          env, deadline, err)
        if res.code != 0:
            raise RuntimeError(f"import asvid failed: {_stderr_tail(err)}")
        imports.append(parse_importtime(err.read_text(encoding="utf-8")))

    import asvid.cli  # noqa: F401 - loaded before timing, as a user's process would be

    # One untimed chain first, so lazy set-up inside the libraries is done
    # before either side of the overhead comparison is timed.
    warm = run_chain_inprocess(w, inp, run_dir / "warm", size, traced=False)
    plain: list[Chain] = []

    def pair(i: int) -> Chain:
        plain.append(run_chain_inprocess(w, inp, run_dir / f"plain{i}", size, traced=False))
        return run_chain_inprocess(w, inp, run_dir / f"traced{i}", size, traced=True)

    traced = _run_repeated(pair, seconds)
    chains = [warm, *plain, *traced]
    failures = [f for c in chains for f in c.failures]
    for c in traced[1:]:
        moved = sorted(n for n in EXACT_LAYER if c.layers[n] != traced[0].layers[n])
        if moved:
            failures.append(f"counts differ between traced chains: {moved}")
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        if name.startswith("import."):
            metrics[name] = _median([d[name] for d in imports])
        elif name in EXACT_LAYER:
            metrics[name] = traced[0].layers[name]
        elif name != "trace.overhead_frac":
            metrics[name] = _median([c.layers[name] for c in traced])
    # Paired: each traced chain against the untraced one just before it, so
    # a drift in host speed between pairs cancels.
    metrics["trace.overhead_frac"] = (
        _median([t.total_s / p.total_s for p, t in zip(plain, traced)]) - 1.0
    )
    attempted = sum(len(c.seconds) for c in chains)
    failed = sum(c.failed for c in chains)
    record = {
        "importtime": imports,
        "plain_chain_s": [c.total_s for c in plain],
        "traced_chain_s": [c.total_s for c in traced],
        "spans_last_traced_chain": traced[-1].spans,
    }
    return metrics, attempted, failed, failures, record, len(traced)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_table(title: str, rows: list[tuple[str, object, str, str]]) -> None:
    print(title)
    print(f"  {'metric':<38}{'value':>16}  {'unit':<7}{'better':<7}")
    for name, value, unit, better in rows:
        print(f"  {name:<38}{_fmt(value):>16}  {unit:<7}{better:<7}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "asvid" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'asvid'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH="0")
    w = WORKLOADS[args.workload]
    size = SMOKE if args.smoke else FULL

    inp, inputs = ensure_inputs(w, args.seed, size, WORK / "inputs", SRC)
    run_dir = WORK / f"run-{w.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, attempted, failed, failures, record, n_chains = measure(
            w, inp, run_dir, size, args.seconds, env
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {w.name} seed {args.seed} ({'smoke' if args.smoke else 'full'} size): {w.why}")
    print("inputs (sha256):")
    for name, digest in inputs.items():
        print(f"  {name:<24}{digest}")
    spec = PER_LAYER if args.trace else END_TO_END
    print_table(
        f"per-layer, median of {n_chains} traced in-process chains "
        "(*_s is self time; 0 means the layer was never called):"
        if args.trace
        else f"end-to-end, median of {n_chains} chains, tracing off "
        "(n/a: not in this workload's chain):",
        [(n, metrics[n], unit, better) for n, (unit, better, _) in spec.items()],
    )
    result = {n: {"value": metrics[n], "unit": unit} for n, (unit, _, shown) in spec.items() if shown}
    for failure in failures:
        print(f"FAILED: {failure}")
    correct = not failures
    print(f"commands attempted {attempted}, failed {failed}; outputs "
          f"{'correct' if correct else 'INCORRECT'}")

    WORK.mkdir(exist_ok=True)
    record.update(workload=w.name, seed=args.seed, trace=args.trace, smoke=args.smoke,
                  inputs_sha256=inputs, metrics=metrics, failures=failures)
    (WORK / f"result-{w.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
