import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import asvid
from asvid import cli, storage

# Packages no command needs; each would add to every command's start-up.
FORBIDDEN_PREFIXES = ("scipy", "numpy.polynomial")

SRC = str(Path(asvid.__file__).resolve().parents[1])
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def python(*args: str, path: str = SRC, check: bool = True,
           env: dict[str, str | None] | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``path`` as PYTHONPATH and the variables
    ``env`` set (or, where None, unset); with ``check`` it must exit 0."""
    environ = dict(os.environ, PYTHONPATH=path)
    for name, value in (env or {}).items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        check=check,
        env=environ,
        timeout=120,
    )


def imported_modules(importtime_stderr: str) -> set[str]:
    """The modules in the ``-X importtime`` lines of a run."""
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    }


def imported_packages(importtime_stderr: str) -> set[str]:
    """The top-level packages in the ``-X importtime`` lines of a run."""
    return {module.split(".")[0] for module in imported_modules(importtime_stderr)}


def test_import_loads_no_scipy():
    # Every CLI command is a fresh interpreter that pays for this import.
    code = (
        "import sys\n"
        "import asvid, asvid.cli\n"
        f"prefixes = {FORBIDDEN_PREFIXES!r}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if any(m == p or m.startswith(p + '.') for p in prefixes)))\n"
    )
    assert python("-c", code).stdout.strip() == "[]"


def test_import_and_report_load_no_numpy(tmp_path, ds_dynamic, capsys):
    # report formats one JSON file; numpy's import would be most of its time.
    assert "numpy" not in imported_packages(python("-X", "importtime", "-c", "import asvid").stderr)

    prep, val = tmp_path / "prepared.csv", tmp_path / "val"
    storage.write_prepared_csv(prep, ds_dynamic)
    assert cli.main(["validate", "--prepared", str(prep), "--kind", "dynamic",
                     "--sensitivity", "2", "--sweep", "0.7,0.6", "--out", str(val)]) == 0
    numeric, fresh = tmp_path / "numeric.txt", tmp_path / "fresh.txt"
    assert cli.main(["report", "--metrics", str(val / "metrics.json"), "--out", str(numeric)]) == 0
    capsys.readouterr()
    assert "numpy" in sys.modules  # this process reports with the numeric modules loaded
    run = python("-X", "importtime", "-m", "asvid.cli", "report",
                 "--metrics", str(val / "metrics.json"), "--out", str(fresh))
    assert "numpy" not in imported_packages(run.stderr)
    assert fresh.read_bytes() == numeric.read_bytes()


def test_tracer_entered_before_the_first_command_keeps_its_wrapper(tmp_path, ds_dynamic):
    # The benchmark patches asvid.cli names before any command has bound them.
    prep = tmp_path / "prepared.csv"
    storage.write_prepared_csv(prep, ds_dynamic)
    argv = ["identify", "--prepared", str(prep), "--kind", "dynamic", "--out", str(tmp_path)]
    code = (
        "import sys\n"
        "import spans\n"
        "from asvid import cli\n"
        "assert 'numpy' not in sys.modules and 'build_systems' not in vars(cli)\n"
        "sites = [s for s in spans.SITES if s[:2] == ('asvid.cli', 'build_systems')]\n"
        "with spans.Tracer(sites) as tracer:\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, [s.name for s in tracer.spans])\n"
    )
    out = python("-c", code, path=os.pathsep.join((SRC, PERFBENCH)))
    assert out.stdout.splitlines()[-1] == "0 ['regressors.build_systems']"


# Runs one command in a fresh interpreter; prints its exit code, then the
# loaded modules of the package and the other modules the tests watch.
WATCHED = ("hashlib", "numpy.ma")
RUN_AND_LIST = (
    "import sys\n"
    "from asvid import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    f"watched = {WATCHED!r}\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('asvid.') or m in watched))\n"
)


def command_modules(*argv: str) -> tuple[int, set[str], set[str]]:
    """The exit code of ``asvid argv`` in a fresh interpreter, the modules it
    loaded (those of ``asvid`` without the package prefix, and any watched
    ones), and the ``asvid`` modules its ``-X importtime`` lines list."""
    run = python("-X", "importtime", "-c", RUN_AND_LIST, *argv, check=False)
    code, *modules = run.stdout.splitlines()[-1].split()
    timed = {m.removeprefix("asvid.") for m in imported_modules(run.stderr)
             if m.startswith("asvid.")}
    return int(code), {m.removeprefix("asvid.") for m in modules}, timed


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, small_bundle, ds_dynamic):
    """Raw logs, a prepared dataset of four segments and a short simulate config."""
    root = tmp_path_factory.mktemp("inputs")
    storage.write_raw_logs(root / "logs", small_bundle)
    storage.write_prepared_csv(root / "prepared.csv", ds_dynamic)
    (root / "sim.json").write_text('{"simulate": {"duration_s": 4.0}}')
    return root


def command_argv(command: str, inputs: Path, out: Path) -> list[str]:
    prepared = ["--prepared", str(inputs / "prepared.csv"), "--kind", "dynamic"]
    return {
        "simulate": ["--config", str(inputs / "sim.json"), "simulate", "--out", str(out)],
        "prepare": ["prepare", "--logs", str(inputs / "logs"), "--out", str(out)],
        "identify": ["identify", *prepared, "--out", str(out)],
        "validate": ["validate", *prepared, "--sensitivity", "2", "--sweep", "0.7,0.6",
                     "--out", str(out)],
    }[command]


# Modules each command must not load: it calls nothing in them, and each
# would be compiled and imported on every run of the command.
NOT_LOADED = {
    "simulate": {"validate", "estimator"},
    "prepare": {"estimator", "oracle", "regressors", "validate", "hashlib"},
    "identify": {"oracle", "validate"},
    "validate": {"oracle"},
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_each_command_loads_only_the_modules_it_runs(command, inputs, tmp_path):
    code, modules, timed = command_modules(*command_argv(command, inputs, tmp_path / "out"))
    assert code == 0
    assert {"cli", "storage", *cli._COMMANDS[command]} <= modules
    assert modules & NOT_LOADED[command] == set()
    # -X importtime times every module the command loads (not one that
    # importlib.import_module loads), so it gives each command's import cost.
    assert timed == modules - set(WATCHED)


# Runs one command in a fresh interpreter; prints its exit code, then the
# value of OPENBLAS_NUM_THREADS when numpy began to load.
BLAS_AT_NUMPY = (
    "import os, sys\n"
    "seen = []\n"
    "def hook(event, args):\n"
    "    if event == 'import' and args[0] == 'numpy' and not seen:\n"
    "        seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    "sys.addaudithook(hook)\n"
    "from asvid import cli\n"
    "print(cli.main(sys.argv[1:]), seen)\n"
)


@pytest.mark.parametrize("preset", [None, "3"])
@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_numpy_loads_with_one_blas_thread_unless_one_is_chosen(command, preset, inputs,
                                                                 tmp_path):
    # OpenBLAS sizes its thread pool when numpy loads; validate --sweep loads
    # numpy while the flags are parsed.
    argv = command_argv(command, inputs, tmp_path / "out")
    run = python("-c", BLAS_AT_NUMPY, *argv, env={"OPENBLAS_NUM_THREADS": preset})
    assert run.stdout.splitlines()[-1] == f"0 [{preset or '1'!r}]"


def test_main_after_numpy_loaded_leaves_the_environment_alone(monkeypatch, inputs, tmp_path):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert "numpy" in sys.modules
    assert cli.main(command_argv("identify", inputs, tmp_path / "out")) == 0
    assert dict(os.environ) == before


def test_outputs_do_not_depend_on_the_blas_thread_count(inputs, tmp_path):
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {"OPENBLAS_NUM_THREADS": threads, "SOURCE_DATE_EPOCH": "0"}
        python("-m", "asvid.cli", *command_argv("identify", inputs, out / "identify"), env=env)
        for method in ("by_points", "by_segments"):
            argv = [*command_argv("validate", inputs, out / method), "--method", method]
            python("-m", "asvid.cli", *argv, env=env)
    files = ["identify/model.json"] + [
        f"{method}/{name}" for method in ("by_points", "by_segments")
        for name in ("metrics.json", "metrics.csv", "traces.csv")
    ]
    for name in files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_segment_validation_loads_no_numpy_ma(inputs, tmp_path):
    # A bare np.unique imports numpy.ma in numpy 2; numpy 1.24 imports it with numpy.
    eager = python("-c", "import sys, numpy; print('numpy.ma' in sys.modules)").stdout.strip()
    if eager == "True":
        pytest.skip("this numpy loads numpy.ma when it is imported")
    argv = ["validate", "--prepared", str(inputs / "prepared.csv"), "--kind", "dynamic",
            "--method", "by_segments", "--sensitivity", "2", "--out", str(tmp_path / "val")]
    code, modules, _ = command_modules(*argv)
    assert code == 0
    assert "numpy.ma" not in modules


def test_inferred_h_loads_no_numpy_ma(inputs, ds_dynamic, tmp_path):
    # A prepared file without its "# h=" record gets h from a median of steps.
    eager = python("-c", "import sys, numpy; print('numpy.ma' in sys.modules)").stdout.strip()
    if eager == "True":
        pytest.skip("this numpy loads numpy.ma when it is imported")
    prep = tmp_path / "prepared.csv"
    prep.write_text("".join(line for line in (inputs / "prepared.csv").read_text().splitlines(
        keepends=True) if not line.startswith("# h=")))
    read = ("import sys\nfrom asvid import storage\n"
            "print(storage.read_prepared_csv(sys.argv[1]).h.hex(), 'numpy.ma' in sys.modules)")
    h, ma = python("-c", read, str(prep)).stdout.split()
    first = ds_dynamic.t[ds_dynamic.segment == ds_dynamic.segment[0]]
    assert float.fromhex(h) == float(np.median(np.diff(first)))
    assert ma == "False"


def test_config_check_without_the_simulator_still_rejects_bad_sections(inputs, tmp_path,
                                                                       gt_static):
    # prepare and identify build no simulator from their configs, yet a bad
    # simulate or ground_truth section still fails them before they run.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"simulate": {"noise": {"pos": 0.02}}}')
    argv = ["--config", str(cfg), *command_argv("prepare", inputs, tmp_path / "p")]
    assert command_modules(*argv)[0] == 2
    assert not (tmp_path / "p").exists()

    storage.write_ground_truth(tmp_path / "gt.json", gt_static)
    doc = json.loads((tmp_path / "gt.json").read_text())
    doc["thrust"]["gain"] = 1.0
    cfg.write_text(json.dumps({"ground_truth": doc}))
    argv = ["--config", str(cfg), *command_argv("identify", inputs, tmp_path / "id")]
    assert command_modules(*argv)[0] == 2
    assert not (tmp_path / "id").exists()


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(asvid.__path__)))
def test_module_exports_resolve(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(f"asvid.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_root_names_are_exported():
    # The root binds a name on first access, so walk __all__, not vars(asvid).
    assert set(asvid.__all__) <= set(dir(asvid))
    for name in asvid.__all__:
        obj = getattr(asvid, name)
        home = sys.modules[obj.__module__]
        assert getattr(home, name) is obj
        assert name in getattr(home, "__all__", (name,)), f"{name} missing from {home.__name__}.__all__"
    bound = {name for name, obj in vars(asvid).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert bound <= set(asvid.__all__)


def test_package_root_unknown_name_raises():
    with pytest.raises(AttributeError, match="'asvid' has no attribute 'no_such_name'"):
        asvid.no_such_name
