import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import asvid
from asvid import cli, storage

# Packages no command needs; each would add to every command's start-up.
FORBIDDEN_PREFIXES = ("scipy", "numpy.polynomial")

SRC = str(Path(asvid.__file__).resolve().parents[1])
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def python(*args: str, path: str = SRC) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``path`` as PYTHONPATH; it must exit 0."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def imported_packages(importtime_stderr: str) -> set[str]:
    """The top-level packages in the ``-X importtime`` lines of a run."""
    return {
        line.rsplit("|", 1)[-1].strip().split(".")[0]
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    }


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
