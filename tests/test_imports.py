import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import asvid


# Packages no command needs; each would add to every command's start-up.
FORBIDDEN_PREFIXES = ("scipy", "numpy.polynomial")


def test_import_loads_no_scipy():
    # Every CLI command is a fresh interpreter that pays for this import.
    code = (
        "import sys\n"
        "import asvid, asvid.cli\n"
        f"prefixes = {FORBIDDEN_PREFIXES!r}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if any(m == p or m.startswith(p + '.') for p in prefixes)))\n"
    )
    src = str(Path(asvid.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(asvid.__path__)))
def test_module_exports_resolve(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(f"asvid.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_root_names_are_exported():
    for name, obj in vars(asvid).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        home = sys.modules[obj.__module__]
        assert getattr(home, name) is obj
        assert name in getattr(home, "__all__", (name,)), f"{name} missing from {home.__name__}.__all__"
