import os
import subprocess
import sys
from pathlib import Path

import asvid


def test_import_loads_no_scipy():
    # Every CLI command is a fresh interpreter that pays for this import.
    code = (
        "import sys\n"
        "import asvid, asvid.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
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
