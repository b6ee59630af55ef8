"""Cold imports stay scipy-free.

scipy is the ARIMA backend of Table IV and nothing else, so importing
the package, or starting the CLI, must not load it:
:func:`repro.timeseries.arima.load_backend` imports it on the first fit
or forecast.  Each check runs in a fresh interpreter so ``sys.modules``
starts clean.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = (
    "repro",
    "repro.api",
    "repro.cli",
    "repro.serve",
    "repro.timeseries",
    "repro.core.context",
    "repro.experiments.registry",
)

_REPORT_SCIPY = (
    "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_package_imports_load_no_scipy():
    code = "".join(f"import {name}; " for name in MODULES) + _REPORT_SCIPY
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_help_loads_no_scipy():
    # Run the CLI's --help as ``python -m repro.cli --help`` does, then
    # report what it left in sys.modules.
    code = (
        "import runpy, sys\n"
        "sys.argv = ['repro.cli', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code\n"
        + _REPORT_SCIPY
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
