"""The SciPy extension modules gridmaint loads from their files are the ones
``import`` hands out, and the loader fails as ``import`` does."""

import os
import subprocess
import sys
from pathlib import Path

import gridmaint

SRC = Path(gridmaint.__file__).resolve().parents[1]


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)


def test_a_later_import_hands_out_the_loaded_objects():
    code = (
        "import sys\n"
        "from gridmaint import degrade, solver\n"
        "import numpy as np, scipy.optimize, scipy.special\n"
        "assert degrade.ndtr is scipy.special.ndtr\n"
        "assert degrade.log_ndtr is scipy.special.log_ndtr\n"
        "assert solver._highs is sys.modules['scipy.optimize._highspy._core']\n"
        "res = scipy.optimize.milp(\n"
        "    c=[-3.0, -2.0], integrality=[1, 1], bounds=scipy.optimize.Bounds(0, 1),\n"
        "    constraints=scipy.optimize.LinearConstraint([[2.0, 2.0]], -np.inf, 3.0))\n"
        "assert res.success and res.fun == -3.0 and list(res.x) == [1.0, 0.0], res\n"
        "print('ok')\n")
    out = _run(code)
    assert out.stdout.strip() == "ok", out.stderr


def test_a_missing_file_names_the_scipy_version_and_leaves_no_entry():
    code = (
        "import sys, scipy\n"
        "from gridmaint._extension import load_extension\n"
        "name = 'scipy.special._no_such_extension'\n"
        "try:\n"
        "    load_extension(name)\n"
        "except ImportError as exc:\n"
        "    assert f'SciPy {scipy.__version__}' in str(exc), exc\n"
        "    assert name not in sys.modules\n"
        "    print('ok')\n")
    out = _run(code)
    assert out.stdout.strip() == "ok", out.stderr


def test_a_module_that_fails_to_load_leaves_no_entry():
    code = (
        "import importlib.machinery, sys\n"
        "from gridmaint._extension import load_extension\n"
        "def fail(self, module):\n"
        "    raise RuntimeError('init failed')\n"
        "importlib.machinery.ExtensionFileLoader.exec_module = fail\n"
        "name = 'scipy.special._special_ufuncs'\n"
        "try:\n"
        "    load_extension(name)\n"
        "except RuntimeError:\n"
        "    assert name not in sys.modules\n"
        "    print('ok')\n")
    out = _run(code)
    assert out.stdout.strip() == "ok", out.stderr
