"""Load a compiled SciPy extension module from its file.

gridmaint needs two of SciPy's extension modules: the HiGHS bindings
(``scipy.optimize._highspy._core``) and the special-function ufuncs that hold
``ndtr`` and ``log_ndtr`` (``scipy.special._special_ufuncs``).  Importing
either by its dotted name first runs the ``__init__`` of ``scipy.optimize``
or ``scipy.special``, which load scipy.linalg, scipy.sparse, scipy.fft and
numpy.f2py: about 0.4 s and 35 MB that no gridmaint code uses.  Loaded from
its file, the extension is the same shared object, registered under the same
name, so a later ``import scipy.special`` hands out the very ufuncs gridmaint
holds.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

import scipy


def load_extension(name: str) -> ModuleType:
    """The extension module ``name`` (a dotted name under ``scipy``), loaded
    from its file in SciPy's install without running any package
    ``__init__`` but ``scipy``'s own.

    As ``import`` does, it returns ``sys.modules[name]`` when that is set,
    raises ``ImportError`` when it is ``None``, registers the module before
    running it and drops the entry again when loading fails.  A SciPy that
    has no file for ``name`` raises ``ImportError`` naming its version."""
    if name in sys.modules:
        module = sys.modules[name]
        if module is None:
            raise ImportError(f"import of {name} halted; None in sys.modules",
                              name=name)
        return module
    package, _, stem = name.rpartition(".")
    directory = os.path.join(os.path.dirname(scipy.__file__), *package.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, stem + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"SciPy {scipy.__version__} has no extension module {name} "
                          f"in {directory}", name=name)
    spec = importlib.util.spec_from_file_location(name, path)
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module
