"""The scipy functions the library uses, loaded from their extension modules.

This is the one module of the library that names scipy submodules. The
others import their scipy functions from here.

The assignment solver, ``linear_sum_assignment``, comes from
``scipy.optimize._lsap``, and six special functions (``expit``,
``gammaincinv``, ``gammaln``, ``logit``, ``ndtr``, ``ndtri``) come from
``scipy.special._ufuncs``. Each extension module is loaded alone, under its
real name, so that a later ``import scipy.optimize`` or ``import
scipy.special`` reuses it and exposes the same function objects. The
packages themselves would load far more than these functions: the
``scipy.optimize`` package brings ``scipy.linalg`` and ``scipy.sparse``,
and the ``scipy.special`` package runs ``scipy._lib._array_api``, which loads
``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and ``unittest``. No stage
uses any of them.

``_ufuncs`` imports names from its sibling extension modules when it loads.
Where a sibling is not yet in ``sys.modules``, that import goes through the
``scipy.special`` package, so the siblings are loaded first.

Where a module cannot be loaded this way (another scipy layout), the public
package is imported instead; it holds the same functions.
"""
from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
from collections.abc import Sequence

import scipy

#: The extension modules of ``scipy.special`` that ``_ufuncs`` imports from
#: when it loads, in load order.
SPECIAL_SIBLINGS = ("_ufuncs_cxx", "_special_ufuncs", "_gufuncs", "_ellip_harm_2")


def load(package: str, modules: Sequence[str], folders: Sequence[str]):
    """The last of ``modules``, extension modules of ``package`` loaded in
    order from ``folders`` under their real names (``package.name``); a
    module already in ``sys.modules`` is reused. When ``package`` is already
    imported, or when a module is missing from ``folders`` or fails to load,
    the ``package`` itself: on failure, the ``package.*`` entries this call
    added to ``sys.modules`` are removed first, so that the package import
    loads its modules afresh."""
    if package in sys.modules:
        return sys.modules[package]
    before = set(sys.modules)
    try:
        for name in modules:
            module = _load_extension(f"{package}.{name}", folders)
    except ImportError:
        prefix = package + "."
        for name in set(sys.modules) - before:
            if name.startswith(prefix):
                del sys.modules[name]
        return importlib.import_module(package)
    return module


def _load_extension(name: str, folders: Sequence[str]):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.machinery.PathFinder.find_spec(name, folders)
    if spec is None:
        raise ImportError(f"no module {name} in {list(folders)}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _folders(package: str) -> list[str]:
    return [os.path.join(p, package) for p in scipy.__path__]


linear_sum_assignment = load("scipy.optimize", ["_lsap"], _folders("optimize")).linear_sum_assignment

_special = load("scipy.special", [*SPECIAL_SIBLINGS, "_ufuncs"], _folders("special"))
expit = _special.expit
gammaincinv = _special.gammaincinv
gammaln = _special.gammaln
logit = _special.logit
ndtr = _special.ndtr
ndtri = _special.ndtri
del _special
