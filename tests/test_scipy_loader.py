import ast
import os

import pytest
import scipy

import matchstudy
from matchstudy import _scipy

from util import load_in_fresh_interpreter

SPECIAL = [os.path.join(p, "special") for p in scipy.__path__]
NDTRI = "round(float(result.ndtri(0.975)), 6)"


class TestSpecialLoader:
    @pytest.mark.parametrize(
        "siblings, in_folder",
        [
            (_scipy.SPECIAL_SIBLINGS, False),
            # Without _gufuncs in sys.modules, _ufuncs imports the package as
            # it loads, which fails and leaves partial scipy.special entries.
            (tuple(s for s in _scipy.SPECIAL_SIBLINGS if s != "_gufuncs"), True),
        ],
        ids=["folder-without-the-extensions", "without-gufuncs"],
    )
    def test_failed_load_gives_the_public_functions(self, tmp_path, siblings, in_folder):
        folders = SPECIAL if in_folder else [str(tmp_path)]
        loaded = load_in_fresh_interpreter("scipy.special", [*siblings, "_ufuncs"], folders, NDTRI)
        # The package import began with no scipy.special entry left.
        assert loaded == {"module": "scipy.special", "at_fallback": [[]], "package_imported": True, "value": 1.959964}


_SCIPY_SUBPACKAGES = ("scipy.special", "scipy.optimize", "scipy.stats")


def _scipy_imports(path):
    """(line, module) of each import of ``scipy.special``, ``scipy.optimize``
    or ``scipy.stats`` in ``path``, in any form, at any depth."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] if node.module != "scipy" else [f"scipy.{a.name}" for a in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.startswith(_SCIPY_SUBPACKAGES)]
    return found


def test_only_the_loader_imports_scipy_subpackages():
    # A stage module that imported scipy.special or scipy.optimize would load
    # the package into every process again.
    package = os.path.dirname(os.path.abspath(matchstudy.__file__))
    offenders = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "_scipy.py":
            found = _scipy_imports(os.path.join(package, name))
            if found:
                offenders[name] = found
    assert offenders == {}
    assert _scipy_imports(os.path.join(package, "_scipy.py")) == []


def test_import_scan_sees_every_form(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import scipy\n"
        "import scipy.special\n"
        "from scipy.optimize import linear_sum_assignment\n"
        "from scipy import stats\n"
        "def f():\n"
        "    from scipy.special import ndtr\n"
    )
    assert _scipy_imports(str(path)) == [
        (2, "scipy.special"),
        (3, "scipy.optimize"),
        (4, "scipy.stats"),
        (6, "scipy.special"),
    ]
