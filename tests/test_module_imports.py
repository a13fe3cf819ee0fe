"""No module under ``src/stackgp`` imports scipy, except gmrf.py.

No stackgp command loads scipy: the GP, its fits included, runs on numpy
alone. An ``import scipy...`` anywhere the CLI reaches would undo that for
the commands that run it, whether it sits at module level or inside a
function, where it runs on the first call. A dynamic import would too, so a
string that names a scipy module counts as one.
"""

import ast
import re
from pathlib import Path

import stackgp

SRC = Path(stackgp.__file__).resolve().parent

# the CLI never imports it: only the c03/c04 lattice GMRF route uses scipy.sparse
MAY_IMPORT_SCIPY = {"gmrf.py"}
SCIPY_NAME = re.compile(r"scipy(\.\w+)*")


def _scipy_imports(tree: ast.Module) -> list:
    """(line, module) of every scipy import in the module, at any depth, and of
    every string that is a scipy module name, as a dynamic import would take."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and SCIPY_NAME.fullmatch(node.value):
            found.append((node.lineno, node.value))
    return sorted((line, name) for line, name in found if name.split(".")[0] == "scipy")


def test_no_module_level_scipy_import_outside_gmrf():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        hits = _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))
        if hits and rel not in MAY_IMPORT_SCIPY:
            offenders[rel] = hits
    assert not offenders, f"scipy imports {offenders}; stackgp runs on numpy alone"


def test_the_scan_sees_imports_at_every_depth():
    tree = ast.parse("import os\n"
                     "try:\n    from scipy.linalg import cholesky\nexcept ImportError:\n    pass\n"
                     "class A:\n    import scipy.special as special\n"
                     "def f():\n    from scipy.optimize import minimize\n"
                     "def g():\n    import importlib\n"
                     "    return importlib.import_module('scipy.linalg'), __import__('scipy')\n"
                     "LAZY = {'k0': 'scipy.special'}\n"
                     "from .lbfgs import minimize\n"
                     "'''The K0 of scipy.special, in numpy.'''\n")
    assert _scipy_imports(tree) == [(3, "scipy.linalg"), (7, "scipy.special"),
                                    (9, "scipy.optimize"), (12, "scipy"), (12, "scipy.linalg"),
                                    (13, "scipy.special")]
    assert _scipy_imports(ast.parse((SRC / "gmrf.py").read_text(encoding="utf-8")))
