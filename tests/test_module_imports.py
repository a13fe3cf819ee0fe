"""No module under ``src/stackgp`` imports scipy at module level, except gmrf.py.

Commands that run no GP load no scipy; gp.py imports its scipy names on first
use. A module-level ``import scipy...`` anywhere the CLI imports would undo
that for every command. Statements inside function bodies run only when
called, so they are allowed; class bodies and module-level ``if``/``try``
blocks run at import, so they count.
"""

import ast
from pathlib import Path

import stackgp

SRC = Path(stackgp.__file__).resolve().parent

# the CLI never imports it: only the c03/c04 lattice GMRF route uses scipy.sparse
MAY_IMPORT_SCIPY = {"gmrf.py"}


def _import_time_scipy(tree: ast.Module) -> list:
    """(line, module) of every scipy import that runs when the module is imported."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        todo.extend(ast.iter_child_nodes(node))
    return sorted((line, name) for line, name in found if name.split(".")[0] == "scipy")


def test_no_module_level_scipy_import_outside_gmrf():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        hits = _import_time_scipy(ast.parse(path.read_text(encoding="utf-8")))
        if hits and rel not in MAY_IMPORT_SCIPY:
            offenders[rel] = hits
    assert not offenders, f"module-level scipy imports {offenders}; import scipy on first use"


def test_the_scan_sees_nested_imports_but_not_function_bodies():
    tree = ast.parse("import os\n"
                     "try:\n    from scipy.linalg import cholesky\nexcept ImportError:\n    pass\n"
                     "class A:\n    import scipy.special as special\n"
                     "def f():\n    from scipy.optimize import minimize\n")
    assert _import_time_scipy(tree) == [(3, "scipy.linalg"), (7, "scipy.special")]
    assert _import_time_scipy(ast.parse((SRC / "gmrf.py").read_text(encoding="utf-8")))
