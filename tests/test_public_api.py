"""No public API that only tests reach.

Every top-level public function or class in ``src/stackgp`` must be referenced
by other source code there: as a name, an attribute or an imported name. A
definition's own body does not count, so a function that only calls itself is
still unreferenced.
"""

import ast
from pathlib import Path

import stackgp

SRC = Path(stackgp.__file__).resolve().parent

# kept although no command calls them, each for the acceptance criterion that pins it
KEPT_FOR_CRITERIA = {
    "project_simplex": "c07 checks the Euclidean simplex projection against an exhaustive grid",
    "lattice_gmrf_precision": "c03/c04 check the lattice GMRF route against dense conditioning",
    "gp_condition_precision": "c03 checks sparse-precision conditioning against the dense one",
}


def _referenced(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _scan():
    """(public top-level definitions -> defining file, every name used outside its definition)."""
    defined, used = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = path.relative_to(SRC)
                used |= _referenced(node) - {node.name}
            else:
                used |= _referenced(node)
    return defined, used


def test_every_public_definition_is_used_by_source():
    defined, used = _scan()
    unreferenced = {name: str(path) for name, path in defined.items() if name not in used}
    assert set(unreferenced) == set(KEPT_FOR_CRITERIA), \
        f"unreferenced public definitions {unreferenced}; allowed only {sorted(KEPT_FOR_CRITERIA)}"
