"""No public API that only tests reach.

Every top-level public function, class or constant in ``src/stackgp`` must be
referenced by other source code there: as a name, an attribute or an imported
name. A definition's own body does not count, so a function that only calls
itself is still unreferenced, and neither does a package ``__init__.py``
re-export, which only makes a name reachable from outside. Every public
top-level assignment is a definition, and one that gives a function a second
name (found by importing the module) is refused outright: source can call the
function by its own name, so only a test needs the alias.
"""

import ast
import importlib
import inspect
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


def _module(path: Path):
    name = ".".join(("stackgp", *path.relative_to(SRC).with_suffix("").parts))
    return importlib.import_module(name.removesuffix(".__init__"))


def _defines(node) -> set:
    """Names a top-level statement defines: a def, a class or an assigned name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _scan():
    """(public top-level definitions -> (defining file, value), every name used outside its
    definition)."""
    defined, used = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        module = _module(path)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                continue
            names = _defines(node)
            for name in (n for n in names if not n.startswith("_")):
                defined[name] = path.relative_to(SRC), getattr(module, name)
            used |= _referenced(node) - names
    return defined, used


def test_no_public_alias_of_a_function():
    defined, _ = _scan()
    aliases = {name: str(path) for name, (path, value) in defined.items()
               if inspect.isfunction(value) and value.__name__ != name}
    assert not aliases, f"public aliases {aliases}; call each function by its own name"


def test_every_public_definition_is_used_by_source():
    defined, used = _scan()
    unreferenced = {name: str(path) for name, (path, _) in defined.items() if name not in used}
    assert set(unreferenced) == set(KEPT_FOR_CRITERIA), \
        f"unreferenced public definitions {unreferenced}; allowed only {sorted(KEPT_FOR_CRITERIA)}"
