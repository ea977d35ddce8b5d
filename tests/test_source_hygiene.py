"""Static checks over the package source, in place of a linter: no module imports a name it
never uses, and no module-level private name is left without a reference in its module.
Both are read from each module's syntax tree, so nothing here imports the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "arithmos").glob("*.py"))


def loaded_names(tree: ast.Module) -> set[str]:
    """Every bare name the module reads (an attribute chain is read through its first name)."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def imported_names(tree: ast.Module) -> list[str]:
    """The names the module's imports bind; ``import a.b`` binds ``a``. Future imports bind none."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level names with one leading underscore, bound by a def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


@pytest.fixture(params=SOURCES, ids=lambda path: path.name)
def tree(request) -> ast.Module:
    return ast.parse(request.param.read_text(), filename=str(request.param))


def test_the_package_sources_are_found():
    assert {"__init__.py", "cli.py", "core.py", "powerseries.py"} <= {path.name for path in SOURCES}


def test_every_import_is_used(tree):
    used = loaded_names(tree)
    assert [name for name in imported_names(tree) if name not in used] == []


def test_every_private_module_name_is_referenced(tree):
    used = loaded_names(tree)
    assert [name for name in private_definitions(tree) if name not in used] == []


def test_the_checks_see_an_unused_import_and_a_dead_helper():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n\ndef _dead():\n    return lcm(1, 2)\n\n_USED = gcd\n"
                     "print(_USED)\n")
    used = loaded_names(tree)
    assert [name for name in imported_names(tree) if name not in used] == ["os"]
    assert [name for name in private_definitions(tree) if name not in used] == ["_dead"]
