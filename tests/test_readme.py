"""README's code and export list against the package: the tour runs, and the list is the
package's import list."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_library_tour_runs():
    section = README.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    tree = ast.parse(code)
    imported = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == set(), "the tour imports names it never uses"
    exec(compile(code, "README.md (Library tour)", "exec"), {})


def test_export_list_matches_the_package_imports():
    listed_text = README.split("The package exports:", 1)[1].strip().split("\n\n", 1)[0]
    listed = {}
    for item in listed_text.split("\n- "):
        module, names = item.lstrip("- ").split(":", 1)
        listed[module.strip("`")] = set(re.findall(r"`(\w+)`", names))

    tree = ast.parse((ROOT / "src" / "arithmos" / "__init__.py").read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
    assert listed == imported
