"""The package namespace loads lazily: importing arithmos, or one submodule of it, loads
nothing else of the package, a CLI process loads only what its subcommand runs, and every
exported name is the object its module defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arithmos

ROOT = Path(__file__).resolve().parents[1]

# Runs a statement in a fresh interpreter and prints the names in sys.modules after it.
LOADED_PROBE = """\
import sys
exec(sys.argv[1])
print(" ".join(sys.modules))
"""


def loaded_after(statement: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", LOADED_PROBE, statement], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def package_modules(names: set[str]) -> set[str]:
    return {name for name in names if name == "arithmos" or name.startswith("arithmos.")}


@pytest.mark.parametrize("statement, package", [
    ("import arithmos", {"arithmos"}),
    ("from arithmos import powerseries", {"arithmos", "arithmos.powerseries"}),
    ("from arithmos import ps_pow, TruncatedSeries", {"arithmos", "arithmos.powerseries"}),
])
def test_an_import_loads_only_what_it_names(statement, package):
    loaded = loaded_after(statement)
    assert package_modules(loaded) == package
    # measured against an empty statement, so that what site hooks import at startup does not count
    assert not (loaded - loaded_after("pass")) & {"dataclasses", "inspect"}


# Runs the CLI in the probe's interpreter with its output sent to the null device, so that only
# the probe prints to stdout.
CLI_RUN = """\
import os
from arithmos.cli import cli
shown = sys.stdout
with open(os.devnull, "w") as sys.stdout:
    try:
        cli.main(args={args!r}, prog_name="arithmos")
    except SystemExit as exc:
        assert not exc.code, exc.code
sys.stdout = shown
"""

CLI_MODULES = {"arithmos", "arithmos.cli", "arithmos.core"}


@pytest.mark.parametrize("args, package", [
    (("--version",), CLI_MODULES),
    (("--help",), CLI_MODULES),
    (("waring", "--s", "2", "--t", "4", "--order", "50"), CLI_MODULES | {"arithmos.powerseries", "arithmos.waring"}),
    (("table", "--fn", "d", "--nmax", "50"), CLI_MODULES | {"arithmos.functions", "arithmos.classify"}),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
def test_a_cli_process_loads_only_what_its_subcommand_runs(args, package):
    # measured against a bare import of click, which every CLI process pays for
    loaded = loaded_after(CLI_RUN.format(args=list(args))) - loaded_after("import click")
    assert package_modules(loaded) == package
    if args == ("--version",):
        assert not loaded & {"json", "fractions", "decimal", "dataclasses"}


def test_exported_names_resolve_to_their_modules_objects():
    for name, module in arithmos._EXPORTS.items():
        assert getattr(arithmos, name) is getattr(importlib.import_module(f"arithmos.{module}"), name), name
    assert arithmos.__all__ == list(arithmos._EXPORTS)
    assert set(arithmos._EXPORTS) | arithmos._SUBMODULES <= set(dir(arithmos))
    for name in arithmos._SUBMODULES:
        assert getattr(arithmos, name) is sys.modules[f"arithmos.{name}"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        arithmos.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from arithmos import no_such_name  # noqa: F401


def test_classify_is_the_submodule_before_and_after_the_cli():
    statement = """\
import arithmos.classify as before
from arithmos import classify
import arithmos.cli
import arithmos.classify as after
assert before is after is classify is sys.modules["arithmos.classify"], (before, after, classify)
assert callable(after.classify) and after.classify.__module__ == "arithmos.classify"
"""
    assert "arithmos.cli" in loaded_after(statement)
    assert arithmos.classify is sys.modules["arithmos.classify"]
