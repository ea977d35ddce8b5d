"""README's code and lists against the package: the tour and the command-line examples run,
the export list is the package's table of exported names, and the record list is the package's NamedTuple
classes."""

import ast
import re
import shlex
from functools import partial
from pathlib import Path

from click.testing import CliRunner

import arithmos
from arithmos.cli import cli

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


def test_command_examples_run(tmp_path, monkeypatch):
    # every `arithmos ...` line of the section's shell blocks, continuations joined, exits 0;
    # the `echo ... > FILE` line that feeds --config writes its file in a scratch directory
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = "".join(re.findall(r"```sh\n(.*?)```", section, re.S)).replace("\\\n", " ").splitlines()
    monkeypatch.chdir(tmp_path)
    commands = []
    for words in map(partial(shlex.split, comments=True), lines):
        if words[:1] == ["echo"]:
            assert words[2] == ">", words
            (tmp_path / words[3]).write_text(words[1], encoding="utf-8")
        elif words[:1] == ["arithmos"]:
            commands.append(words[1:])
    assert commands
    for args in commands:
        res = CliRunner().invoke(cli, args)
        assert res.exit_code == 0, (args, res.output)


def test_export_list_matches_the_package_imports():
    listed_text = README.split("The package exports:", 1)[1].strip().split("\n\n", 1)[0]
    listed = {}
    for item in listed_text.split("\n- "):
        module, names = item.lstrip("- ").split(":", 1)
        listed[module.strip("`")] = set(re.findall(r"`(\w+)`", names))

    exported = {}
    for name, module in arithmos._EXPORTS.items():
        exported.setdefault(module, set()).add(name)
    assert listed == exported


def test_record_list_matches_the_named_tuples():
    # cli.FlatRows is a rendering helper of the CLI, not a result record
    section = README.split("## Result records", 1)[1]
    listed_text = section.split("`typing.NamedTuple`:", 1)[1].split(".", 1)[0]
    listed = set(re.findall(r"`(\w+)`", listed_text))

    defined = set()
    for path in (ROOT / "src" / "arithmos").glob("*.py"):
        if path.name == "cli.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
            ):
                defined.add(node.name)
    assert listed == defined
