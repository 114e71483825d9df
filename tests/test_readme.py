"""The README's examples run against the code as it is: every CLI line
parses, the minimal session prints the verdict it promises, each listed
tolerance is the constant it names, and no tolerance goes unlisted.  The
README and `docs/decisions.md` cite code by name, not by line."""

import ast
import importlib
import re
import shlex
from pathlib import Path

from symtiling import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
COMMANDS = {"grid-orbit", "grid-portrait", "sunburst-solve",
            "linkage-convert", "moduli-embed", "pentagon-verify"}


def fenced_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text("utf-8"),
                      re.S)


def test_readme_cli_examples_parse():
    examples = [shlex.split(line)[1:]
                for block in fenced_blocks("sh")
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("symtiling ")]
    assert {argv[0] for argv in examples} == COMMANDS
    parser = cli.build_parser()
    for argv in examples:
        parser.parse_args(argv)


def test_readme_minimal_session_prints_its_verdict(capsys):
    (session,) = [b for b in fenced_blocks("python") if "run_orbit" in b]
    exec(session, {})
    assert capsys.readouterr().out.split() == ["bounded-attracted"]


def tolerance_section():
    section = README.read_text("utf-8").split("## Tolerances")[1]
    return section.split("\n## ")[0]


def test_docs_cite_code_by_name_not_by_line():
    """A `name.py:NNN` citation drifts whenever a line above it moves;
    `module.function` and the statement stay put (`tests/reach.py`
    prints both for each unrun line)."""
    for path in (README, ROOT / "docs" / "decisions.md"):
        cited = re.findall(r"[\w/.]*\w\.py:\d+", path.read_text("utf-8"))
        assert not cited, (path.name, cited)


def test_readme_tolerances_are_the_constants():
    section = tolerance_section()
    entries = re.findall(r"`(\w+)\.(\w+) = ([^`]+)`", section)
    assert len(entries) >= 4
    for module, name, value in entries:
        constant = getattr(importlib.import_module(f"symtiling.{module}"),
                           name)
        assert constant == ast.literal_eval(value), (module, name)


def small_literals(tree):
    """(owners, value) for every float literal with 0 < |value| <= 1e-6:
    owners names the module-level assignment or the functions that hold
    it."""
    found = []

    def visit(node, owners):
        for child in ast.iter_child_nodes(node):
            inner = owners
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = owners + [child.name]
            elif isinstance(child, ast.Assign) and node is tree:
                inner = owners + [t.id for t in child.targets
                                  if isinstance(t, ast.Name)]
            elif (isinstance(child, ast.Constant)
                  and isinstance(child.value, float)
                  and 0 < abs(child.value) <= 1e-6):
                found.append((owners, child.value))
            visit(child, inner)

    visit(tree, [])
    return found


def test_every_small_literal_is_listed():
    """Each tolerance-sized float in the package is a constant that the
    Tolerances section lists or sits in a function that it names.
    svgout's 1e-9 sizes a figure frame and is no tolerance."""
    listed = set(re.findall(r"`(\w+)\.(\w+)", tolerance_section()))
    for path in sorted((ROOT / "src" / "symtiling").glob("*.py")):
        module = path.stem
        if module == "svgout":
            continue
        for owners, value in small_literals(ast.parse(path.read_text())):
            assert any((module, o) in listed for o in owners), (
                module, owners, value)
