"""The README's examples run against the code as it is: every CLI line
parses, the minimal session prints the verdict it promises, and each
listed tolerance is the constant it names."""

import ast
import importlib
import re
import shlex
from pathlib import Path

from symtiling import cli

README = Path(__file__).resolve().parents[1] / "README.md"
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


def test_readme_tolerances_are_the_constants():
    section = README.read_text("utf-8").split("## Tolerances")[1]
    section = section.split("\n## ")[0]
    entries = re.findall(r"`(\w+)\.(\w+) = ([^`]+)`", section)
    assert len(entries) >= 4
    for module, name, value in entries:
        constant = getattr(importlib.import_module(f"symtiling.{module}"),
                           name)
        assert constant == ast.literal_eval(value), (module, name)
