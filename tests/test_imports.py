import ast
import os
import subprocess
import sys
from pathlib import Path

import symtiling

SRC = Path(symtiling.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def test_every_module_level_import_is_used():
    """In src and tests, the package root included."""
    unused = []
    for path in [*sorted(SRC.glob("*.py")),
                 *sorted((ROOT / "tests").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0]
                             for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}: {name}" for name in imported
                   if name not in used]
    assert unused == []


def test_every_function_is_referenced():
    """Each def and class of the package is loaded by name, or as an
    attribute, somewhere in src, bench or the acceptance checks; an
    import alone does not count, and neither does a unit test, whose
    reference implementations live in tests/oracles.py.

    The check goes by name: a def named like an unrelated load, such as
    int.bit_length, bench/run.py's scaled or svgout's Canvas.dot,
    passes unseen."""
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")):
                defined.append((path.name, node.name))
    named = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                named.add(node.attr)
    assert [f"{f}: {name}" for f, name in defined if name not in named] == []


def test_no_private_fraction_api():
    """Fraction's private constructors are not part of its API: Python
    3.12 removed the `_normalize` argument, and `_from_coprime_ints` is
    internal."""
    private = {"_normalize", "_from_coprime_ints"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "arg", None), getattr(node, "name", None),
                     getattr(node, "asname", None)}
            found += [f"{path.name}:{node.lineno}: {name}"
                      for name in sorted(names & private)]
    assert found == []


def test_no_identity_keyed_caches():
    """No module under src calls id(): a cache keyed by object identity
    is right only while something keeps each key's object alive, an
    invariant that no test sees."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "id"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_package_module_imports_numpy():
    """numpy serves the test oracles alone: no file under src imports
    it, at module level or inside any function."""
    found = []
    for path in sorted(SRC.parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "numpy"]
    assert found == []


NUMPY_FREE_RUN = """
import sys
from symtiling import cli, moduli, pipeline
assert "numpy" not in sys.modules, "numpy loaded on import"
for argv in (["grid-orbit", "--t", "1/3", "--seed", "5"],
             ["grid-orbit", "--angle", "pi/5", "--seed", "5"],
             ["grid-portrait", "--t", "1/3", "--resolution", "4x4"],
             ["sunburst-solve", "--n", "6", "--seed", "3"],
             ["linkage-convert", "--n", "7", "--seed", "3"],
             ["moduli-embed", "--n", "5", "--seed", "2", "--out", "m.svg"],
             ["moduli-embed", "--n", "9", "--seed", "2", "--json", "m.json"],
             ["pentagon-verify"]):
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy loaded"
"""


def test_no_command_loads_numpy(tmp_path):
    """All six commands run in one fresh process, each writing what it
    writes, and none of them loads numpy; nor does importing cli, moduli
    and pipeline."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUN], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
