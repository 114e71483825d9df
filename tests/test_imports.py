import ast
from pathlib import Path

import symtiling

SRC = Path(symtiling.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def test_every_module_level_import_is_used():
    """In src and tests; __init__.py re-exports what it imports, so it is
    left out."""
    unused = []
    for path in [*sorted(SRC.glob("*.py")),
                 *sorted((ROOT / "tests").glob("*.py"))]:
        if path.name == "__init__.py":
            continue
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
    attribute, somewhere in src, tests or bench; an import alone does
    not count, since __init__.py imports every public name."""
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")):
                defined.append((path.name, node.name))
    named = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                 *(ROOT / "bench").glob("*.py")]:
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
