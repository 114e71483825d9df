import ast
from pathlib import Path

import symtiling

SRC = Path(symtiling.__file__).resolve().parent


def test_every_module_level_import_is_used():
    """__init__.py re-exports what it imports, so it is left out."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
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
        unused += [f"{path.name}: {name}" for name in imported
                   if name not in used]
    assert unused == []
