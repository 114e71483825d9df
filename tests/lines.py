"""Count the code lines of each module of `src/symtiling`: the lines
that hold a token other than a comment, outside docstrings, so blank
lines, comment lines and docstrings count for nothing.  Prints one count
per module and the total.

Run it from anywhere: `python tests/lines.py`.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symtiling"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The lines of the module's, its classes' and its functions'
    docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    counts = {path.stem: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
