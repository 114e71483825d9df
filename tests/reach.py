"""Line and caller reachability of the package under the test suite,
with the standard library only.

Run from the repository root:

    python tests/reach.py [pytest arguments]

With no arguments it runs the tier-1 suite (`tests/`) in this process,
under one `sys.settrace` hook.  The hook's call events record, for each
package function, who called it: the nearest frame up the stack that
lies in `src/symtiling`, `bench` or `tests`, so a call made through the
standard library (a `cached_property`, argparse's `type=`, a generated
dataclass method) is charged to the code that made it.  Its line events,
which it asks for in package frames only, record the lines that ran.

It then prints two lists:

- each executable line of the package (`code.co_lines()` over every code
  object that compiling the file gives, less the line 0 of compiler-made
  instructions) that no test ran, with the `module.function` that holds
  it, so that a document can cite the line by name;
- each package function, lambdas and comprehensions aside, that ran and
  was called only from test frames.

Child processes that a test starts are not traced, so a line that only
they run is listed as unrun.  A function behind a cache runs only on a
miss, so its callers are those of its misses.  Functions are named by
their qualified names, which code objects carry from Python 3.11 on;
on 3.10 a method prints without its class.
"""

import os
import sys
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symtiling"
ZONES = {str(SRC): "package", str(ROOT / "bench"): "bench",
         str(ROOT / "tests"): "test"}


@lru_cache(maxsize=None)
def _zone(filename):
    """"package", "bench", "test" or None for the file a frame runs."""
    return ZONES.get(os.path.dirname(os.path.realpath(filename)))


def _qualname(code):
    """The code object's qualified name, or its bare name before Python
    3.11, which added `co_qualname`."""
    return getattr(code, "co_qualname", code.co_name)


def _owned_lines(code, module, owner):
    """(line, owner) for each executable line of code and of the code
    objects it holds.  owner is the `module.function` qualname of the
    innermost function that holds the line, a lambda or comprehension
    counting as part of its enclosing function, or the module's name for
    top-level code."""
    if not code.co_name.startswith("<"):
        owner = f"{module}.{_qualname(code)}"
    for _, _, line in code.co_lines():
        if line:
            yield line, owner
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _owned_lines(const, module, owner)


def run(args):
    """Runs pytest on args under the hook; returns its exit code, the
    (file, line) pairs that ran and, per package code object, the zones
    of its callers."""
    ran = set()
    callers = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        if _zone(frame.f_code.co_filename) != "package":
            return None
        caller = frame.f_back
        while caller is not None and _zone(caller.f_code.co_filename) is None:
            caller = caller.f_back
        callers[frame.f_code].add(
            _zone(caller.f_code.co_filename) if caller else None)
        return local

    sys.settrace(hook)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, ran, callers


def report(ran, callers):
    """The unrun lines and the functions only tests call, as text lines."""
    ran = {(os.path.realpath(f), line) for f, line in ran}
    unrun = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        # A function's own lines come after its definer's, so the
        # innermost owner of a shared line (a def's) is the one kept.
        owners = dict(_owned_lines(compile(text, path, "exec"), path.stem,
                                   path.stem))
        unrun += [f"  {path.relative_to(ROOT)}:{line} ({owners[line]}): "
                  f"{source[line - 1].strip()}"
                  for line in sorted(owners)
                  if (str(path), line) not in ran]
    test_only = sorted(
        f"  {os.path.relpath(code.co_filename, ROOT)}:{code.co_firstlineno}: "
        f"{_qualname(code)}"
        for code, zones in callers.items()
        if zones == {"test"} and not code.co_name.startswith("<"))
    return ([f"executable package lines no test runs: {len(unrun)}", *unrun,
             f"package functions only tests call: {len(test_only)}",
             *test_only])


def main(argv):
    args = argv or ["-q", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors", str(ROOT / "tests")]
    code, ran, callers = run(args)
    print(f"pytest exit code: {int(code)}")
    print("\n".join(report(ran, callers)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
