"""List the statements of the package that a test run never executes.

Runs ``pytest.main`` in this process under ``sys.settrace`` (and
``threading.settrace``, for tests that start threads), recording the
lines executed in the modules of ``src/idealforms`` alone, then prints
``module:line function`` for each statement none of whose header lines
ran: docstrings, and ``global``/``nonlocal`` declarations, which compile
to no code, are left out.  ``function`` is the innermost enclosing
function or class, ``<module>`` at the top level.  Lines that only a
subprocess runs (the cold-start and ``python -O`` tests) count as never
run.  Every argument is passed on to pytest:

    python3 tools/linetrace.py -q            # the whole Tier-1 suite
    python3 tools/linetrace.py -q tests/test_api.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "idealforms"


def statements(path: Path) -> list[tuple[int, range, str]]:
    """Each statement of a module that compiles to code: its first line,
    the lines of its header (its whole text for a simple statement, from
    its first decorator to its first inner statement for a compound one)
    and the innermost function or class around it."""
    out = []

    def visit(body: list, owner: str) -> None:
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                continue  # a declaration, a docstring or another bare constant
            arms = [*getattr(node, "handlers", ()), *getattr(node, "cases", ())]
            kids = [b for f in ("body", "orelse", "finalbody") for b in getattr(node, f, ())]
            kids += [b for arm in arms for b in arm.body]
            starts = [b.lineno for b in kids] + [c.pattern.lineno for c in getattr(node, "cases", ())]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            last = max(min(starts, default=node.end_lineno + 1) - 1, node.lineno)
            out.append((node.lineno, range(first, last + 1), owner))
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(kids, node.name if named else owner)

    visit(ast.parse(path.read_text()).body, "<module>")
    return out


def main(argv: list[str]) -> int:
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {f: set() for f in files}
    known: dict[str, set[int] | None] = {}  # a code object's file name -> its lines run

    def local(frame, event, arg):
        if event == "line":
            known[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            known[name] = ran.get(os.path.realpath(name))
        return local if known[name] is not None else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for f, path in files.items():
        for line, header, owner in statements(path):
            if ran[f].isdisjoint(header):
                print(f"{path.stem}:{line} {owner}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
