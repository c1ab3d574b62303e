"""List the statements of src/firmopt that the test suite never runs.

No coverage package is needed: a stdlib `sys.settrace` line tracer is
installed before firmopt is first imported, the suite runs in this process
through `pytest.main`, and each statement of src/firmopt none of whose own
lines ran is printed as `path:line: source`.  A statement's own lines are
its span less the statements nested in it (a compound statement owns its
header); docstrings, and statements that compile to no code, are skipped.
Code run in subprocesses (the CLI's end-to-end tests) is not traced.

The file has no `test_` prefix, so pytest does not collect it.  Tracing
makes the suite about three times slower.  Run from the repo root:

    python tests/unreached.py [pytest args]

The pytest args default to `-q -p no:cacheprovider tests`.  The exit code
is pytest's.
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
from pathlib import Path
from types import CodeType

SRC = Path(__file__).resolve().parents[1] / "src" / "firmopt"

ran: dict[str, set[int]] = {}


def _trace_lines(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    """Trace the lines of firmopt's own frames only."""
    name = frame.f_code.co_filename
    if name in ran:
        ran[name].add(frame.f_lineno)  # the call's first line, before any line event
        return _trace_lines
    return None


def code_lines(code: CodeType) -> set[int]:
    """Every line `code` and the code objects nested in it start bytecode on."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def statements(tree: ast.Module) -> list[tuple[ast.stmt, set[int]]]:
    """Each statement but a docstring, with its own lines."""
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        out.append((node, own))
    return out


def unreached() -> list[tuple[str, int, str]]:
    """(path, line, source) of each statement with code none of whose own lines ran."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        executable = code_lines(compile(source, str(path), "exec"))
        lines = source.splitlines()
        rel = str(path.relative_to(SRC.parents[1]))
        for node, own in statements(ast.parse(source)):
            if own & executable and not own & ran[str(path)]:
                found.append((rel, node.lineno, lines[node.lineno - 1].strip()))
    return sorted(found)


def main(args: list[str]) -> int:
    for path in SRC.glob("*.py"):
        ran[str(path)] = set()
    if any(name == "firmopt" or name.startswith("firmopt.") for name in sys.modules):
        raise SystemExit("firmopt was imported before the tracer was installed")
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    import pytest

    try:
        code = pytest.main(args or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    found = unreached()
    print(f"\n{len(found)} statements of {SRC.relative_to(SRC.parents[1])} never ran:")
    for path, line, source in found:
        print(f"{path}:{line}: {source}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
