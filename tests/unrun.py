"""Print the statements of src/declc/ that the tier-1 suite never runs.

    python tests/unrun.py

A stdlib line tracer (`sys.settrace`), so no coverage package is needed.
It runs pytest in this process with the tracer on, then lists each unrun
statement per module and ends with the counts and their total.
A statement is a node of the module's syntax tree, less docstrings; it
counts as run when a line of its own (its nested bodies excluded) raises a
line event, and it is left out when none of its lines holds bytecode.

The tracer is re-installed before each test: a `RecursionError` raised
inside a trace function switches tracing off for the rest of the process,
so a tracer installed once sees no line after the suite's first deep
recursion.  `test_a_load_allocates_about_one_object_per_cell` is deselected: it
counts every object a load makes, and the tracer makes some (a set and a
closure for each file it first meets).  The exit status is 0 whatever the
tests do: this is a report, not a gate.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "declc"
DESELECT = "tests/test_vm.py::test_a_load_allocates_about_one_object_per_cell"

hits: dict[str, set[int]] = {}
_local: dict[str, object] = {}


def _tracer(filename: str):
    add = hits.setdefault(filename, set()).add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local
    return local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    local = _local.get(filename)
    if local is None:
        local = _local[filename] = (_tracer(filename)
                                    if filename.startswith(str(SRC)) else False)
    return local or None


class Retrace:
    """pytest plugin: the tracer is on for every test."""

    def pytest_runtest_setup(self, item):
        sys.settrace(_global)


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path):
    """(first line, own lines holding bytecode) of each statement."""
    text = path.read_text(encoding="utf-8")
    code = _code_lines(compile(text, str(path), "exec"))
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        start = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        own = set(range(start, node.end_lineno + 1))
        for name in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, name, ()):
                own -= set(range(child.lineno, child.end_lineno + 1))
        own &= code
        if own:
            yield node.lineno, own


def main() -> int:
    import pytest

    sys.path.insert(0, str(SRC.parent))  # trace this checkout's declc
    sys.settrace(_global)
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", DESELECT],
                         plugins=[Retrace()])
    sys.settrace(None)
    total = 0
    counts = []
    for path in sorted(SRC.glob("*.py")):
        seen = hits.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        unrun = [line for line, own in statements(path) if not own & seen]
        total += len(unrun)
        counts.append((len(unrun), path.name))
        if unrun:
            print(f"\n{path.name}: {len(unrun)}")
            for line in sorted(unrun):
                print(f"  {line:4d}  {source[line - 1].strip()}")
    print()
    print("  ".join(f"{name} {n}" for n, name in sorted(counts, reverse=True) if n))
    print(f"{total} unrun statements in src/declc (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
