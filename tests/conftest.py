"""Shared helpers for the test suite."""

from pathlib import Path

import pytest

from declc import trace as tr
from declc.checker import check_or_raise
from declc.oracle import Oracle, diff_memory, diff_traces
from declc.parser import parse_source
from declc.vm import Machine, compile_source, load_source

PROGRAMS = Path(__file__).parent / "programs"
GOLDEN = Path(__file__).parent / "golden"

# A constraint that calls a method through a dereferenced object pointer.
OBJECT_CALLEE = """class A { int v; public: int get() { return v; } void set(int x) { v = x; } };
A a; A b; A *p = &a; int x;
x := (*p).get();
void main() { a.set(2); b.set(3); p = &b; b.set(9); }
"""


def program(name: str) -> str:
    return (PROGRAMS / name).read_text(encoding="utf-8")


def machine(source: str) -> Machine:
    """Compile and load a program with an in-memory trace sink."""
    return load_source(source, tr.TraceSink())


def run(source: str) -> Machine:
    """Compile, load, run main, and tear down."""
    gen, info = compile_source(source)
    m = Machine(gen, info, tr.TraceSink())
    m.run()
    return m


def matches_oracle(source: str):
    """Run main on the vm and on the reference interpreter; both must agree."""
    m = machine(source)
    m.call_function("main", [])
    unit = parse_source(source)
    o = Oracle(unit, check_or_raise(unit))
    o.load()
    o.run()
    assert diff_traces(m.trace.events, o.trace.events).ok
    assert diff_memory(m.memory_snapshot(), o.memory_snapshot()).ok
    return m


def kinds(m: Machine) -> list[str]:
    return [e.kind for e in m.trace.events]


def events_of(m: Machine, kind: str):
    return [e for e in m.trace.events if e.kind == kind]


def is_subsequence(needles, haystack) -> bool:
    it = iter(haystack)
    return all(any(n == h for h in it) for n in needles)


@pytest.fixture
def good_programs() -> list[str]:
    return sorted(p.name for p in PROGRAMS.glob("*.hc")
                  if not p.name.startswith("bad_"))
