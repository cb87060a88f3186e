
import pytest

from conftest import machine, program
from declc import ast, trace as tr
from declc.checker import check_or_raise
from declc.oracle import (Oracle, all_lvalues, diff_memory, diff_traces,
                          lv_tokens, sub_lvalues, top_lvalues)
from declc.parser import parse_source


def oracle(source: str) -> Oracle:
    unit = parse_source(source)
    info = check_or_raise(unit)
    o = Oracle(unit, info)
    o.load()
    return o


def both(source: str):
    m = machine(source)
    m.call_function("main", [])
    o = oracle(source)
    o.run()
    return m, o


def expr(source: str):
    unit = parse_source(f"void main() {{ sink = {source}; }}")
    return unit.functions[0].body.stmts[0].value


# -------------------------------------------------------- lv decomposition

def test_lv_tokens_match_canonical_form():
    assert lv_tokens(expr("p[i+j]")) == ["p", "[", "i", "+", "j", "]"]
    assert lv_tokens(expr("**x")) == ["*", "*", "x"]


def test_top_lvalues_keep_only_maximal():
    tops = top_lvalues(expr("q[f(p[x+y])]"))
    assert ["".join(lv_tokens(t)) for t in tops] == ["q[f(p[x+y])]"]
    tops = top_lvalues(expr("a + p[i] * i"))
    assert ["".join(lv_tokens(t)) for t in tops] == ["a", "p[i]"]


def test_sub_lvalues_are_the_strict_constituents():
    subs = sub_lvalues(expr("**x"))
    assert {"".join(lv_tokens(s)) for s in subs} == {"x", "*x"}
    subs = sub_lvalues(expr("p[i]"))
    assert {"".join(lv_tokens(s)) for s in subs} == {"p", "i"}


def test_all_lvalues_covers_nested_occurrences():
    got = {"".join(lv_tokens(x)) for x in all_lvalues(expr("q[f(p[x+y])]"))}
    assert got == {"q", "f", "p", "x", "y", "p[x+y]", "q[f(p[x+y])]"}


# ------------------------------------------------------ corpus equivalence

def test_corpus_equivalence(good_programs):
    for name in good_programs:
        m, o = both(program(name))
        assert diff_traces(m.trace.events, o.trace.events).ok, name
        assert diff_memory(m.memory_snapshot(), o.memory_snapshot()).ok, name


def test_cell_names_agree(good_programs):
    for name in good_programs:
        m, o = both(program(name))
        assert set(m.memory_snapshot()) == set(o.memory_snapshot()), name


# ------------------------------------------------------------- the differ

def test_diff_traces_ignores_machinery_events():
    m, o = both(program("deep_deref.hc"))
    # vm traces carry Install/Cancel/Dormant machinery the oracle never emits
    assert any(e.kind in (tr.INSTALL, tr.CANCEL) for e in m.trace.events)
    assert not any(e.kind in (tr.INSTALL, tr.CANCEL) for e in o.trace.events)
    assert diff_traces(m.trace.events, o.trace.events).ok


def test_diff_traces_detects_detail_perturbation():
    m, o = both(program("deep_deref.hc"))
    events = list(o.trace.events)
    visible = [i for i, e in enumerate(events)
               if e.kind in tr.ORACLE_VISIBLE]
    i = visible[-1]
    events[i] = events[i]._replace(detail="new:999")
    res = diff_traces(m.trace.events, events)
    assert not res.ok
    assert res.left and res.right      # context around the mismatch


def test_diff_traces_detects_missing_event():
    m, o = both(program("deep_deref.hc"))
    events = [e for e in o.trace.events
              if not (e.kind == tr.AFTER_CHANGE and e.cell == "target")]
    assert not diff_traces(m.trace.events, events).ok


def test_diff_memory_detects_value_and_key_differences():
    assert diff_memory({"x": "1"}, {"x": "1"}).ok
    assert not diff_memory({"x": "1"}, {"x": "2"}).ok
    assert not diff_memory({"x": "1"}, {"x": "1", "y": "0"}).ok


# ------------------------------------------------- reference-side semantics

def test_oracle_applies_constraints_at_install():
    o = oracle("int x; int y = 4;\nx := y;\nvoid main() { }")
    assert o.memory_snapshot()["x"] == "4"


def test_oracle_monitor_top_only():
    src = """
int x; int a; int b;
x ::= { a = a + 1; }
x ::= { b = b + 1; }
void main() { x = 1; x = 2; }
"""
    m, o = both(src)
    for snap in (m.memory_snapshot(), o.memory_snapshot()):
        assert (snap["a"], snap["b"]) == ("0", "2")


def test_oracle_local_cell_naming_matches_vm():
    src = """
int g;
int f(int k) { int loc = k * 2; g = g + loc; return loc; }
void main() { g = f(1) + f(2); }
"""
    m, o = both(src)
    assert diff_traces(m.trace.events, o.trace.events).ok
    assert diff_memory(m.memory_snapshot(), o.memory_snapshot()).ok


def test_guard_that_rebinds_the_target_matches_oracle():
    """A guard may call a function that rebinds the constrained l-value; the
    assignment then goes to the cell denoted after the guard ran."""
    src = """
int a; int b; int x = 5; int moves;
int *p;
bool retarget() {
    if (p == &a) { p = &b; moves = moves + 1; }
    return true;
}
*p := x given retarget();
void main() { p = &a; x = 6; }
"""
    m, o = both(src)
    assert diff_traces(m.trace.events, o.trace.events).ok
    assert diff_memory(m.memory_snapshot(), o.memory_snapshot()).ok
    snap = m.memory_snapshot()
    assert (snap["a"], snap["b"], snap["moves"]) == ("0", "6", "1")
    applied = [e for e in m.trace.events if e.kind == tr.CONSTRAINT_APPLIED]
    assert [e.cell for e in applied] == ["b", "a", "b"]
