"""The evaluator: faults a run reports, returns, calls, short circuits and
pointer arithmetic, each compared with the reference interpreter where the
program runs to the end."""

import json
import sys
from functools import partial
from pathlib import Path

import pytest

from conftest import machine, matches_oracle
from declc import trace as tr
from declc.checker import check_or_raise
from declc.cli import main
from declc.errors import RuntimeFault
from declc.oracle import Oracle
from declc.parser import parse_source
from declc.runtime import ConstraintEntry
from declc.vm import CellPtr, Machine

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

# source -> the line `declc run` prints on stderr, after "FILE: runtime fault: "
RUN_FAULTS = {
    "int x; int z;\nvoid main() { x = 7 / z; }": "2:19: fault: division by zero",
    "int x; int z;\nvoid main() {\n  x = 1 +\n    7 % z; }":
        "4:5: fault: modulo by zero",
    "int *p; int x;\nvoid main() { x = *p; }": "2:19: fault: null pointer dereference",
    "int *p;\nvoid main() { *p = 1; }": "2:15: fault: null pointer dereference",
    "int a[3]; int x; int i = 3;\nvoid main() { x = a[i]; }":
        "2:19: fault: index 3 out of bounds for 'a'",
    "int a[3];\nint f(int k) { return a[k - 5]; }\nvoid main() { f(1); }":
        "2:23: fault: index -4 out of bounds for 'a'",
    ("class W { private: int m; public: int get(W *o) { return o->m; } };\n"
     "W w; W *q; int x;\nvoid main() { x = w.get(q); }"):
        "1:58: fault: null pointer dereference",
    ("class W { private: int m; public: int get() { return m; } };\n"
     "W *q; int x;\nvoid main() { x = q->get(); }"):
        "3:19: fault: null pointer dereference",
}


@pytest.mark.parametrize("source", list(RUN_FAULTS), ids=range(len(RUN_FAULTS)))
def test_run_reports_evaluator_faults(tmp_path, capsys, source):
    path = tmp_path / "fault.hc"
    path.write_text(source, encoding="utf-8")
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"{path}: runtime fault: {RUN_FAULTS[source]}\n"
    assert "Traceback" not in err


# source -> the fault both evaluators raise, which `declc run` prints after
# "FILE: runtime fault: "; the construct cases fault in a compiled evaluator
POINTER_FAULTS = {
    "int *p; int *q;\nvoid main() { q = p + 1; }": "2:19: fault: null pointer arithmetic",
    "int *p; int *q;\nvoid main() { q = 2 + p; }": "2:19: fault: null pointer arithmetic",
    "int *p; int *q;\nvoid main() { q = p - 1; }": "2:19: fault: null pointer arithmetic",
    "int *p; int *q; int src;\nq := p + src;\nvoid main() { src = 1; src = 2; }":
        "2:6: fault: null pointer arithmetic",
    "int a[2]; int *p = &a[1]; int x;\nvoid main() { p = p + 5; x = *p; }":
        "2:30: fault: pointer outside storage 'a'",
    "int a[2]; int *p = &a[1]; int x;\nvoid main() { p = p - 2; x = p[0]; }":
        "2:30: fault: pointer outside storage 'a'",
    "int a[2]; int *q = &a[1]; int src; int x;\nx := *q + src;\n"
    "void main() { src = 1; src = 2; q = q + 1; src = 3; }":
        "2:6: fault: pointer outside storage 'a'",
}


@pytest.mark.parametrize("source", list(POINTER_FAULTS), ids=range(len(POINTER_FAULTS)))
def test_pointer_faults_carry_their_position_in_both_evaluators(tmp_path, capsys, source):
    path = tmp_path / "fault.hc"
    path.write_text(source, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"{path}: runtime fault: {POINTER_FAULTS[source]}\n"
    unit = parse_source(source)
    o = Oracle(unit, check_or_raise(unit))
    with pytest.raises(RuntimeFault) as info:
        o.load()
        o.run()
    assert str(info.value) == POINTER_FAULTS[source]


def test_arrow_on_a_cell_pointer_faults():
    """No checked program puts a cell pointer where an object pointer is
    expected; one planted there faults instead of reading a member."""
    m = machine("class W { private: int m; public: int get(W *o) { return o->m; } };\n"
                "W w; W *q; int x; int a;\nvoid main() { x = w.get(q); }")
    a = m.globals["a"]
    m.globals["q"].value = CellPtr(a.block, a.index)
    with pytest.raises(RuntimeFault) as info:
        m.call_function("main", [])
    assert str(info.value) == "1:58: fault: '->' on a non-object pointer"


def test_call_of_a_non_function_value_faults():
    """A callee that evaluates to a plain value faults at the call."""
    m = machine("int f() { return 1; }\nint x;\nvoid main() { x = f(); }")
    call = m._decls[(None, "main")].body.stmts[0].value
    call.callee.binding = ("global", "x")
    with pytest.raises(RuntimeFault) as info:
        m.call_function("main", [])
    assert str(info.value) == "3:19: fault: call of a non-function value"


def test_return_leaves_loops_and_nested_blocks():
    m = matches_oracle("""
int first; int found; int done; int n = 30;
int isqrt(int k) {
  int i = 0;
  while (true) {
    if (i * i >= k) { { if (true) { return i; } } }
    i = i + 1;
  }
  return -1;
}
void stop() { while (true) { done = done + 1; if (done > 2) { return; } } }
bool has(int k) { int j = 0; while (j < 10) { if (j == k) { return true; } j = j + 1; } return false; }
void main() { first = isqrt(n); stop(); if (has(4) && !has(12)) { found = 1; } }
""")
    mem = m.memory_snapshot()
    assert (mem["first"], mem["done"], mem["found"]) == ("6", "3", "1")


def test_falling_off_a_function_gives_the_default_value():
    m = matches_oracle("""
int x = 5; bool b = true; int *p; int a;
int f(int k) { if (k > 0) { return 1; } }
bool g() { }
int *h() { }
void main() { p = &a; x = f(0); b = g(); p = h(); }
""")
    mem = m.memory_snapshot()
    assert (mem["x"], mem["b"], mem["p"]) == ("0", "false", "null")


def test_recursion():
    m = matches_oracle("""
int x; int y;
int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
void main() { x = fact(6); y = fib(10); }
""")
    assert (m.memory_snapshot()["x"], m.memory_snapshot()["y"]) == ("720", "55")


def test_logical_operators_skip_a_faulting_right_side():
    m = matches_oracle("""
int *p; int z; bool a; bool b; bool c = true; bool d;
void main() {
  a = p != null && *p == 1;
  b = p == null || *p == 1;
  c = false && 1 / z == 0;
  d = true || 1 % z == 0;
}
""")
    mem = m.memory_snapshot()
    assert [mem[k] for k in "abcd"] == ["false", "true", "false", "true"]


def test_pointer_arithmetic():
    m = matches_oracle("""
int a[4]; int *p; int *q; int x; bool same;
void main() {
  p = &a[0];
  q = p + 2; *q = 5;
  q = 3 + p; *(q - 1) = *(q - 1) + 2;
  x = *(p + 2) + (p + 1)[2];
  same = q - 3 == p;
}
""")
    mem = m.memory_snapshot()
    assert (mem["a[2]"], mem["x"], mem["q"], mem["same"]) == ("7", "7", "&a[3]", "true")


# ------------------------------------------------- compiled constructs
# A right side, guard or precondition condition is walked at its first
# evaluation and runs its shape's evaluator from the second on.  Each program
# below evaluates its construct at least twice before the write that faults,
# so the fault is met in the compiled evaluator.

SHAPE_DECLS = ("int a[2]; int *p = &a[0]; int *q = &a[1]; int i; int d = 1; "
               "int src; int x; int n;\n")
# fault -> (expression, the statement that makes it fault, message, dormant)
SHAPE_FAULTS = {
    "null": ("*p", "p = null;", "null pointer dereference", True),
    "index": ("a[i]", "i = 5;", "index 5 out of bounds for 'a'", True),
    "div": ("10 / d", "d = 0;", "division by zero", False),
    "mod": ("10 % d", "d = 0;", "modulo by zero", False),
    "outside": ("*q", "q = q + 1;", "pointer outside storage 'a'", True),
}
# site -> (construct, position of the expression; a guard registers nothing)
SHAPE_SITES = {
    "rhs": ("x := {e} + src;", "2:6: "),
    "guard": ("x := src given {e} >= 0;", "2:16: "),
    "cond": ("{e} + src > 100 ?? {{ n = n + 1; }}", "2:1: "),
}


@pytest.mark.parametrize("site", list(SHAPE_SITES))
@pytest.mark.parametrize("fault", list(SHAPE_FAULTS))
def test_faults_in_compiled_constructs_keep_text_position_and_events(
        tmp_path, capsys, site, fault):
    expr, trigger, msg, dormant = SHAPE_FAULTS[fault]
    construct, pos = SHAPE_SITES[site]
    path = tmp_path / "fault.hc"
    path.write_text(SHAPE_DECLS + construct.format(e=expr) + "\n"
                    f"void main() {{ src = 1; src = 2; {trigger} src = 3; }}\n",
                    encoding="utf-8")
    assert main(["run", str(path), "--trace", "-"]) == 2
    out, err = capsys.readouterr()
    assert err == f"{path}: runtime fault: {pos}fault: {msg}\n"
    events = [json.loads(line) for line in out.splitlines()]
    assert [(e["kind"], e["lvalue"], e["detail"]) for e in events
            if e["kind"] in (tr.DORMANT, tr.WARNING)] == \
        ([(tr.DORMANT, expr, f"construct:0:{msg}")]
         if dormant and site != "guard" else [])


def test_unresolvable_target_of_a_compiled_constraint_warns():
    m = matches_oracle("int a[2]; int i; int src;\na[i] := src + 1;\n"
                       "void main() { src = 1; src = 2; i = 7; src = 3; i = 1; src = 4; }")
    # moving `i` re-applies (install semantics), and `src = 3` fires
    assert [(e.lvalue, e.detail) for e in m.trace.events if e.kind == tr.WARNING] == 2 * [
        ("a[i]", "constrained l-value unresolvable: index 7 out of bounds for 'a'")]
    assert (m.memory_snapshot()["a[0]"], m.memory_snapshot()["a[1]"]) == ("3", "5")


def test_pointer_arithmetic_in_right_sides():
    m = matches_oracle("""
int a[4]; int *p = &a[0]; int *q; int x; int k;
q := p + 1;
x := *(p + 2) + *(1 + q) + k;
void main() { a[2] = 3; k = 1; p = &a[1]; a[3] = 4; k = 2; }
""")
    mem = m.memory_snapshot()
    assert (mem["q"], mem["x"]) == ("&a[2]", "10")


def test_logical_operators_in_right_sides_skip_a_storing_call():
    m = matches_oracle("""
int n; int src; bool both; bool either;
bool bump() { n = n + 1; return true; }
both := src > 0 && bump();
either := src > 0 || bump();
void main() { src = 1; src = 0; src = 2; src = -1; src = 3; }
""")
    mem = m.memory_snapshot()
    # each of the six evaluations calls bump() once: `&&` when src > 0,
    # `||` when not
    assert (mem["n"], mem["both"], mem["either"]) == ("6", "true", "true")


def test_storing_call_in_a_right_side():
    m = matches_oracle("""
int calls; int src; int x; int y;
int g(int v) { calls = calls + 1; return v * 2; }
x := g(src) + 1;
y := x + calls;
void main() { src = 1; src = 2; src = 3; }
""")
    mem = m.memory_snapshot()
    # g's store fires `y` first, with x's old value; x's store comes later
    # in the same wave, which has resolved y already
    assert (mem["calls"], mem["x"], mem["y"]) == ("4", "7", "9")


def test_chain_right_sides_share_one_evaluator():
    """The 320 right sides `c{g}_{k} + 1` have one shape: once each chain
    has been written, all run one evaluator, each with its own leaves."""
    m = machine(workloads.ChainProgram(8, 40).source())
    entries = [e for e in m._gen_frames[id(None)].entries.values()
               if isinstance(e, ConstraintEntry)]
    assert len(entries) == 320
    slots = [e.rhs for e in entries]
    # only walked so far: each slot still holds its `_evaluate`
    assert all(s[0].func is Machine._evaluate and s[1] for s in slots)
    m.call_function("main", [])
    assert all(isinstance(s[0], partial) and s[0].func is not Machine._evaluate
               for s in slots)
    assert len({s[0].func for s in slots}) == 1
    assert len({id(s[0].args[0]) for s in slots}) == 320


# ---------------------------------------------------------- compiled bodies
# A function, method, monitor or tester body is walked at its first run,
# compiled at its second and runs compiled from then on.  Each program below
# runs the body under test at least three times, so each case is met in all
# three, and compares the whole run with the reference interpreter.

def assert_compiled(m: Machine, *bodies):
    for body in bodies:
        run = m._bodies[id(body)]
        assert isinstance(run, partial) and run.func is not Machine._compile_body


def body_of(m: Machine, name: str, cls: str | None = None):
    return m._decls[(cls, name)].body


def test_compiled_bodies_store_to_their_parameters():
    """`g`'s call of `f` evaluates its arguments left to right, before f's
    call is numbered."""
    m = matches_oracle("""
int n; int r0; int r1; int r2;
int next() { n = n + 1; return n; }
int f(int a, int b) { a = a * 10 + b; b = a - b; return a + b; }
int g() { return f(next(), next()); }
void main() { r0 = g(); r1 = g(); r2 = g(); }
""")
    mem = m.memory_snapshot()
    assert (mem["r0"], mem["r1"], mem["r2"]) == ("22", "64", "106")
    # main is call 1; each call names its parameter cells by its own number
    assert [(e.cell, e.detail) for e in m.trace.events
            if e.kind == tr.AFTER_CHANGE and "@" in e.cell] == [
        ("f@5:a", "new:12"), ("f@5:b", "new:10"), ("f@9:a", "new:34"),
        ("f@9:b", "new:30"), ("f@13:a", "new:56"), ("f@13:b", "new:50")]
    assert_compiled(m, body_of(m, "f"), body_of(m, "g"), body_of(m, "next"))


def test_compiled_while_returns_from_inside_the_loop():
    m = matches_oracle("""
int r0; int r1; int r2; int r3;
int root(int k) { int i = 0; while (true) { if (i * i >= k) { return i; } i = i + 1; } return -1; }
void main() { r0 = root(10); r1 = root(26); r2 = root(0); r3 = root(49); }
""")
    mem = m.memory_snapshot()
    assert [mem[f"r{k}"] for k in range(4)] == ["4", "6", "0", "7"]
    assert_compiled(m, body_of(m, "root"))


def test_compiled_if_without_else():
    m = matches_oracle("""
int r0; int r1; int r2; int r3;
int clamp(int v) { if (v > 10) { v = 10; } return v; }
void main() { r0 = clamp(20); r1 = clamp(5); r2 = clamp(30); r3 = clamp(7); }
""")
    mem = m.memory_snapshot()
    assert [mem[f"r{k}"] for k in range(4)] == ["10", "5", "10", "7"]
    assert_compiled(m, body_of(m, "clamp"))


LOCALS = """
class C {
private: int m0; int m1;
public:
    void set(int v) { m0 = v; }
    int get() { return m1; }
    m1 := m0 + 1;
};
int r0; int r1; int r2;
int use(int k) { int t = k * 2; C c; c.set(t); return c.get() + t; }
void main() { r0 = use(1); r1 = use(2); r2 = use(3); }
"""


def test_compiled_bodies_destroy_their_local_objects_at_exit():
    m = matches_oracle(LOCALS)
    mem = m.memory_snapshot()
    assert (mem["r0"], mem["r1"], mem["r2"]) == ("5", "9", "13")
    # each call's object (numbered after the call, `t`, and itself) installs
    # its class-scope constraint and its dependency and cancels both on the
    # way out, so only the globals' registrations are left
    local = [(e.kind, e.cell) for e in m.trace.events
             if e.kind in (tr.INSTALL, tr.CANCEL) and e.cell.startswith("use@")]
    assert local == [(kind, f"use@{seq}:c.{member}") for seq in (4, 9, 14)
                     for kind in (tr.INSTALL, tr.CANCEL) for member in ("m1", "m0")]
    assert m.registration_count() == machine(LOCALS).registration_count()
    assert m.frames == []
    assert_compiled(m, body_of(m, "use"), body_of(m, "set", "C"), body_of(m, "get", "C"))


def test_compiled_call_of_the_objects_own_method():
    m = matches_oracle("""
class W {
private: int m;
public:
    void set(int v) { m = v; }
    int get() { return m; }
    int twice() { return get() + get(); }
};
W w; int r0; int r1; int r2;
void main() { w.set(1); r0 = w.twice(); w.set(2); r1 = w.twice(); w.set(3); r2 = w.twice(); }
""")
    mem = m.memory_snapshot()
    assert (mem["r0"], mem["r1"], mem["r2"]) == ("2", "4", "6")
    assert_compiled(m, body_of(m, "twice", "W"), body_of(m, "get", "W"))


NULL_ARROW_CALL = """
class W { private: int m; public: int get() { return m; } };
W w; W *q; int x;
int via(W *o) { return o->get(); }
void main() { x = via(q); }
"""


def test_compiled_arrow_call_on_null_faults_alike_on_every_call():
    m = machine(NULL_ARROW_CALL)
    unit = parse_source(NULL_ARROW_CALL)
    o = Oracle(unit, check_or_raise(unit))
    o.load()
    with pytest.raises(RuntimeFault) as info:
        o.call_function("via", [None])
    texts = []
    for _ in range(3):
        with pytest.raises(RuntimeFault) as f:
            m.call_function("via", [None])
        texts.append(str(f.value))
        assert m.frames == [] and m.globals["w"].header.n == 0
    assert texts == 3 * [str(info.value)] == 3 * ["4:24: fault: null pointer dereference"]
    assert_compiled(m, body_of(m, "via"))


def test_calls_in_a_compiled_right_side_and_guard():
    m = matches_oracle("""
int src; int x;
int twice(int v) { return v * 2; }
bool positive(int v) { return v > 0; }
x := twice(src) + 1 given positive(src);
void main() { src = 1; src = -2; src = 3; src = 4; }
""")
    assert m.memory_snapshot()["x"] == "9"
    entry, = [e for e in m._gen_frames[id(None)].entries.values()
              if isinstance(e, ConstraintEntry)]
    assert entry.rhs[0].func is not Machine._evaluate
    assert_compiled(m, body_of(m, "twice"), body_of(m, "positive"))


def test_compiled_monitor_and_tester_bodies():
    m = matches_oracle("""
int src; int seen; int big; int total;
src ::= { seen = seen + 1; if (src > 2) { big = big + 1; } }
src > 1 ?? { total = total + src; }
void main() { src = 1; src = 2; src = 3; src = 4; }
""")
    mem = m.memory_snapshot()
    assert (mem["seen"], mem["big"], mem["total"]) == ("4", "2", "9")
    assert_compiled(m, *(c.body for c in m.unit.constructs))


ADDRESSES = """
class W { private: int m; public: void set(int v) { m = v; } int get() { return m; } };
int s[4]; W w0; W w1; int *p = &s[3]; W *q = &w1; int x; int y; int r;
x := *p + 1;
y := q->get() * 2;
void aim(int k) { p = &s[k]; if (k % 2 == 0) { q = &w0; } else { q = &w1; } s[k] = k * 10; }
void main() { w0.set(5); w1.set(7); aim(1); aim(2); aim(3); aim(0); w0.set(9); r = *p + q->get(); }
"""


def test_compiled_address_of_an_element_and_an_object():
    """`&s[k]` and `&w0` in a body: walked, compiled, then run compiled,
    each moving the dependency edges that read through `p` and `q`: `y`
    follows the last object `q` was aimed at."""
    m = matches_oracle(ADDRESSES)
    mem = m.memory_snapshot()
    assert (mem["p"], mem["q"], mem["x"], mem["y"], mem["r"]) == (
        "&s[0]", "&w0", "1", "18", "9")
    assert_compiled(m, body_of(m, "aim"))
    # compiled as `addr` shapes over the operands' cells, not left to `_eval_addr`
    assert [key[2] for key in m._shapes if key[0] == "addr"] == [False, True, True]
    assert not any(Machine._eval_addr in key for key in m._shapes)
