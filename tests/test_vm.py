import gc
import random
import sys
import weakref
from pathlib import Path

import pytest

from conftest import OBJECT_CALLEE, events_of, machine, matches_oracle, program, run
from declc import ast, codegen, trace as tr
from declc.checker import check_or_raise
from declc.cli import main as cli_main
from declc.errors import RuntimeFault
from declc.oracle import Oracle, diff_traces
from declc.parser import parse_source
from declc.render import render
from declc.runtime import ConstraintEntry
from declc.vm import Machine, compile_source

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import RebindProgram  # noqa: E402


# ------------------------------------------------------------- load behavior

def test_load_applies_file_scope_constraints():
    m = machine("int x; int y = 5;\nx := y * 2;\nvoid main() { }")
    assert m.memory_snapshot()["x"] == "10"


def test_initializers_run_in_declaration_order():
    m = machine("int a = 2;\nint b = a + 1;\nvoid main() { }")
    assert m.memory_snapshot() == {"a": "2", "b": "3"}


def test_defaults_are_zero_false_null():
    m = machine("int x; bool b; int *p;\nvoid main() { }")
    assert m.memory_snapshot() == {"x": "0", "b": "false", "p": "null"}


# ----------------------------------------------------------------- cascades

def test_constraint_reapplies_on_source_write():
    m = run("int x; int y;\nx := y + 1;\nvoid main() { y = 10; }")
    assert m.memory_snapshot()["x"] == "11"


def test_constraint_chain_cascades():
    m = run("int a; int b; int c;\nb := a * 2;\nc := b + 1;\n"
            "void main() { a = 5; }")
    snap = m.memory_snapshot()
    assert (snap["b"], snap["c"]) == ("10", "11")


def test_constraint_stacking_top_wins():
    m = run("int x; int y; int z;\nx := y;\nx := z;\n"
            "void main() { y = 1; z = 2; }")
    # both constraints target x, only the later (top) one applies
    assert m.memory_snapshot()["x"] == "2"


def test_monitor_fires_per_external_write():
    m = run(program("watchers.hc"))
    assert len(events_of(m, tr.MONITOR_FIRED)) > 0


# ---------------------------------------------------------------- rebinding

def test_pointer_retarget_moves_involvement():
    m = run(program("pointer_retarget.hc"))
    snap = m.memory_snapshot()
    # after `p = &b`, the constraint follows the pointer: writes to src
    # land in b, and a keeps the value applied while p pointed at it
    assert (snap["a"], snap["b"]) == ("5", "7")


def test_deep_deref_scenario():
    m = run(program("deep_deref.hc"))
    snap = m.memory_snapshot()
    assert snap["target"] == "41"
    assert snap["p[0]"] == "7"  # write to the no-longer-bound cell: no effect


def test_index_rebinding_moves_dependency():
    src = """
int p[4];
int i;
int out;
out := p[i];
void main() {
    p[0] = 1;
    i = 2;
    p[2] = 9;
    p[0] = 5;
}
"""
    m = run(src)
    assert m.memory_snapshot()["out"] == "9"


def test_dependency_links_track_rebinding():
    m = machine("int p[5]; int i; int a = 1; int *x = &a;\np[i] := *x;\n"
                "void main() { }")
    assert m.dependency_links() == [("a", "p[0]")]


# ------------------------------------------------------------------ dormant

def test_unresolvable_lvalue_goes_dormant_and_retries():
    src = """
int *p;
int x;
int y = 7;
*p := y;
void main() {
    p = &x;
}
"""
    m = machine(src)
    assert any(e.kind == tr.DORMANT for e in m.trace.events)
    m.call_function("main", [])
    assert m.memory_snapshot()["x"] == "7"


def test_dormant_registration_is_not_cancelled():
    """A registration skipped at install (dormant) is also skipped at
    cancel; teardown still conserves."""
    src = "int *p;\nint y;\n*p := y;\nvoid main() { }"
    m = machine(src)
    m.call_function("main", [])
    m.teardown()
    assert m.registration_count() == 0


# ------------------------------------------------------- syntactic triggering

def test_constraint_triggers_only_on_syntactic_variables():
    """x := f() re-evaluates when nothing in its right side changes? No:
    writing a global hidden inside f does not fire the constraint."""
    src = """
int hidden;
int x;
int f() { return hidden + 1; }
x := f();
void main() {
    hidden = 41;
}
"""
    m = run(src)
    applied = events_of(m, tr.CONSTRAINT_APPLIED)
    assert len(applied) == 1            # only the install-time application
    assert m.memory_snapshot()["x"] == "1"   # stale by design


def test_callee_name_is_not_a_trigger():
    """`x := f(y)`: a free function's name is no l-value (contract.py), so
    the constraint's only dependency edge hangs off `y`.  Writing `y`
    re-applies it, as in the reference, and no event names a cell of `f`."""
    src = "int x; int y;\nint f(int k) { return k + 1; }\nx := f(y);\nvoid main() { y = 4; }"
    assert machine(src).dependency_links() == [("y", "x")]
    m = matches_oracle(src)
    assert m.memory_snapshot() == {"x": "5", "y": "4"}
    assert len(events_of(m, tr.CONSTRAINT_APPLIED)) == 2  # install, then y = 4
    m.teardown()
    assert m.registration_count() == 0
    assert not [e for e in m.trace.events if "func:" in e.cell or e.lvalue == "f"]
    text = render(compile_source(src)[0])
    assert "init_sim_f" not in text and "HandleDependency(&(f)" not in text
    assert "(x).HandleDependency(&(y), b, owner);" in text


def test_an_own_method_callee_denotes_its_object():
    """`g := get() + 1` in a class: the callee `get` is the owner's method,
    so the constraint depends on the object's cell and a method that changes
    a member re-applies it, as in the reference."""
    m = matches_oracle("int g;\nclass W { int v; public: int get() { return v; } "
                       "void set(int k) { v = k; } g := get() + 1; };\n"
                       "W w;\nvoid main() { w.set(4); }")
    assert m.dependency_links() == [("w", "g")]
    assert m.memory_snapshot() == {"g": "5", "w.v": "4"}
    assert len(events_of(m, tr.CONSTRAINT_APPLIED)) == 2


def test_object_pointers_compare_by_object():
    m = matches_oracle("class W { int v; public: int get() { return v; } };\n"
                       "W a; W b; W *p; W *q; bool e1; bool e2; bool e3;\n"
                       "void main() { p = &a; q = &a; e1 = p == q; q = &b; "
                       "e2 = p == q; e3 = p != q; }")
    snap = m.memory_snapshot()
    assert (snap["e1"], snap["e2"], snap["e3"]) == ("true", "false", "true")


def test_a_constrained_lvalue_with_a_two_argument_call_and_literals():
    """The canonical string, the mangled init name and the reference's
    l-value string all spell `true`, `null` and the argument comma."""
    src = """
int a[4]; int x; int y = 3;
int h(int k, bool b) { if (b) { return k; } return 0; }
int g(int *q, int k) { if (q == null) { return k; } return 0; }
a[h(g(null, x), true)] := y;
void main() { x = 1; y = 7; x = 2; }
"""
    m = matches_oracle(src)
    assert m.memory_snapshot() == {"a[0]": "3", "a[1]": "7", "a[2]": "7", "a[3]": "0",
                                   "x": "2", "y": "7"}
    assert {e.lvalue for e in events_of(m, tr.CONSTRAINT_APPLIED)} == {"a[h(g(null,x),true)]"}
    assert "init_a_arr_h_g_null_x_true" in m.gen.functions


def test_dependency_links_name_an_unresolvable_target():
    m = matches_oracle("int a[2]; int i; int x;\na[i] := x;\nvoid main() { i = 5; x = 1; }")
    assert m.dependency_links() == [("x", "<unresolvable>")]


# ------------------------------------------------------------------- guards

def test_false_guard_blocks_application():
    m = run(program("guarded.hc"))
    # applications only happened while level > 2; the final write (level=2)
    # was gated, leaving the last applied value in place
    assert m.memory_snapshot()["alarm"] == "5"


def test_guard_gates_but_does_not_trigger():
    src = """
int x; int y; bool en;
x := y given en;
void main() {
    y = 5;
    en = true;
    y = 7;
}
"""
    m = run(src)
    snap = m.memory_snapshot()
    assert snap["x"] == "7"
    # enabling the guard alone did not apply the constraint: after `en=true`
    # x was still 0 (guard variables are not triggers)
    evals = events_of(m, tr.GUARD_EVAL)
    assert [e.detail.rsplit(":", 1)[1] for e in evals] == [
        "false", "false", "true"]


# ------------------------------------------------------------------- objects

def test_method_call_notifies_once():
    src = """
class Counter {
private:
    int n;
    int total;
public:
    void bump() { n = n + 1; total = total + n; }
    int get() { return n; }
};
Counter c;
int seen;
int watched;
watched := c.get();
void main() {
    c.bump();
}
"""
    m = run(src)
    # two member writes inside one method call collapse into one
    # object-update notification
    updates = [e for e in m.trace.events
               if e.kind == tr.AFTER_CHANGE and e.detail == "object-update"]
    assert len(updates) == 1
    assert m.memory_snapshot()["watched"] == "1"


def test_class_scope_constraint_per_instance():
    m = run(program("class_scope.hc"))
    snap = m.memory_snapshot()
    assert snap["a.hi"] == str(2 * int(snap["a.lo"]))
    assert snap["b.hi"] == str(2 * int(snap["b.lo"]))


def test_direct_member_write_notifies_immediately():
    src = """
class Box {
private:
    int v;
public:
    int get() { return v; }
    v := 3 + 4;
};
Box b;
int mirror;
mirror := b.get();
void main() { }
"""
    m = run(src)
    assert m.memory_snapshot()["mirror"] == "7"


# ------------------------------------------------------------------- faults

def test_null_deref_faults():
    m = machine("int *p; int x;\nvoid main() { x = *p; }")
    with pytest.raises(RuntimeFault):
        m.call_function("main", [])


def test_out_of_bounds_faults():
    m = machine("int a[3]; int x;\nvoid main() { x = a[5]; }")
    with pytest.raises(RuntimeFault):
        m.call_function("main", [])


def test_division_by_zero_faults():
    m = machine("int x; int z;\nvoid main() { x = 1 / z; }")
    with pytest.raises(RuntimeFault):
        m.call_function("main", [])


def test_missing_main_faults():
    with pytest.raises(RuntimeFault):
        run("int x;")


def test_undefined_function_or_method_faults():
    m = machine("""
class C { public: int get() { return 1; } };
C c;
int f() { return 2; }
void main() { }
""")
    assert m.call_function("f", []) == 2
    assert m.call_method(m.globals["c"], "get", []) == 1
    with pytest.raises(RuntimeFault, match="undefined function 'g'"):
        m.call_function("g", [])
    with pytest.raises(RuntimeFault, match="undefined function 'f'"):
        m.call_method(m.globals["c"], "f", [])   # a function is not a method
    with pytest.raises(RuntimeFault, match="undefined function 'get'"):
        m.call_function("get", [])               # nor a method a function


def test_huge_ints_render_in_hex():
    """Values past the interpreter's int-to-str digit limit print as hex
    instead of raising, in the vm and the oracle alike."""
    from declc.oracle import _vstr
    from declc.vm import value_str

    huge = 7 ** 20000
    assert value_str(huge) == _vstr(huge) == hex(huge)
    assert value_str(-huge) == hex(-huge)
    assert value_str(12345) == _vstr(12345) == "12345"


# ------------------------------------------------------------------ storage
# A scalar's one-cell block is made the first time its address is taken.

@pytest.mark.parametrize("src,expect", [
    ("int x; int *p; int y;\nvoid main() { p = &x; *p = 5; y = *p + 1; }",
     {"x": "5", "p": "&x", "y": "6"}),
    ("int y;\nint f() { int x = 3; int *p = &x; *p = *p + 4; return x; }\n"
     "void main() { y = f(); }", {"y": "7"}),
    ("class C { private: int m; public: int *at() { return &m; } };\n"
     "C c; int *p; int y;\nvoid main() { p = c.at(); *p = 4; y = *p + 1; }",
     {"c.m": "4", "p": "&c.m", "y": "5"}),
    ("class C { private: int m; public: int *at(C *o) { return &o->m; } };\n"
     "C c; C d; int *p; int y;\nvoid main() { p = c.at(&d); *p = 4; y = *p + 1; }",
     {"c.m": "0", "d.m": "4", "p": "&d.m", "y": "5"}),
], ids=["global", "local", "member", "member through ->"])
def test_pointers_to_scalars(src, expect):
    assert matches_oracle(src).memory_snapshot() == expect


def test_a_scalars_address_is_one_pointer():
    """`&x` twice in one expression, in a constraint evaluated again and
    again, and a stored `&x` against a fresh one: all equal."""
    m = matches_oracle("int x; int src; int *p; bool b; bool c; bool d;\n"
                       "d := p == &x && &x == &x && src > 0;\n"
                       "void main() { b = &x == &x; p = &x; c = p == &x;"
                       " src = 1; src = 2; }")
    snap = m.memory_snapshot()
    assert (snap["b"], snap["c"], snap["d"], snap["p"]) == ("true", "true", "true", "&x")
    assert [(e.cell, e.detail) for e in events_of(m, tr.AFTER_CHANGE)
            if e.cell == "p"] == [("p", "new:&x")]


def test_pointer_past_a_scalar_faults_at_its_position():
    source = "int x; int y;\nvoid main() { y = *(&x + 1); }"
    faults = []
    for route in ("vm", "oracle"):
        with pytest.raises(RuntimeFault) as info:
            if route == "vm":
                machine(source).call_function("main", [])
            else:
                unit = parse_source(source)
                o = Oracle(unit, check_or_raise(unit))
                o.load()
                o.run()
        faults.append(str(info.value))
    assert faults == ["2:19: fault: pointer outside storage 'x'"] * 2


@pytest.mark.parametrize("source", [
    "int a[1000];\nvoid main() { }",
    "".join(f"int v{k};\n" for k in range(1000)) + "void main() { }",
], ids=["array", "scalars"])
def test_a_load_allocates_about_one_object_per_cell(source):
    """A cell without registrations is one GC-tracked object: its lists are
    the shared empty tuple, and a scalar has no block until its address is
    taken."""
    gen, info = compile_source(source)
    m = Machine(gen, info, tr.TraceSink())
    gc.collect()
    gc.disable()
    try:
        old = gc.get_objects()  # kept alive, so no new object reuses an id
        ids = {id(o) for o in old}
        m.load()
        made = sum(id(o) not in ids for o in gc.get_objects())
    finally:
        gc.enable()
    assert made <= 2 * 1000


# ---------------------------------------------------------------- conservation

def test_teardown_conserves_registrations(good_programs):
    for name in good_programs:
        m = run(program(name))
        assert m.registration_count() == 0, name


# `a[g()]` is registered on a[0] at load; `main` then moves g()'s result, to
# past the array or onto a[1].  A cancel takes the cell its install recorded,
# so teardown neither faults nor misses a registration.
CALL_IN_A_LEFT_SIDE = ("int a[2]; int k; int g() {{ return k; }} int x; a[g()] := x; "
                       "void main() {{ k = {k}; }}\n")


@pytest.mark.parametrize("k", [5, 1])
def test_teardown_cancels_an_lvalue_with_a_call_on_its_install_cell(k, tmp_path, capsys):
    src = CALL_IN_A_LEFT_SIDE.format(k=k)
    m = run(src)
    assert m.registration_count() == 0
    assert [e.cell for e in events_of(m, tr.CANCEL) if e.lvalue == "a[g()]"] == ["a[0]"]
    path = tmp_path / "p.hc"
    path.write_text(src)
    assert cli_main(["run", str(path)]) == 0
    assert capsys.readouterr() == (f"a[0] = 0\na[1] = 0\nk = {k}\nx = 0\n", "")


def test_teardown_cancels_an_lvalue_with_a_method_call():
    """`a[w.get()]` stays on a[0] when `w` updates (a method's callee is no
    storage, contract.py); teardown cancels it there.  Its memory against
    the reference is an open contract question, not asserted here."""
    m = run("class W { int k; public: int get() { return k; } "
            "void set(int v) { k = v; } }; W w; int a[2]; int x; a[w.get()] := x; "
            "void main() { x = 3; w.set(1); x = 5; }\n")
    assert m.registration_count() == 0


# ------------------------------------------------------- compiled functions

def lvalue_events(m, lvalue):
    return [(e.kind, e.cell, e.detail) for e in m.trace.events
            if e.lvalue == lvalue and e.kind in (tr.DORMANT, tr.INSTALL, tr.CANCEL)]


def test_null_deref_registration_is_dormant_until_rebound():
    m = matches_oracle("int *p; int x; int y = 7;\n*p := y;\n"
                       "void main() { p = &x; p = &y; }")
    # p = &x: the dormant registration is not cancelled, then installs
    assert lvalue_events(m, "*p") == [
        (tr.DORMANT, "", "construct:0:null pointer dereference"),
        (tr.INSTALL, "x", "constraint:construct:0"),
        (tr.CANCEL, "x", "constraint:construct:0"),
        (tr.INSTALL, "y", "constraint:construct:0")]
    assert m.memory_snapshot()["x"] == "7"


def test_out_of_bounds_index_registration_is_dormant_until_rebound():
    m = matches_oracle("int arr[2]; int i = 5; int hits;\n"
                       "arr[i] ::= { hits = hits + 1; }\n"
                       "void main() { arr[1] = 3; i = 1; arr[1] = 4; i = 9; }")
    assert lvalue_events(m, "arr[i]") == [
        (tr.DORMANT, "", "construct:0:index 5 out of bounds for 'arr'"),
        (tr.INSTALL, "arr[1]", "monitor:construct:0"),
        (tr.CANCEL, "arr[1]", "monitor:construct:0"),
        (tr.DORMANT, "", "construct:0:index 9 out of bounds for 'arr'")]
    assert m.memory_snapshot()["hits"] == "1"


def test_class_scope_redefinition_resolves_through_its_owner():
    m = matches_oracle("""
class C {
private:
    int a; int b; int src; int *p;
public:
    void aim(bool first) { if (first) { p = &a; } else { p = &b; } }
    void put(int v) { src = v; }
    *p := src;
};
C c1; C c2;
void main() { c1.aim(true); c2.aim(true); c1.put(3); c1.aim(false); c1.put(4); c2.put(9); }
""")
    installs = [e.cell for e in m.trace.events if e.kind == tr.INSTALL
                and e.lvalue == "*((C*)owner)->p"]
    assert installs == ["c1.a", "c2.a", "c1.b"]
    snap = m.memory_snapshot()
    assert [snap[k] for k in ("c1.a", "c1.b", "c2.a", "c2.b")] == ["3", "4", "9", "0"]


def test_only_functions_run_by_name_keep_their_steps():
    """The unit init splices in every init callee, and a rebinding runs the
    `redef_*` functions of the written variable: only those keep steps."""
    m = machine("int s[4]; int *p = &s[0]; int i; int f0; int f1;\n"
                "f0 := *p + 1;\nf1 := s[i] + 2;\n"
                "void retarget(int k) { p = &s[k]; }\nvoid main() { }")
    assert set(m._steps) == {m.gen.unit_init}
    m.call_function("retarget", [1])
    assert set(m._steps) == {m.gen.unit_init, "redef_sim_p"}
    assert [s[-1].kind for s in m._steps["redef_sim_p"]] == ["dependency"]  # of f0 on *p


def test_generated_functions_are_lowered_once_per_machine(monkeypatch):
    m = machine("int s[4]; int *p = &s[0]; int f0; int f1;\n"
                "f0 := *p + 1;\nf1 := *p + 2;\n"
                "void retarget(int k) { p = &s[k]; }\nvoid main() { }")
    m.call_function("retarget", [1])
    lowered = []
    real = m._lower
    monkeypatch.setattr(m, "_lower", lambda name: lowered.append(name) or real(name))
    size = len(m._steps)
    for k in range(100):
        m.call_function("retarget", [k % 4])
        m.store(m.globals["s"].cells[k % 4], k)
    assert lowered == [] and len(m._steps) == size
    assert m.memory_snapshot()["f1"] == str(99 + 2)


def test_destroyed_instances_leave_no_runtime_state():
    src = """
class W {
private:
    int m; int n;
public:
    void set(int v) { m = v; }
    int get() { return n; }
    n := m + 1;
};
W g; int last;
void f(int v) { W w; w.set(v); last = w.get(); }
void main() { f(1); f(2); f(3); }
"""
    m = matches_oracle(src)
    assert m.memory_snapshot()["last"] == "4"

    def held():
        return len(m._gen_frames), sum(len(fr.entries) for fr in m._gen_frames.values())
    before = held()
    for v in range(1000):
        m.call_function("f", [v])
    assert held() == before
    assert m.memory_snapshot()["last"] == "1000"


@pytest.mark.parametrize("src,x", [
    ("int x; int y;\nx := *&*&y;\nvoid main() { y = 2; }", "2"),
    ("int a[2]; int x;\nx := a[a[a[0]]];\nvoid main() { a[0] = 1; }", "1"),
], ids=["deref", "index"])
def test_redefinition_cancelled_earlier_in_the_phase_does_not_run(src, x):
    """Both redefinitions of a nested l-value sit on one cell; the outer one
    cancels the inner one, which then must not cancel its registrations again."""
    assert matches_oracle(src).memory_snapshot()["x"] == x


def test_redefinition_cancelled_by_an_install_earlier_in_the_run_does_not_run():
    """Writing arr[0] reinstalls `ts[arr[0]] := src`, whose application
    writes ts[0]: that store cancels the redefinition of `arr[ts[0]]` that
    the phase found on arr[0] after it, and leaves it dormant (index 5).
    The install loop reaches that entry unregistered and skips it, so c[0]
    has no edge and writing it leaves `out` at 0, as in the reference."""
    src = """int ts[2]; int arr[2]; int c[2]; int src; int out;
ts[arr[0]] := src;
out := c[arr[ts[0]]];
void main() { arr[0] = 1; src = 5; arr[0] = 0; c[0] = 3; }
"""
    m = matches_oracle(src)
    assert (m.memory_snapshot()["ts[0]"], m.memory_snapshot()["out"]) == ("5", "0")
    events = m.trace.events
    last = max(i for i, e in enumerate(events)
               if (e.kind, e.cell) == (tr.BEFORE_CHANGE, "arr[0]"))
    assert [(e.kind, e.lvalue, e.cell) for e in events[last:]
            if e.kind in (tr.INSTALL, tr.CANCEL, tr.DORMANT)] == [
        (tr.CANCEL, "ts[arr[0]]", "ts[1]"), (tr.CANCEL, "c[arr[ts[0]]]", "c[1]"),
        (tr.INSTALL, "ts[arr[0]]", "ts[0]"), (tr.CANCEL, "arr[ts[0]]", "arr[0]"),
        (tr.DORMANT, "arr[ts[0]]", ""), (tr.DORMANT, "c[arr[ts[0]]]", "")]


# ---------------------------------------------------------------- step runs
# A redefined cell's rebinding phase hands all its redefinitions to
# `run_genfn` in one call, which runs each run of adjacent entries of one
# owner in that owner's frame.  Its install resolves each call-free l-value
# once per owner run; its cancel resolves nothing.

def count_runs(m, monkeypatch) -> list:
    """Record the owners of the entries, and the direction, of every
    `run_genfn` call made after this point."""
    runs, real = [], m.run_genfn
    monkeypatch.setattr(m, "run_genfn",
                        lambda run, b: runs.append(([r.owner for r in run], b)) or real(run, b))
    return runs


def test_moving_a_fan_resolves_the_shared_lvalue_once_per_phase(monkeypatch):
    fan = 64
    src = ("int s[2]; int *p = &s[0]; int seen;\n"
           + "".join(f"int f{k};\n" for k in range(fan))
           + "".join(f"f{k} := *p + {k};\n" for k in range(fan))
           + "*p ::= { seen = seen + 1; }\n"
           "void move(int k) { p = &s[k]; }\nvoid main() { move(1); *p = 5; }")
    assert matches_oracle(src).memory_snapshot()["f63"] == "68"
    m = Machine(*compile_source(src), tr.TraceSink())
    resolved, real = [], m._compile_lv

    def compile_lv(e):  # count the calls of the `*p` resolver
        r = real(e)
        if isinstance(e, ast.Deref):
            return lambda fr: resolved.append(1) or r(fr)
        return r
    monkeypatch.setattr(m, "_compile_lv", compile_lv)
    m.load()
    resolved.clear()
    runs = count_runs(m, monkeypatch)
    start = len(m.trace.events)
    m.call_function("move", [1])
    assert len(resolved) == 1  # at reinstall only
    assert runs == [([None] * (fan + 1), False), ([None] * (fan + 1), True)]
    moved = [(e.kind, e.cell, e.detail) for e in m.trace.events[start:]
             if e.kind in (tr.CANCEL, tr.INSTALL)]
    order = [f"dependency:construct:{k}" for k in range(fan)] + [f"monitor:construct:{fan}"]
    assert moved == ([(tr.CANCEL, "s[0]", d) for d in order]
                     + [(tr.INSTALL, "s[1]", d) for d in order])


def test_a_store_made_in_a_run_is_seen_by_its_later_entries():
    """Moving `p` reinstalls `h`, applies `*p := q0` (now storing into t2) and
    then reinstalls `h2`: its `**p` must be resolved after that store."""
    src = """int a; int b; int c; int *t1 = &a; int *t2 = &c;
int **p = &t1; int *q0 = &b; int h; int h2;
h := **p;
*p := q0;
h2 := **p;
void move() { p = &t2; }
void main() { move(); b = 7; }
"""
    m = matches_oracle(src)
    assert (m.memory_snapshot()["h"], m.memory_snapshot()["h2"]) == ("7", "7")
    m = machine(src)
    start = len(m.trace.events)
    m.call_function("move", [])
    installs = [(e.lvalue, e.cell, e.detail) for e in m.trace.events[start:]
                if e.kind == tr.INSTALL]
    assert installs == [
        ("*p", "t2", "redefinition:construct:0"), ("**p", "c", "dependency:construct:0"),
        ("*p", "t2", "constraint:construct:1"), ("**p", "b", "dependency:construct:0"),
        ("*p", "t2", "redefinition:construct:2"), ("**p", "b", "dependency:construct:2")]


def test_an_lvalue_with_a_call_is_resolved_at_every_step(monkeypatch):
    """`g` writes `n`, so each install step that resolves `arr[g(i)]` runs
    it anew, with its events, inside the one run of the reinstall phase.  A
    cancel takes the cell its install recorded and runs no `g`.  (The
    reference interpreter does not finish this program: its resolution calls
    `g`, whose store resolves again.)"""
    m = machine("int arr[4]; int n; int i; int x0; int x1;\n"
                "int g(int v) { n = n + 1; return v; }\n"
                "x0 := arr[g(i)];\nx1 := arr[g(i)] + 1;\n"
                "void move(int k) { i = k; }\nvoid main() { }")
    runs = count_runs(m, monkeypatch)
    start = len(m.trace.events)
    m.call_function("move", [2])
    assert runs == [([None, None], False), ([None, None], True)]
    got = [(e.kind, e.cell, e.detail) for e in m.trace.events[start:]]

    def step(n, kind, cell, construct):
        return [(tr.BEFORE_CHANGE, "n", f"old:{n}"), (tr.AFTER_CHANGE, "n", f"new:{n + 1}"),
                (kind, cell, f"dependency:construct:{construct}")]
    assert got == ([(tr.BEFORE_CHANGE, "i", "old:0"),
                    (tr.CANCEL, "arr[0]", "dependency:construct:0"),
                    (tr.CANCEL, "arr[0]", "dependency:construct:1"),
                    (tr.AFTER_CHANGE, "i", "new:2")]
                   + step(4, tr.INSTALL, "arr[2]", 0) + step(5, tr.INSTALL, "arr[2]", 1))
    assert m.memory_snapshot()["n"] == "6"


def test_dormant_steps_inside_a_run_keep_their_detail():
    src = """int s[2]; int *p; int src; int seen;
*p ::= { seen = seen + 1; }
*p := src;
void main() { p = &s[0]; src = 3; p = null; p = &s[1]; src = 4; }
"""
    m = matches_oracle(src)
    assert m.memory_snapshot()["seen"] == "4"
    dormant = [(e.lvalue, e.detail) for e in events_of(m, tr.DORMANT)]
    assert dormant == 2 * [("*p", "construct:0:null pointer dereference"),
                           ("*p", "construct:1:null pointer dereference")]
    assert [e.cell for e in events_of(m, tr.INSTALL) if e.lvalue == "*p"] == \
        ["s[0]", "s[0]", "s[1]", "s[1]"]


def test_redefinitions_of_two_owners_run_apart(monkeypatch):
    """Moving i hands both objects' redefinitions to one `run_genfn` call per
    phase; each object's install resolves its `arr[i]` once, in its own frame."""
    src = """int arr[2]; int i;
class C { private: int m; public: int get() { return m; } m := arr[i] + 1; };
C c1; C c2; int r1; int r2;
r1 := c1.get();
r2 := c2.get();
void move(int k) { i = k; }
void main() { move(1); arr[1] = 4; }
"""
    snap = matches_oracle(src).memory_snapshot()
    assert (snap["c1.m"], snap["c2.m"], snap["r1"], snap["r2"]) == ("5", "5", "5", "5")
    m = Machine(*compile_source(src), tr.TraceSink())
    resolved, real = [], m._compile_lv

    def compile_lv(e):  # record the owner of each `arr[i]` resolution
        r = real(e)
        if isinstance(e, ast.Index):
            return lambda fr: resolved.append(fr.owner) or r(fr)
        return r
    monkeypatch.setattr(m, "_compile_lv", compile_lv)
    m.load()
    resolved.clear()
    runs = count_runs(m, monkeypatch)
    m.call_function("move", [1])
    c1, c2 = m.globals["c1"], m.globals["c2"]
    assert runs == [([c1, c2], False), ([c1, c2], True)]
    assert resolved == [c1, c2]  # at reinstall only, once per owner


LOCAL_OWNERS = """int a[2];
class W { private: int i; int v; public: void to(int k) { i = k; } int get() { return v; } v := a[i] + 1; };
int r;
void f(int k) { W u; u.to(0); a[0] = k; u.to(1); a[1] = k + 10; r = r + u.get(); }
void main() { f(1); f(2); f(3); }
"""


def test_bound_steps_die_with_their_owner(monkeypatch):
    """Each call of f makes a local W whose `redef_*` steps are bound at
    their second run, in the first `u.to`, and kept in its frame.  The frame
    goes when u is destroyed, so the next call's W, which may reuse its
    `id()`, starts from a frame of its own and reads its own `i`.  With a
    sink that keeps no entry, nothing else holds a destroyed W: its bound
    steps, whose registrants name it, died with it."""
    m = matches_oracle(LOCAL_OWNERS)
    assert m.memory_snapshot()["r"] == "39"
    assert len(tr.filtered(m.trace.events)) == 87
    m.teardown()
    assert m.registration_count() == 0

    m = Machine(*compile_source(LOCAL_OWNERS), tr.WarningSink())
    destroyed, real = [], m._destroy_instance

    def destroy(inst):
        fr = m._gen_frames[id(inst)]
        bound = [fn for fn, steps in fr.installs.items() if steps]
        destroyed.append((weakref.ref(inst.header), bound))
        real(inst)
        assert id(inst) not in m._gen_frames
    monkeypatch.setattr(m, "_destroy_instance", destroy)
    m.run()
    gc.collect()
    assert m.memory_snapshot()["r"] == "39"
    assert len(destroyed) == 3 and all(bound for _, bound in destroyed)
    assert [header() for header, _ in destroyed] == [None, None, None]
    assert list(m._gen_frames) == [id(None)] and m.registration_count() == 0


@pytest.mark.parametrize("src,var,value", [
    # writing b re-applies `*p := &b`, whose store on t2 cancels and
    # reinstalls h2's `**p` edge on b before that edge's turn: it fires
    ("int a; int b; int c; int *t1 = &a; int *t2 = &c; int **p = &t1; int h; int h2;\n"
     "h := **p;\n*p := &b;\nh2 := **p;\nvoid main() { p = &t2; b = 7; }", "h2", "7"),
    # writing a[1] applies p, which moves x's `*p` edge onto a[1]: an edge
    # added during a resolution waits for the next write
    ("int a[2]; int *p; int x;\np := &a[a[0]];\nx := *p;\n"
     "void main() { a[0] = 1; a[1] = 5; a[0] = 0; }", "x", "1"),
], ids=["reinstalled", "added"])
def test_resolution_fires_the_edges_its_cell_had_at_the_start(src, var, value):
    assert matches_oracle(src).memory_snapshot()[var] == value


# ------------------------------------------------------------------ storage
# Each program runs paths of the vm's storage model: nested objects, objects
# reached through `.` and `->`, local arrays and objects, calls between
# methods, and compiled unary right sides.  The vm must agree with the
# reference and leave no registration after teardown.

def agrees_and_tears_down(src: str) -> dict:
    m = matches_oracle(src)
    snap = m.memory_snapshot()
    m.teardown()
    assert m.registration_count() == 0
    return snap


def test_nested_object_members():
    src = """
class In {
private: int v;
public:
    void set(int x) { v = x; }
    int get() { return v; }
};
class Out {
private: In inner; int w;
public:
    void put(int x) { inner.set(x); }
    int total() { return inner.get() + w; }
    w := inner.get() * 2;
};
Out o; int seen;
seen := o.total();
void main() { o.put(3); o.put(5); }
"""
    snap = agrees_and_tears_down(src)
    assert (snap["o.inner.v"], snap["o.w"], snap["seen"]) == ("5", "10", "15")


def test_objects_reached_through_dot_and_arrow():
    src = """
class B {
private: int v;
public:
    void set(int x) { v = x; }
    int get() { return v; }
};
class A {
private: B b; A *o;
public:
    void link(A *p) { o = p; }
    void put(int x) { b.set(x); }
    int peer() { return o->b.get(); }
    int viaglobal() { return a2.b.get(); }
    void keep() { pb = &o->b; }
};
A a1; A a2; B *pb; int r1; int r2; int r3;
void main() {
    a1.link(&a2); a2.put(7); a1.keep();
    r1 = a1.peer(); r2 = a1.viaglobal(); r3 = pb->get();
}
"""
    snap = agrees_and_tears_down(src)
    assert (snap["r1"], snap["r2"], snap["r3"], snap["pb"]) == ("7", "7", "7", "&a2.b")


def test_local_arrays():
    src = """
int x; int i;
void main() { int arr[3]; arr[i] = 4; i = 2; arr[i] = 5; x = arr[0] + arr[i]; }
"""
    assert agrees_and_tears_down(src)["x"] == "9"


def test_a_method_calls_a_sibling_method_without_a_dot():
    src = """
class C {
private: int m;
public:
    void set(int v) { m = v; }
    int get() { return m; }
    int twice() { return get() + get(); }
    void bump() { set(get() + 1); }
};
C c; int r;
r := c.twice();
void main() { c.set(2); c.bump(); }
"""
    assert agrees_and_tears_down(src)["r"] == "6"


def test_unary_right_sides_evaluated_more_than_once():
    src = """
int y; bool c; int x; bool b; int z;
x := -y;
b := !c;
z := -(y + 1);
void main() { y = 1; y = 2; y = 3; c = true; c = false; c = true; }
"""
    snap = agrees_and_tears_down(src)
    assert (snap["x"], snap["b"], snap["z"]) == ("-3", "false", "-4")


def test_local_objects_with_class_scope_constructs_declared_in_a_loop():
    src = """
class W {
private: int m; int n;
public:
    void set(int v) { m = v; }
    int get() { return n; }
    n := m * 2;
};
int last; int k;
void main() { while (k < 3) { W w; w.set(k + 1); last = last + w.get(); k = k + 1; } }
"""
    assert agrees_and_tears_down(src)["last"] == "12"


# --------------------------------------------------------------- work stack
# A pure cascade (no call in any side of its constraints) runs from one loop
# in `Engine.resolve`; these pin its order, its faults and its wave state
# against the reference interpreter.

def _both_fault(src: str):
    """Run main on the vm and on the reference; both must fault alike, with
    the same visible trace.  Returns the machine and the fault text."""
    m = machine(src)
    with pytest.raises(RuntimeFault) as vm_fault:
        m.call_function("main", [])
    unit = parse_source(src)
    o = Oracle(unit, check_or_raise(unit))
    o.load()
    with pytest.raises(RuntimeFault) as ref_fault:
        o.run()
    assert str(vm_fault.value) == str(ref_fault.value)
    assert diff_traces(m.trace.events, o.trace.events).ok
    return m, str(vm_fault.value)


def _events_of_main(src: str, kinds) -> list[tuple[str, str]]:
    m = machine(src)
    n = len(m.trace.events)
    m.call_function("main", [])
    return [(e.kind, e.lvalue) for e in m.trace.events[n:] if e.kind in kinds]


FAN_WITH_A_SUBTREE = """int s; int a; int b; int c; int seen;
a := s + 1;
b := s + 2;
c := a + 1;
a > 1 ?? { seen = b; }
void main() { s = 5; }
"""


def test_a_cascade_finishes_a_targets_subtree_and_preconditions_first():
    """s has edges to a, then b; a has an edge to c and a precondition,
    which reads b before b's edge fires."""
    assert _events_of_main(FAN_WITH_A_SUBTREE, (tr.CONSTRAINT_APPLIED, tr.PRECOND_EVAL)) == [
        (tr.CONSTRAINT_APPLIED, "a"), (tr.CONSTRAINT_APPLIED, "c"),
        (tr.PRECOND_EVAL, "a>1"), (tr.CONSTRAINT_APPLIED, "b")]
    mem = matches_oracle(FAN_WITH_A_SUBTREE).memory_snapshot()
    assert (mem["a"], mem["b"], mem["c"], mem["seen"]) == ("6", "7", "7", "2")


def test_a_pure_right_side_that_faults_mid_cascade(tmp_path, capsys):
    src = "int x = 1; int y; int z;\ny := 10 / x;\nz := y + 1;\nvoid main() { x = 0; }\n"
    m, fault = _both_fault(src)
    assert fault == "2:6: fault: division by zero"
    assert [(e.kind, e.cell, e.detail) for e in m.trace.events[-3:]] == [
        (tr.BEFORE_CHANGE, "x", "old:1"), (tr.AFTER_CHANGE, "x", "new:0"),
        (tr.CONSTRAINT_APPLIED, "y", "construct:0")]
    assert m.trace.events[-1].seq == 14
    assert m.memory_snapshot() == {"x": "0", "y": "10", "z": "11"}
    path = tmp_path / "p.hc"
    path.write_text(src)
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"{path}: runtime fault: {fault}\n"


def test_a_fault_in_a_deferred_precondition_closes_the_wave():
    """a is a level of the resolution loop, so its precondition runs from
    the loop; its fault still leaves no wave open and no cell marked."""
    src = """int s; int a; int b; int *p;
a := s + 1;
b := a + 1;
a > 1 ?? { b = *p; }
void main() { s = 5; }
"""
    m, fault = _both_fault(src)
    assert fault == "4:16: fault: null pointer dereference"
    wave = m.engine.wave
    assert wave.depth == 0 and not wave.in_flight
    m.store(m.globals["s"], 0)   # a later wave applies both again
    assert (m.memory_snapshot()["a"], m.memory_snapshot()["b"]) == ("1", "2")
    assert not m.trace.warnings()


def test_a_resolution_at_depth_0_applies_each_edge():
    """`y := x + *p` with `p = &x` has two edges from x.  A resolution
    entered outside any store (as from `Engine.resume`) applies y at each:
    every application's own store ends the wave.  Inside a store the second
    edge is skipped."""
    m = machine("int x; int *p = &x; int y;\ny := x + *p;\nvoid main() { }")
    x = m.globals["x"]
    n = len(m.trace.events)
    m.engine.resolve(x)
    assert [e.kind for e in m.trace.events[n:]].count(tr.CONSTRAINT_APPLIED) == 2
    assert m.engine.wave.depth == 0 and not m.engine.wave.in_flight
    n = len(m.trace.events)
    m.store(x, 3)
    assert [e.kind for e in m.trace.events[n:] if e.kind in (
        tr.CONSTRAINT_APPLIED, tr.WARNING)] == [tr.CONSTRAINT_APPLIED, tr.WARNING]
    assert m.memory_snapshot()["y"] == "6"


def test_a_method_return_applies_each_edge_of_its_object():
    """The program form of the rule above: a method returning outside any
    store resolves its object at depth 0, one returning inside a monitor's
    store at depth 1."""
    src = """class W { private: int m; public: int get() { return m; }
                  void set(int v) { m = v; } };
W w; W *q = &w; int y; int t;
y := w.get() + q->get();
t ::= { w.set(t); }
void main() { %s }
"""
    kinds = (tr.CONSTRAINT_APPLIED, tr.WARNING)
    assert _events_of_main(src % "w.set(2);", kinds) == [(tr.CONSTRAINT_APPLIED, "y")] * 2
    assert [k for k, _ in _events_of_main(src % "t = 3;", kinds)] == list(kinds)
    assert matches_oracle(src % "w.set(2); t = 3;").memory_snapshot()["y"] == "6"


def _chain(n: int, construct: str = "") -> str:
    """`c{k} := c{k - 1} + 1` for k < n, with `construct` (formatted with k)
    on every link, and a `main` that writes c0 = 7."""
    return ("".join(f"int c{k}; " for k in range(n)) + "int seen;\n"
            + "".join(f"c{k} := c{k - 1} + 1;\n" for k in range(1, n))
            + "".join(construct.format(k=k) for k in range(n))
            + "void main() { c0 = 7; }\n")


CHAIN_LINKS = {
    "pure": "",
    "monitor": "c{k} ::= {{ seen = seen + 1; }}\n",
    "precondition": "c{k} > 0 ?? {{ seen = seen + 1; }}\n",
}


@pytest.mark.parametrize("link", list(CHAIN_LINKS))
def test_a_5000_link_chain_runs_without_recursion(link):
    """Each level of a chain is one turn of the resolution loop, whatever
    its cell carries: a monitor or a precondition on every link recurses
    only for its own body.  So the chain's length is not bounded by Python's
    recursion limit.  (The reference interpreter still recurses per level,
    so it is not run; the closed form is the check.)"""
    n = 5000
    assert sys.getrecursionlimit() <= 1000
    m = machine(_chain(n, CHAIN_LINKS[link]))
    m.call_function("main", [])
    assert m.memory_snapshot() == {**{f"c{k}": str(7 + k) for k in range(n)},
                                   "seen": str(n if link != "pure" else 0)}
    assert not m.trace.warnings()


def test_a_pure_application_to_a_monitored_cell_is_one_record():
    """y has a monitor.  Its application is still written by the resolution
    loop as one `ConstraintApplied` record (the application and the store),
    and y's monitor then runs as phase 2 of y's level."""
    src = "int x; int y; int seen;\ny := x + 1;\ny ::= { seen = y; }\nvoid main() { x = 4; }\n"
    m = matches_oracle(src)
    assert m.memory_snapshot()["seen"] == "5"
    m = machine(src)
    n = len(m.trace._slots)
    m.call_function("main", [])
    records = m.trace._slots[n:]
    assert [(records[i], records[i + 2]) for i in range(0, len(records), tr.STRIDE)] == [
        (tr.STORE, "x"), (tr.CONSTRAINT_APPLIED, "y"), (tr.MONITOR_FIRED, "y"),
        (tr.STORE, "seen")]
    assert records[tr.STRIDE + 3].__class__ is ConstraintEntry


def test_a_rebinding_passes_through_an_object_constituent():
    """When p moves to b, `(*p).get()`'s edge moves with it, through the
    object `*p`: b's later update re-applies x, as through `p->get()`."""
    for call in ("(*p).get()", "p->get()"):
        m = matches_oracle(OBJECT_CALLEE.replace("(*p).get()", call))
        assert m.memory_snapshot()["x"] == "9"


def test_moves_keep_the_dependency_edges_their_first_install_made():
    """A dependency registration of an owner has one edge, made at its first
    install and kept in the owner's frame under its `Reg`: 100 moves of p
    under a fan of constraints on `*p`, at file scope and in two objects,
    move those same edges, each to the cell `*p` denotes.  Teardown leaves
    none of them live."""
    fan = 16
    src = ("int s[4]; int *p = &s[0];\n"
           + "".join(f"int f{k};\n" for k in range(fan))
           + "".join(f"f{k} := *p + {k};\n" for k in range(fan))
           + "class C { private: int v; public: int get() { return v; } v := *p + 1; };\n"
           "C c1; C c2;\nvoid move(int k) { p = &s[k]; }\nvoid main() { }")
    m = machine(src)
    fan_of = {None: fan, "c1": 1, "c2": 1}

    def edges():
        held = {}
        for fr in m._gen_frames.values():
            regs = [k for k in fr.entries if isinstance(k, codegen.Reg)]
            owner = fr.owner and fr.owner.name
            assert len(regs) == fan_of[owner]
            for reg in regs:
                edge = fr.entries[reg]
                assert reg.kind == "dependency" and edge.entry is fr.entries[reg.fn]
                assert edge.order == (edge.entry.seq, reg.ordinal)
                held[owner, reg] = edge
        return held

    first = edges()
    assert len(first) == fan + 2
    rng = random.Random(3)
    for _ in range(100):
        k = rng.randrange(4)
        m.call_function("move", [k])
        now = edges()
        assert now.keys() == first.keys()
        assert all(now[key] is edge for key, edge in first.items())
        assert all(edge.live and edge.from_cell is m.globals["s"].cells[k]
                   for edge in now.values())
    m.store(m.globals["s"].cells[k], 7)
    mem = m.memory_snapshot()
    assert (mem[f"f{fan - 1}"], mem["c1.v"], mem["c2.v"]) == (str(7 + fan - 1), "8", "8")
    m.teardown()
    assert not any(edge.live for edge in first.values())
    assert len(m.engine.deps) == 0


def test_retargeting_moves_edges_to_a_fresh_machines_state():
    """200 random moves of p, i, y and q leave the same edges, in the same
    order on each cell, as a fresh machine driven to the same bindings with
    one move of p and one of i; teardown then cancels every registration."""
    prog = RebindProgram("retarget", 8, 2)
    source = prog.source()
    m = machine(source)
    m.call_function("main", [])
    rng = random.Random(11)
    moves = [prog.request(rng)[1] for _ in range(200)]
    for v in moves:
        m.call_function("retarget", [v])
    last = {v % 2: k for k, v in enumerate(moves)}  # the last move of p and of i
    fresh = machine(source)
    fresh.call_function("main", [])
    for k in sorted(last.values()):
        fresh.call_function("retarget", [moves[k]])

    def edges(mc):
        return [(c.name, [d.order for d in c.dependencies])
                for c in mc.all_cells() if c.dependencies]

    assert len(m.engine.deps) == len(fresh.engine.deps) > 0
    assert m.registration_count() == fresh.registration_count()
    assert m.dependency_links() == fresh.dependency_links()
    assert edges(m) == edges(fresh)
    m.teardown()
    assert m.registration_count() == 0 and len(m.engine.deps) == 0
