import pytest

from conftest import events_of, machine, program, run
from declc import trace as tr
from declc.errors import RuntimeFault


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


def test_function_cell_write_would_trigger():
    """The trigger set is exactly the syntactic l-values, including the
    callee name itself."""
    m = machine("int x;\nint f() { return 1; }\nint g() { return 2; }\n"
                "x := f();\nvoid main() { }")
    # the dependency edge hangs off the callee's function cell
    assert ("func:f", "x") in m.dependency_links()


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


# ---------------------------------------------------------------- conservation

def test_teardown_conserves_registrations(good_programs):
    for name in good_programs:
        m = run(program(name))
        assert m.registration_count() == 0, name


def test_trace_events_serialize_roundtrip():
    m = run(program("deep_deref.hc"))
    for e in m.trace.events:
        assert tr.TraceEvent.from_json(e.to_json()) == e
