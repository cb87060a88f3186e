
import pytest

from conftest import events_of, machine, matches_oracle, program
from declc import ast, trace as tr
from declc.checker import check_or_raise
from declc.errors import RuntimeFault
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


DECLS = "int q[9]; int p[9]; int x; int y; int i; int j; int a; int f(int k) { return k; }"


def expr(source: str, decls: str = DECLS):
    """source checked as the right side of `sink = ...`."""
    unit = parse_source(f"int sink; {decls} void main() {{ sink = {source}; }}")
    check_or_raise(unit)
    return unit.functions[-1].body.stmts[0].value


# -------------------------------------------------------- lv decomposition

def test_lv_tokens_match_canonical_form():
    assert lv_tokens(expr("p[i+j]")) == ["p", "[", "i", "+", "j", "]"]
    assert lv_tokens(expr("**x", "int **x;")) == ["*", "*", "x"]


def test_top_lvalues_keep_only_maximal():
    tops = top_lvalues(expr("q[f(p[x+y])]"))
    assert ["".join(lv_tokens(t)) for t in tops] == ["q[f(p[x+y])]"]
    tops = top_lvalues(expr("a + p[i] * i"))
    assert ["".join(lv_tokens(t)) for t in tops] == ["a", "p[i]"]


def test_sub_lvalues_are_the_strict_constituents():
    subs = sub_lvalues(expr("**x", "int **x;"))
    assert {"".join(lv_tokens(s)) for s in subs} == {"x", "*x"}
    subs = sub_lvalues(expr("p[i]"))
    assert {"".join(lv_tokens(s)) for s in subs} == {"p", "i"}


def test_all_lvalues_covers_nested_occurrences():
    """Every l-value occurrence, but not the callee `f`: a free function's
    name is no l-value (contract.py)."""
    got = {"".join(lv_tokens(x)) for x in all_lvalues(expr("q[f(p[x+y])]"))}
    assert got == {"q", "p", "x", "y", "p[x+y]", "q[f(p[x+y])]"}


def derivations(monkeypatch) -> dict[str, int]:
    """Count the calls the oracle makes to its syntax derivations."""
    from declc import oracle as module

    counts = dict.fromkeys(("top_lvalues", "sub_lvalues", "lv_str"), 0)

    def counted(name):
        real = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(module, name, counted(name))
    return counts


def written(n: int) -> str:
    """Constraints (one guarded, one per object), a monitor and a
    precondition, with `main` making 5 writes per turn for n turns."""
    return f"""class C {{ int v; int w; public: void set(int k) {{ v = k; }} w := v + 1; }};
C c; int a[4]; int i; int x; int y; int z; int seen; int hits;
a[i] := x + y given x > 0;
z := a[i] * 2;
y ::= {{ seen = seen + 1; }}
x > 3 ?? {{ hits = hits + 1; }}
void main() {{ int k; while (k < {n}) {{ k = k + 1; x = k; y = k; i = k % 4; c.set(k); }} }}
"""


def test_each_oracle_derives_a_constructs_syntax_once(monkeypatch):
    """The l-values of a construct are split out of its syntax once per
    Oracle: the derivations do not grow with the writes, and a second
    Oracle on the same unit derives them again (nothing is process-wide)."""
    counts = derivations(monkeypatch)
    seen = []
    for n in (1, 50):
        unit = parse_source(written(n))
        info = check_or_raise(unit)
        for _ in range(2):
            before = dict(counts)
            o = Oracle(unit, info)
            o.load()
            o.run()
            seen.append({k: counts[k] - before[k] for k in counts})
        assert o.memory_snapshot()["hits"] == str(max(0, n - 3))
    assert seen[0]["top_lvalues"] > 0 and seen[0]["sub_lvalues"] > 0
    assert seen[0]["lv_str"] == 5   # one per construct, the class's one included
    assert seen == [seen[0]] * 4


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


# ------------------------------------------- forms few programs reach

def test_a_pointer_past_its_block_renders_by_offset():
    m = matches_oracle("int a[2]; int *p;\nvoid main() { p = &a[0]; p = p + 5; }")
    assert m.memory_snapshot()["p"] == "&a[5]"


def test_a_local_object_is_destroyed_with_its_members():
    """A local object with an object member is destroyed member by member
    at its function's return, and one declared in a monitor body at the
    body's end."""
    m = matches_oracle("""
class In { int v; public: int get() { return v; } void set(int k) { v = k; } };
class Out { In i; public: void go() { i.set(2); } };
int done; int s; int n;
s ::= { In t; n = t.get() + s; }
void main() { Out o; o.go(); done = 1; s = 5; }
""")
    assert m.memory_snapshot() == {"done": "1", "s": "5", "n": "5"}


def test_an_objects_address_in_a_right_side_depends_on_the_object():
    """`&o` and `&(*q)` name objects as l-values: each is a trigger whose
    cell is the object's own, so o's update re-applies both constraints."""
    m = matches_oracle("""
class A { int v; public: void set(int k) { v = k; } };
A o; A *p; A *q = &o; bool b; bool c;
b := p == &o;
c := p == &(*q);
void main() { p = &o; o.set(1); }
""")
    assert (m.memory_snapshot()["b"], m.memory_snapshot()["c"]) == ("true", "true")
    assert [e.cell for e in events_of(m, tr.CONSTRAINT_APPLIED)] == ["b", "c"] * 3


def test_a_program_without_main_faults_in_both_routes():
    src = "int x;"
    m = machine(src)
    with pytest.raises(RuntimeFault) as vm_fault:
        m.run()
    with pytest.raises(RuntimeFault) as ref_fault:
        oracle(src).run()
    assert str(vm_fault.value) == str(ref_fault.value) == \
        "fault: program has no 'main' function"


def test_an_edge_rebound_earlier_in_its_wave_does_not_fire():
    """Writing a[0] applies `i := a[0]` first, which moves `x := a[i]`'s
    edge to a[1]: neither route fires it for a[0] (contract.py rule 3), and
    a right side's rebinding re-applies nothing, so x keeps its value."""
    m = matches_oracle("int a[2]; int i; int x;\ni := a[0];\nx := a[i];\n"
                       "void main() { a[1] = 9; a[0] = 1; }")
    assert m.memory_snapshot() == {"a[0]": "1", "a[1]": "9", "i": "1", "x": "0"}


def test_only_the_top_constraint_of_a_cell_applies():
    m = matches_oracle("int x; int a; int b;\nx := a;\nx := b;\n"
                       "void main() { a = 1; b = 2; a = 3; }")
    assert m.memory_snapshot() == {"x": "2", "a": "3", "b": "2"}


def test_a_method_reads_another_objects_member():
    m = matches_oracle("""
class A { int v; public: void set(int k) { v = k; }
    int peek(A *o) { return o->v; } int same(A *o) { return (*o).v; } };
A a; A b; int x; int y;
void main() { b.set(6); x = a.peek(&b); y = a.same(&b); }
""")
    assert (m.memory_snapshot()["x"], m.memory_snapshot()["y"]) == ("6", "6")


@pytest.mark.parametrize("lhs", ["o.v", "(*p).v"])
def test_an_object_constituent_of_a_left_side_rebinds_nothing(lhs):
    """`o` in `o.v` is an object: its update after `setk` is no write of a
    constituent (contract.py), so neither route re-applies the constraint
    for it; the reference no longer recurses without end."""
    m = matches_oracle(f"""class A {{ int v; int k; public: void setk(int x) {{ k = x; }}
    {lhs} := k + 1; }};
A o; A *p = &o;
void main() {{ o.setk(3); }}
""")
    assert m.memory_snapshot() == {"o.v": "4", "o.k": "3", "p": "&o"}


@pytest.mark.parametrize("construct,frame", [
    ("s ::= { int t = s; n = t; }", "<monitor>"),
    ("s > 0 ?? { int t = s; n = t; }", "<tester>"),
], ids=["monitor", "tester"])
def test_a_local_of_a_monitor_or_tester_body_is_named_as_in_the_reference(construct, frame):
    m = matches_oracle(f"int s; int n;\n{construct}\nvoid main() {{ s = 5; }}\n")
    assert m.memory_snapshot() == {"s": "5", "n": "5"}
    assert [e.cell for e in m.trace.events if e.cell.endswith(":t")] == [f"{frame}@2:t"] * 2
