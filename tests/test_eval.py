"""The evaluator: faults a run reports, returns, calls, short circuits and
pointer arithmetic, each compared with the reference interpreter where the
program runs to the end."""

import pytest

from conftest import machine, matches_oracle
from declc.cli import main
from declc.errors import RuntimeFault
from declc.vm import CellPtr

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
