import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN, PROGRAMS, matches_oracle
from declc.cli import main
from declc.errors import Pos, RuntimeFault
from declc.parser import MAX_NESTING


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def prog(name):
    return str(PROGRAMS / name)


def declc(*argv, env=None):
    """Run the declc command in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "declc.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_parse_ok(capsys):
    code, out, _ = run_cli(capsys, "parse", prog("deep_deref.hc"))
    assert code == 0
    assert "**x := p[i];" in out


def test_parse_reports_check_errors(capsys):
    code, _, err = run_cli(capsys, "parse", prog("bad_types.hc"))
    assert code == 1
    assert "error" in err


def test_parse_reports_syntax_errors(tmp_path, capsys):
    bad = tmp_path / "syntax.hc"
    bad.write_text("int x = ;")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    # the same FILE:LINE:COL form as a check error's
    assert err == f"{bad}:1:9: error: expected an expression, got ';'\n"


@pytest.mark.parametrize("source,error", [
    ("int y = z;\nint z = 5;", "1:9: error: 'z' is used before its declaration"),
    ("int *p = &w;\nint w;", "1:11: error: 'w' is used before its declaration"),
], ids=["value", "address-of"])
def test_global_initializer_naming_a_later_global_is_a_source_error(
        tmp_path, capsys, source, error):
    path = tmp_path / "later.hc"
    path.write_text(source + "\nvoid main() { }\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out, err) == (1, "", f"{path}:{error}\n")


def test_global_initializer_naming_an_earlier_global_runs():
    m = matches_oracle("int z = 5;\nint y = z;\nint *p = &z;\nint x = x + 1;\n"
                       "void main() { }")
    assert [m.memory_snapshot()[k] for k in "zypx"] == ["5", "5", "&z", "1"]


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "parse", "/nonexistent.hc")
    assert code == 1 and err


def test_graph_edges(capsys):
    code, out, _ = run_cli(capsys, "graph", prog("deep_deref.hc"))
    assert code == 0
    assert "x -> *x" in out and "*x -> **x" in out
    assert "i -> p[i]" in out and "p -> p[i]" in out


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--dot", prog("deep_deref.hc"))
    assert code == 0
    assert out.startswith("digraph") and '"x" -> "*x"' in out


def test_emit_to_stdout_and_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "emit", prog("deep_deref.hc"))
    assert code == 0 and "init_ptr_ptr_x" in out
    dest = tmp_path / "lowered.txt"
    code, _, _ = run_cli(capsys, "emit", prog("deep_deref.hc"),
                         "-o", str(dest))
    assert code == 0 and dest.read_text() == out


FORMS = ("int x; bool b; int *p; int n;\n"
         "void stop() { return; }\n"
         "x ::= { if (b) { p = null; } else { b = true; } while (n < x) { n = n + 1; } }\n"
         "void main() { stop(); x = 2; }\n")


def test_emit_and_parse_print_every_statement_form(tmp_path, capsys):
    """`if`/`else`, `while` and the literals in a monitor body under
    `declc emit`, and a bare `return;` (a function's only) under `parse`."""
    path = tmp_path / "forms.hc"
    path.write_text(FORMS)
    code, out, _ = run_cli(capsys, "emit", str(path))
    assert code == 0
    body = out[out.index("void monitor_0(void* owner)\n"):out.index("void init_sim_x")]
    assert body.splitlines() == [
        "void monitor_0(void* owner)", "{",
        "    if (b)", "        {", "            p = null;", "        }",
        "    else", "        {", "            b = true;", "        }",
        "    while (n < x)", "        {", "            n = n + 1;", "        }",
        "}", ""]
    code, out, _ = run_cli(capsys, "parse", str(path))
    assert code == 0 and "void stop()\n{\n    return;\n}\n" in out
    assert matches_oracle(FORMS).memory_snapshot() == {
        "x": "2", "b": "true", "p": "null", "n": "2"}


def test_run_prints_memory(capsys):
    code, out, _ = run_cli(capsys, "run", prog("deep_deref.hc"))
    assert code == 0
    assert "target = 41" in out
    assert "p[0] = 7" in out


def test_run_runtime_fault_exit_code(tmp_path, capsys):
    bad = tmp_path / "fault.hc"
    bad.write_text("int *p; int x;\nvoid main() { x = *p; }")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2 and "runtime fault" in err


def test_run_trace_file_is_jsonl(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    code, _, _ = run_cli(capsys, "run", prog("deep_deref.hc"),
                         "--trace", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines
    for line in lines:
        e = json.loads(line)
        assert list(e) == ["seq", "kind", "lvalue", "cell", "detail"]


def test_run_trace_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "run", prog("watchers.hc"),
                           "--trace", "-")
    assert code == 0 and '"kind": "MonitorFired"' in out


@pytest.mark.parametrize("name", sorted(
    p.stem for p in PROGRAMS.glob("*.hc") if not p.name.startswith("bad_")))
def test_run_trace_stdout_matches_golden(name, capsys):
    """The streamed trace and the final memory, byte for byte."""
    code, out, _ = run_cli(capsys, "run", prog(f"{name}.hc"), "--trace", "-")
    assert code == 0
    assert out == (GOLDEN / f"{name}_trace.jsonl").read_text(encoding="utf-8")


def test_run_prints_warnings_to_stderr(tmp_path, capsys):
    cyclic = tmp_path / "cyclic.hc"
    cyclic.write_text("int a; int b;\na := b + 1;\nb := a + 1;\n"
                      "void main() { a = 5; }")
    code, out, err = run_cli(capsys, "run", str(cyclic))
    assert code == 0
    assert out == "a = 7\nb = 6\n"
    assert err == (f"{cyclic}: warning: b: "
                   "skipped: already resolved in this wave\n")


def test_run_prints_warnings_when_the_run_faults(tmp_path, capsys):
    bad = tmp_path / "fault.hc"
    bad.write_text("int *p; int x; int **q;\n**q := x;\n"
                   "void main() { x = *p; }")
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2 and out == ""
    warning, fault = err.splitlines()
    assert warning == (f"{bad}: warning: **q: "
                       "constrained l-value unresolvable: null pointer dereference")
    assert fault.startswith(f"{bad}: runtime fault:")


def test_check_agreement(capsys):
    code, out, _ = run_cli(capsys, "check", "--seed", "0", "--count", "5")
    assert code == 0
    assert "5/5 seeds agree" in out


def test_check_reports_a_runtime_fault(monkeypatch, capsys):
    """Both routes fault alike: same text, same visible trace, so they agree."""
    monkeypatch.setattr("declc.randgen.generate",
                        lambda seed: "int *p; int x;\nvoid main() { x = *p; }")
    code, out, err = run_cli(capsys, "check", "--seed", "5", "--count", "2", "-v")
    assert code == 0
    assert err == ""
    assert out == ("seed 5: ok (0 visible events, both fault: "
                   "2:19: fault: null pointer dereference)\n"
                   "seed 6: ok (0 visible events, both fault: "
                   "2:19: fault: null pointer dereference)\n"
                   "2/2 seeds agree\n")


NULL_MEMBER_CALL = """\
class B { private: int v; public: int get() { return v; } };
class A { private: B b; int r; public: void f(A *o) { r = o->b.get(); } };
A a;
void main() { a.f(null); }
"""


def _fault_in(route):
    def run(*args, **kwargs):
        raise RuntimeFault(f"{route} fault")
    return run


@pytest.mark.parametrize("patched,faults", [
    ("declc.vm.Machine.call_function", "fault: vm fault|none"),
    ("declc.oracle.Oracle.run", "none|fault: oracle fault"),
], ids=["compiled", "reference"])
def test_check_reports_a_fault_of_one_route_as_a_divergence(
        monkeypatch, tmp_path, capsys, patched, faults):
    """A fault in one route no longer hides the other route's outcome."""
    from declc.randgen import generate

    monkeypatch.setattr(patched, _fault_in(patched.split(".")[1]))
    saved = tmp_path / "saved"
    code, out, err = run_cli(capsys, "check", "--seed", "3", "--count", "1",
                             "--save-dir", str(saved))
    assert code == 3 and err == ""
    lines = out.splitlines()
    assert lines[0] == "seed 3: DIVERGENCE"
    assert f"  runtime faults differ: {faults}" in lines
    assert lines[-2:] == [f"  program saved to {saved / 'seed3.hc'}", "0/1 seeds agree"]
    assert (saved / "seed3.hc").read_text() == generate(3)


def test_check_reports_different_fault_texts_as_a_divergence(monkeypatch, capsys):
    """Both routes fault at `o->b.get()` with a null `o`, the reference
    (patched) with another text, and the same visible trace: that is a
    divergence too."""
    def run(self):
        raise RuntimeFault("expression does not denote an object", Pos(2, 59))

    monkeypatch.setattr("declc.randgen.generate", lambda seed: NULL_MEMBER_CALL)
    monkeypatch.setattr("declc.oracle.Oracle.run", run)
    code, out, _ = run_cli(capsys, "check", "--seed", "0", "--count", "1")
    assert code == 3
    assert out.splitlines() == [
        "seed 0: DIVERGENCE",
        "  runtime faults differ: 2:59: fault: null pointer dereference|"
        "2:59: fault: expression does not denote an object",
        "0/1 seeds agree"]


ONCE_DIVERGED = {
    "null-member-call.hc": NULL_MEMBER_CALL,
    "out-of-bounds-global.hc": "int a[2]; int i; void main() { i = 5; a[i] = 1; }\n",
    "out-of-bounds-local.hc": "int x; void f() { int b[2]; x = b[3]; }\n"
                              "void main() { f(); }\n",
    "no-main.hc": "int x; x := 1;\n",
}


def test_check_files_that_fault_alike_agree(tmp_path, capsys):
    """Both routes fault with the same text on each: a method call through
    a data member of a null object pointer, an index out of a global or a
    local array's bounds (the fault names the block), and no `main`."""
    paths = []
    for name, source in ONCE_DIVERGED.items():
        paths.append(tmp_path / name)
        paths[-1].write_text(source)
    code, out, err = run_cli(capsys, "check", "-v", *map(str, paths))
    assert code == 0 and err == ""
    assert out.replace(f"{tmp_path}{os.sep}", "").splitlines() == [
        "null-member-call.hc: ok (0 visible events, both fault: "
        "2:59: fault: null pointer dereference)",
        "out-of-bounds-global.hc: ok (2 visible events, both fault: "
        "1:39: fault: index 5 out of bounds for 'a')",
        "out-of-bounds-local.hc: ok (0 visible events, both fault: "
        "1:33: fault: index 3 out of bounds for 'f@3:b')",
        "no-main.hc: ok (3 visible events, both fault: "
        "fault: program has no 'main' function)",
        "4/4 files agree"]


def pure_chain(n: int) -> str:
    """`c{k} := c{k-1} + 1` for n links, written once from `main`."""
    return ("".join(f"int c{k};\n" for k in range(n + 1))
            + "".join(f"c{k} := c{k - 1} + 1;\n" for k in range(1, n + 1))
            + "void main() { c0 = 1; }\n")


def test_check_reports_a_recursion_limit_as_that_routes_fault(monkeypatch, capsys):
    """The vm runs a 300-link pure chain in one loop; the reference
    recurses once per link and reaches Python's recursion limit.  That is
    the reference's runtime fault, a divergence, and no traceback."""
    monkeypatch.setattr("declc.randgen.generate", lambda seed: pure_chain(300))
    code, out, err = run_cli(capsys, "check", "--seed", "0", "--count", "1")
    assert code == 3 and err == ""
    lines = out.splitlines()
    assert lines[0] == "seed 0: DIVERGENCE"
    assert "  runtime faults differ: none|fault: recursion limit exceeded" in lines
    assert lines[-1] == "0/1 seeds agree"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def test_run_reports_running_out_of_memory_as_a_runtime_fault(monkeypatch, tmp_path, capsys):
    """An allocation that runs out of memory ends the run with the runtime
    fault `out of memory`, not a traceback."""
    monkeypatch.setattr("declc.vm._array", _out_of_memory)
    path = tmp_path / "huge.hc"
    path.write_text("int a[50000000];\nvoid main() { }\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2 and out == ""
    assert err == f"{path}: runtime fault: fault: out of memory\n"
    assert "Traceback" not in err


def test_run_reports_running_out_of_memory_after_the_run_as_a_runtime_fault(
        monkeypatch, tmp_path, capsys):
    """Reading the final memory of a large array can run out of memory after
    the run has ended: that is the same runtime fault, and nothing of the
    memory is printed."""
    monkeypatch.setattr("declc.vm.Machine.memory_snapshot", _out_of_memory)
    path = tmp_path / "large.hc"
    path.write_text("int a[3];\nvoid main() { a[1] = 2; }\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2 and out == ""
    assert err == f"{path}: runtime fault: fault: out of memory\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("patched,faults", [
    ("declc.vm._array", "fault: out of memory|none"),
    ("declc.oracle.Oracle._alloc", "none|fault: out of memory"),
], ids=["compiled", "reference"])
def test_check_reports_running_out_of_memory_as_that_routes_fault(
        monkeypatch, capsys, patched, faults):
    monkeypatch.setattr("declc.randgen.generate", lambda seed: "int a[2];\nvoid main() { }\n")
    monkeypatch.setattr(patched, _out_of_memory)
    code, out, err = run_cli(capsys, "check", "--seed", "0", "--count", "1")
    assert code == 3 and err == ""
    lines = out.splitlines()
    assert lines[0] == "seed 0: DIVERGENCE"
    assert f"  runtime faults differ: {faults}" in lines
    assert lines[-1] == "0/1 seeds agree"


def test_check_reports_a_divergence_and_saves_the_program(monkeypatch, tmp_path, capsys):
    """A mismatch is forced on both comparisons: the reference's last event
    is dropped, and memory always differs."""
    from declc import oracle
    from declc.oracle import DiffResult
    from declc.randgen import generate

    diff_traces = oracle.diff_traces
    monkeypatch.setattr(oracle, "diff_traces", lambda a, b: diff_traces(a, b[:-1]))
    monkeypatch.setattr(oracle, "diff_memory",
                        lambda a, b: DiffResult(False, "final memory differs: x=1|2"))
    saved = tmp_path / "saved"
    code, out, _ = run_cli(capsys, "check", "--seed", "7", "--count", "1",
                           "--save-dir", str(saved))
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "seed 7: DIVERGENCE"
    assert lines[1].startswith("  trace lengths differ (")
    assert lines[2] == "  final memory differs: x=1|2"
    assert lines[3].startswith("    compiled: {") and lines[4].startswith("    reference: {")
    assert lines[-2:] == [f"  program saved to {saved / 'seed7.hc'}", "0/1 seeds agree"]
    assert (saved / "seed7.hc").read_text() == generate(7)


def test_check_files_agree(capsys):
    code, out, err = run_cli(capsys, "check", prog("guarded.hc"), "-v")
    assert code == 0 and err == ""
    assert out.splitlines() == [f"{prog('guarded.hc')}: ok (15 visible events)",
                                "1/1 files agree"]


def test_check_file_reports_the_install_order_divergence(tmp_path, capsys):
    """Records a known divergence, not a wanted one: the vm installs the
    dependency edges of `a[i]` after its install-time application, the
    reference treats them as live during it (ROADMAP item 4)."""
    path = tmp_path / "witness.hc"
    path.write_text("int a[2]; int i; a[i] := a[0] + 1; void main() { i = 1; }\n")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == f"{path}: DIVERGENCE"
    assert "  final memory differs: a[0]=1|2, a[1]=2|3" in lines
    assert lines[-1] == "0/1 files agree"


def test_check_file_with_a_source_error_names_it(capsys):
    """The other files are still checked; the exit code is a source error's."""
    bad = prog("bad_types.hc")
    code, out, err = run_cli(capsys, "check", bad, prog("guarded.hc"))
    assert code == 1
    assert err.startswith(f"{bad}:4:5: error: ")
    assert out == "1/2 files agree\n"


@pytest.mark.parametrize("seed", [1500452, 10500791, 30601386, 40701388])
def test_check_huge_int_seeds_agree(seed):
    """These generated programs grow an integer past the interpreter's
    int-to-str digit limit; check renders it in hex and still agrees."""
    proc = declc("check", "--seed", str(seed), "--count", "1")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "1/1 seeds agree" in proc.stdout


def test_check_verbose(capsys):
    code, out, _ = run_cli(capsys, "check", "--seed", "3", "--count", "2",
                           "-v")
    assert code == 0 and "seed 3: ok" in out


@pytest.mark.parametrize("access", ["a.*m", "p->*m"])
def test_run_rejects_pointer_to_member(tmp_path, capsys, access):
    src = tmp_path / "ptm.hc"
    src.write_text("class A { public: int m; };\nA a; A *p = &a; int x;\n"
                   f"void main() {{ x = {access}; }}")
    code, out, err = run_cli(capsys, "run", str(src))
    assert code == 1 and "error" in err and out == ""


OBJECT_THROUGH_DEREF = """class W {
private:
    int m;
public:
    void set(int v) { m = v; }
    int get() { return m; }
};
W w; W v;
W *q = &w;
W *r = &v;
int seen;
seen := r->get();
void main() { r = &*q; r->set(3); q = &v; r = &*q; r->set(5); }
"""


def test_address_of_a_dereferenced_object_pointer_is_an_object_pointer():
    m = matches_oracle(OBJECT_THROUGH_DEREF)
    assert m.memory_snapshot()["seen"] == "5"
    assert m.memory_snapshot()["r"] == "&v"


OBJECT_CLASS = "class W { private: int m; public: int get() { return m; } };\n"

# Inputs that once ended in a Python traceback or in a runtime fault for a
# source error: (source, extra run arguments, environment, exit code,
# expected on stderr).
CRASH_INPUTS = {
    "superscript-digit": ("int x = ²;", [], {}, 1, "unrecognizable character '²'"),
    "long-initializer": (f"int x = {'9' * 5000};", [], {}, 1,
                         "1:9: error: integer literal too long"),
    "long-array-size": (f"int a[{'9' * 5000}];", [], {}, 1,
                        "1:7: error: integer literal too long"),
    "parens-90": ("int x;\nvoid main() { x = " + "(" * 90 + "1" + ")" * 90 + "; }",
                  [], {}, 0, ""),
    "sum-400": ("int x;\nvoid main() { x = " + "+".join(["1"] * 400) + "; }",
                [], {}, 1, "nesting too deep"),
    "prefix-1200": ("int x;\nvoid main() { x = " + "-" * 1200 + "1; }",
                    [], {}, 1, "nesting too deep"),
    "blocks-500": ("int x;\nvoid main() " + "{" * 500 + "x = 1;" + "}" * 500,
                   [], {}, 1, "nesting too deep"),
    "address-through-deref": (OBJECT_THROUGH_DEREF, ["--trace", "-"], {}, 0, ""),
    "trace-buffer-variable": (OBJECT_THROUGH_DEREF, ["--trace", "TRACE"],
                              {"DECLC_TRACE_BUFFER": "abc"}, 0, ""),
    "unclosed-comment": ("int x;\n  /* never closed", [], {}, 1,
                         "2:3: error: unterminated comment"),
    "object-pointer-arithmetic": (OBJECT_CLASS + "W w; W *q; int x;\n"
                                  "void main() { q = &w; x = (q + 1)->get(); }", [], {},
                                  1, "3:28: error: operator '+' on a pointer to an object"),
    "object-pointer-index": (OBJECT_CLASS + "W w; W *q; int x;\n"
                             "void main() { q = &w; x = q[0].get(); }", [], {},
                             1, "3:27: error: cannot index a pointer to an object"),
    "object-array-global": (OBJECT_CLASS + "W arr[2]; W *q;\nvoid main() { q = &arr[1]; }",
                            [], {}, 1, "2:1: error: 'arr': arrays of objects"),
    "object-array-local": (OBJECT_CLASS + "int x;\nvoid main() { W arr[2]; x = arr[0].get(); }",
                           [], {}, 1, "3:15: error: 'arr': arrays of objects"),
    "class-containing-itself": ("class A { private: A inner; int v; public: void f() { } };\n"
                                "A a;\nvoid main() { }", [], {},
                                1, "1:20: error: 'inner': class 'A' cannot contain itself"),
    "object-comparison": (OBJECT_CLASS + "W a; W b; bool r;\nvoid main() { r = a == b; }",
                          [], {}, 1, "3:19: error: operator '==' on objects ('W')"),
    "object-returned-by-value": (OBJECT_CLASS + "W w; int x;\nW f() { }\n"
                                 "void main() { x = f().get(); }", [], {},
                                 1, "3:1: error: 'f': an object cannot be returned by value"),
    "unbounded-recursion": ("int x;\nint f(int n) { return f(n + 1); }\n"
                            "void main() { x = f(0); }", [], {},
                            2, "runtime fault: fault: recursion limit exceeded"),
}


@pytest.mark.parametrize("name", sorted(CRASH_INPUTS))
def test_run_ends_without_a_traceback(tmp_path, name):
    source, extra, env, code, err = CRASH_INPUTS[name]
    path = tmp_path / "p.hc"
    path.write_text(source, encoding="utf-8")
    extra = [str(tmp_path / "t.jsonl") if a == "TRACE" else a for a in extra]
    proc = declc("run", str(path), *extra, env=env)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    assert err in proc.stderr


def test_a_120_deep_recursion_runs_on_its_third_call(tmp_path):
    """Under Python's default recursion limit.  The third call runs f's
    compiled body at every level."""
    path = tmp_path / "deep.hc"
    path.write_text("int r0; int r1; int r2;\n"
                    "int f(int n) { if (n == 0) { return 0; } return f(n - 1) + 1; }\n"
                    "void main() { r0 = f(120); r1 = f(120); r2 = f(120); }\n")
    proc = declc("run", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "r0 = 120\nr1 = 120\nr2 = 120\n"


# Each shape of nesting with the largest size the parser accepts.  The
# statement and its expression take one level each; each paren, prefix
# operator, folded operand or nested block takes one more.
NESTING = {
    "parens": (lambda n: "int x;\nvoid main() { x = " + "(" * n + "1" + ")" * n + "; }",
               MAX_NESTING - 2),
    "sum": (lambda n: "int x;\nvoid main() { x = " + " + ".join(["1"] * n) + "; }",
            MAX_NESTING - 1),
    "prefix": (lambda n: "int x;\nvoid main() { x = " + "-" * n + "1; }",
               MAX_NESTING - 2),
    "blocks": (lambda n: "int x;\nvoid main() " + "{" * n + " x = 1; " + "}" * n,
               MAX_NESTING - 1),
}


@pytest.mark.parametrize("shape", sorted(NESTING))
def test_nesting_at_the_bound_runs(tmp_path, capsys, shape):
    make, size = NESTING[shape]
    path = tmp_path / "deep.hc"
    path.write_text(make(size))
    assert run_cli(capsys, "run", str(path))[0] == 0
    assert run_cli(capsys, "emit", str(path))[0] == 0
    matches_oracle(make(size))


@pytest.mark.parametrize("shape", sorted(NESTING))
def test_nesting_past_the_bound_is_a_source_error(tmp_path, capsys, shape):
    make, size = NESTING[shape]
    path = tmp_path / "deep.hc"
    path.write_text(make(size + 1))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"{path}:2:") and err.endswith("error: nesting too deep\n")


@pytest.mark.parametrize("group", ["({} + 1 + 1 + 1)", "(1 + {} + 1 + 1)"])
def test_nesting_counts_the_depth_of_folded_groups(tmp_path, capsys, group):
    """Sixty groups of four terms, each nested as the first or the second
    term of the next: no group holds more than four terms, but the tree is
    180 levels deep."""
    expr = "1"
    for _ in range(60):
        expr = group.format(expr)
    path = tmp_path / "groups.hc"
    path.write_text(f"int x;\nvoid main() {{ x = {expr}; }}")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 1 and out == ""
    assert err.endswith("error: nesting too deep\n")
