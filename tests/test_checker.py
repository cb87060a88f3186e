import itertools

import pytest

from conftest import program
from declc.checker import check, check_or_raise
from declc.cli import main
from declc.errors import CheckError
from declc.parser import parse_source


def errors(source: str) -> list[str]:
    _, diags = check(parse_source(source))
    return [d.message for d in diags]


def assert_clean(source: str):
    assert errors(source) == []


# ------------------------------------------------- scalar conversion table

SCALAR_DECLS = {
    "int": "int {0} = 1;",
    "bool": "bool {0};",
    "int*": "int *{0};",
    "int**": "int **{0};",
    "bool*": "bool *{0};",
}


@pytest.mark.parametrize("dst,src",
                         list(itertools.product(SCALAR_DECLS, SCALAR_DECLS)))
def test_scalar_assignment_conversions(dst, src):
    """Assignment is allowed only between identical scalar types; no implicit
    int/bool or cross-pointer conversions exist. Brute-force over all pairs."""
    text = (SCALAR_DECLS[dst].format("d") + "\n"
            + SCALAR_DECLS[src].format("s") + "\n"
            + "void main() { d = s; }")
    errs = errors(text)
    if dst == src:
        assert errs == []
    else:
        assert errs, f"{src} -> {dst} should not convert"


def test_null_assigns_to_any_pointer_but_not_scalars():
    assert_clean("int *p;\nvoid main() { p = null; }")
    assert_clean("int **q;\nvoid main() { q = null; }")
    assert errors("int x;\nvoid main() { x = null; }")


def test_address_of_produces_one_level_deeper_pointer():
    assert_clean("int x; int *p;\nvoid main() { p = &x; }")
    assert_clean("int *p; int **q;\nvoid main() { q = &p; }")
    assert errors("int x; int **q;\nvoid main() { q = &x; }")


# ----------------------------------------------------------- l-value rules

def test_literal_constraint_lhs_rejected():
    assert errors("int x;\n5 := x;") == ["left side must be an l-value"]


def test_expression_monitor_lhs_rejected():
    assert "left side must be an l-value" in errors(
        "int x;\nx + 1 ::= { x = 0; }")


def test_precondition_must_be_bool():
    assert errors("int x; int s;\nx + 1 ?? { s = 1; }")
    assert_clean("int x; int s;\nx > 0 ?? { s = 1; }")


def test_return_only_in_functions():
    """A monitor or tester body has no caller: a `return` there is an error,
    also after a function whose return type it could otherwise match."""
    for construct in ("x ::= { return; }", "x > 0 ?? { if (true) { return; } }",
                      "x ::= { return 1; }"):
        assert errors("int x;\nint f() { return 1; }\n" + construct) == \
            ["'return' outside a function"]
    assert_clean("int x;\nvoid f() { return; }\nint g() { while (true) { return 1; } }")


# ------------------------------------------------------------- name rules

def test_unresolved_identifier():
    assert errors("void main() { z = 1; }") == ["unresolved identifier 'z'"]


def test_call_arity_checked():
    assert errors("int f(int a) { return a; }\nvoid main() { f(); }") == [
        "expected 1 arguments, got 0"]


def test_only_functions_are_callable():
    assert errors("int x;\nvoid main() { x(); }") == ["'x' is not callable"]


def test_private_members_inaccessible_outside_class():
    src = ("class A { private: int m; public: int g() { return m; } };\n"
           "A a;\nvoid main() { a.m = 1; }")
    assert errors(src) == ["member 'A::m' is private"]


def test_private_members_accessible_inside_class():
    assert_clean("class A { private: int m;"
                 " public: void s(int v) { m = v; } };")


# -------------------------------------------------------- operator typing

def test_dereference_requires_pointer():
    assert errors("int x;\nvoid main() { *x = 1; }")


def test_index_requires_array_or_pointer():
    assert errors("int x;\nvoid main() { x[0] = 1; }")
    assert_clean("int a[4];\nvoid main() { a[0] = 1; }")
    assert_clean("int *p; int a[4];\nvoid main() { p = &a[0]; *p = 1; }")


OBJECT_CLASS = "class W { private: int m; public: int get() { return m; } };\n"


@pytest.mark.parametrize("expr", ["(q + 1)->get()", "(1 + q)->get()", "(q - 1)->get()",
                                  "q[0].get()"])
def test_object_pointers_take_no_arithmetic_or_index(expr):
    """An object is no element of an array: `+`/`-` and `[]` on a pointer to
    one are source errors, not a pointer the vm cannot follow."""
    src = OBJECT_CLASS + "W w; W *q; int x;\nvoid main() { q = &w; x = %s; }"
    assert errors(src % expr) and len(errors(src % expr)) == 1
    assert_clean(src % "q->get()")
    assert_clean("int a[2]; int *p; int x;\nvoid main() { p = &a[0]; x = (p + 1)[0]; }")


def test_objects_are_returned_by_pointer_only():
    """No object can be returned by value (objects do not assign), so such a
    declaration is a source error; a function returning `W *` is legal."""
    assert errors(OBJECT_CLASS + "W w; int x;\nW f() { }\nvoid main() { x = f().get(); }") \
        == ["'f': an object cannot be returned by value"]
    assert_clean(OBJECT_CLASS + "W w; int x;\nW *f() { return &w; }\n"
                 "void main() { x = f()->get(); }")


@pytest.mark.parametrize("decl", ["W arr[2];\nvoid main() { }",
                                  "void main() { W arr[2]; }"], ids=["global", "local"])
def test_arrays_of_objects_rejected(decl):
    assert errors(OBJECT_CLASS + decl) == ["'arr': arrays of objects are not supported"]
    assert_clean(OBJECT_CLASS + decl.replace("W arr[2]", "W *arr[2]"))


def test_a_class_cannot_contain_itself():
    """Only directly: a class name is known from its own `class A {` on."""
    member = "class A { private: A %s; int v; public: void f() { } };\nA a;\nvoid main() { }"
    assert errors(member % "inner") == ["'inner': class 'A' cannot contain itself"]
    assert_clean(member % "*next")


@pytest.mark.parametrize("expr", ["a == b", "a != b", "*p == a"])
def test_objects_do_not_compare(expr):
    src = OBJECT_CLASS + "W a; W b; W *p; bool r;\nvoid main() { r = %s; }"
    op = expr.split()[1]
    assert errors(src % expr) == [f"operator '{op}' on objects ('W')"]
    assert_clean(src % "p == &a || p != null")


def test_arithmetic_is_int_only():
    assert errors("bool b; int x;\nvoid main() { x = b + 1; }")
    assert_clean("int x;\nvoid main() { x = 1 + 2 * 3; }")


def test_comparison_yields_bool():
    assert errors("int x; int y;\nvoid main() { x = x < y; }")
    assert_clean("int x; bool b;\nvoid main() { b = x < 3; }")


def test_logical_operators_require_bool():
    assert errors("int x; bool b;\nvoid main() { b = x && b; }")
    assert_clean("bool a; bool b; bool c;\nvoid main() { c = a && b || a; }")


# ----------------------------------------------------------------- bindings

def test_bindings_distinguish_scopes():
    unit = parse_source("int g;\nint f(int g) { return g; }\n"
                        "void main() { g = f(g); }")
    check_or_raise(unit)
    ret = unit.functions[0].body.stmts[0]
    assert ret.value.binding[0] == "local"
    body = unit.functions[1].body.stmts[0]
    assert body.target.binding[0] == "global"


def test_member_binding_inside_class():
    unit = parse_source(
        "class A { private: int m; public: void s() { m = 1; } };")
    check_or_raise(unit)
    stmt = unit.classes[0].methods[0].body.stmts[0]
    assert stmt.target.binding == ("member", "A", "m")


# ------------------------------------------------------------------ corpus

def test_bad_programs_raise():
    for name in ("bad_types.hc", "bad_lhs.hc"):
        with pytest.raises(CheckError):
            check_or_raise(parse_source(program(name)))


def test_good_programs_check(good_programs):
    for name in good_programs:
        check_or_raise(parse_source(program(name)))


# ------------------------------------------------------------- diagnostics

DIAGNOSTICS = [
    ("int x;\nint x;", "2:1: redeclaration of 'x'"),
    ("void f() { }\nvoid f() { }", "2:1: redeclaration of function 'f'"),
    ("class A { public: void f() { } };\nclass A { public: void f() { } };",
     "2:1: redeclaration of class 'A'"),
    ("class A { private: int m; int m; public: void f() { } };",
     "1:27: redeclaration of member 'm'"),
    ("class A { public: void f() { } void f() { } };", "1:32: redeclaration of method 'f'"),
    ("void main() { int x; int x; }", "1:22: redeclaration of 'x'"),
    ("class A { private: int m[2]; public: void f() { } };",
     "1:20: array data members are not supported"),
    ("void f(int a, int a) { }", "1:1: duplicate parameter 'a'"),
    (OBJECT_CLASS + "W w = 1;", "2:1: 'w': initializer not allowed for this type"),
    ("int x = true;", "1:1: cannot initialize 'int' from 'bool'"),
    ("int a[2];\na := 1;", "2:1: left side of type 'int[2]' is not assignable"),
    ("int x; bool b;\nx := b;",
     "2:1: constraint sides are not assignment compatible ('int' := 'bool')"),
    ("int x; int y;\nx := y given y;", "2:1: constraint guard must be bool, got 'int'"),
    ("int a[2];\na ::= { }", "2:1: monitored l-value of type 'int[2]' is not assignable"),
    ("int x; int s;\nx + 1 ?? { s = 1; }", "2:1: precondition must be bool, got 'int'"),
    ("void main() { void v; }", "1:15: unknown type 'void'"),
    ("int x;\nvoid main() { x + 1 = 2; }", "2:15: assignment target must be an l-value"),
    ("int a[2];\nvoid main() { a = 1; }", "2:15: cannot assign to value of type 'int[2]'"),
    ("int x;\nvoid main() { if (x) { } }", "2:15: condition must be bool, got 'int'"),
    ("int x;\nvoid main() { while (x > 0) { } while (x) { } }",
     "2:33: condition must be bool, got 'int'"),
    ("int f() { return true; }", "1:11: cannot return 'bool' from function returning 'int'"),
    ("bool b;\nvoid main() { *b = true; }", "2:15: cannot dereference 'bool'"),
    ("int *p;\nvoid main() { p = &1; }", "2:19: cannot take the address of this expression"),
    ("int x; bool b;\nvoid main() { x = -b; }", "2:19: operator '-' requires 'int', got 'bool'"),
    ("int x; bool b;\nvoid main() { b = !x; }", "2:19: operator '!' requires 'bool', got 'int'"),
    ("int a[2]; bool b;\nvoid main() { a[b] = 1; }", "2:15: array index must be int, got 'bool'"),
    ("int x; bool b;\nvoid main() { b = x < b; }",
     "2:19: operator '<' requires int operands, got 'bool'"),
    ("int x; bool b; bool r;\nvoid main() { r = x == b; }",
     "2:19: cannot compare 'int' with 'bool'"),
    ("int f(int a) { return a; }\nbool b;\nvoid main() { f(b); }",
     "3:17: cannot pass 'bool' as parameter of type 'int'"),
    ("int x;\nvoid main() { x->m = 1; }", "2:15: '->' requires a pointer to an object, got 'int'"),
    ("int x;\nvoid main() { x.m = 1; }", "2:15: '.' requires an object, got 'int'"),
    (OBJECT_CLASS + "W w;\nvoid main() { w.nope(); }", "3:15: class 'W' has no member 'nope'"),
    (OBJECT_CLASS + "W *q;\nvoid main() { q->nope(); }", "3:15: class 'W' has no member 'nope'"),
    (OBJECT_CLASS + "W f() { }", "2:1: 'f': an object cannot be returned by value"),
    ("class A { public: A self() { } };",
     "1:19: 'self': an object cannot be returned by value"),
    ("void main() { int a[2] = 1; }", "1:15: 'a': initializer not allowed for this type"),
    ("void main() { bool b = 1; }", "1:15: cannot initialize 'bool' from 'int'"),
    ("int f(int k, bool b) { return k; }\nint x;\nvoid main() { x = f; }",
     "3:15: cannot assign 'int(int, bool)' to 'int'"),
    # `==` and `!=` compare values: no array, function or void result is one
    ("int a[2]; bool r;\nvoid main() { r = a == a; }", "2:19: operator '==' on 'int[2]' values"),
    ("int f() { return 1; }\nbool r;\nvoid main() { r = f != f; }",
     "3:19: operator '!=' on 'int()' values"),
    ("void v() { }\nbool r;\nvoid main() { r = v() == v(); }",
     "3:19: operator '==' on 'void' values"),
    # nor is a bare array, function or object read as a statement or returned
    ("int a[2];\nvoid main() { a; }", "2:15: 'a' is not a value"),
    ("int f() { return 1; }\nvoid main() { f; }", "2:15: 'f' is not a value"),
    (OBJECT_CLASS + "W w;\nvoid main() { w; }", "3:15: 'w' is not a value"),
    ("int a[2];\nvoid g() { return a; }", "2:19: 'a' is not a value"),
    # an object reached through a pointer is no value either (the parent ran these)
    (OBJECT_CLASS + "W *p;\nvoid main() { *p; }", "3:15: '*p' is not a value"),
    (OBJECT_CLASS + "W *p;\nvoid g() { return *p; }", "3:19: '*p' is not a value"),
]


@pytest.mark.parametrize("expr", ["*q", "&q", "q[0]"])
def test_an_erroneous_operand_is_reported_once(expr):
    """An operand with no type (here unresolved) gives its own error only:
    the operator over it reports nothing more."""
    assert errors(f"int x;\nvoid main() {{ x = {expr}; }}") == ["unresolved identifier 'q'"]


def test_a_void_function_may_return_a_value_it_ignores():
    assert_clean("int x;\nvoid g() { return x; }\nint h() { return 1; }\n"
                 "void main() { g(); h(); }")


@pytest.mark.parametrize("source,diagnostic", DIAGNOSTICS,
                         ids=[d.split(": ", 1)[1] for _, d in DIAGNOSTICS])
def test_check_error_is_reported_at_its_position(tmp_path, capsys, source, diagnostic):
    path = tmp_path / "bad.hc"
    path.write_text(source)
    assert main(["parse", str(path)]) == 1
    where, msg = diagnostic.split(": ", 1)
    assert capsys.readouterr().err == f"{path}:{where}: error: {msg}\n"
