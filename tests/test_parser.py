import dataclasses
import re

import pytest

from conftest import PROGRAMS
from declc import ast
from declc.errors import ParseError
from declc.lexer import tokenize
from declc.parser import parse_source
from declc.printer import expr_str, unit_str
from declc.randgen import generate


def roundtrip(source: str) -> str:
    return unit_str(parse_source(source))


def expr(source: str) -> ast.Expr:
    unit = parse_source(f"void main() {{ sink = {source}; }}")
    return unit.functions[0].body.stmts[0].value


# ------------------------------------------------------------- l-value forms

@pytest.mark.parametrize("text,node", [
    ("x", ast.Name),
    ("*x", ast.Deref),
    ("**x", ast.Deref),
    ("p[i]", ast.Index),
    ("p[i][j]", ast.Index),
    ("a.b", ast.Dot),
    ("a->b", ast.Arrow),
    ("q[f(p[x+y])]", ast.Index),
])
def test_lvalue_forms(text, node):
    e = expr(text)
    assert isinstance(e, node)
    assert expr_str(e) == text.replace("+", " + ")


def test_deref_nests_left():
    e = expr("**x")
    assert isinstance(e.operand, ast.Deref)
    assert isinstance(e.operand.operand, ast.Name)


def test_index_nests_left():
    e = expr("p[i][j]")
    assert isinstance(e.base, ast.Index)
    assert e.base.base.name == "p"


# -------------------------------------------------------------- precedence

@pytest.mark.parametrize("text,printed", [
    ("x + y * z", "x + y * z"),
    ("(x + y) * z", "(x + y) * z"),
    ("-x + y", "-x + y"),
    ("a && b || c", "a && b || c"),
    ("x == y + 1", "x == y + 1"),
    ("*p + 1", "*p + 1"),
    ("*(p + 1)", "*(p + 1)"),
])
def test_precedence_printing(text, printed):
    assert expr_str(expr(text)) == printed


# -------------------------------------------------------------- constructs

# Binary operators by level, loosest first; all are left-associative.
LEVELS = [["||"], ["&&"], ["==", "!="], ["<", ">", "<=", ">="], ["+", "-"],
          ["*", "/", "%"]]


def shape(e: ast.Expr):
    if isinstance(e, ast.Binary):
        return (shape(e.left), e.op, shape(e.right))
    if isinstance(e, ast.Unary):
        return (e.op, shape(e.operand))
    if isinstance(e, (ast.Deref, ast.AddrOf)):
        return ("*" if isinstance(e, ast.Deref) else "&", shape(e.operand))
    return e.name


def precedence_cases():
    for k, level in enumerate(LEVELS):
        for op1 in level:
            for op2 in level:  # same level: left-associative
                yield f"a {op1} b {op2} c", (("a", op1, "b"), op2, "c")
            for tighter in LEVELS[k + 1] if k + 1 < len(LEVELS) else []:
                yield f"a {op1} b {tighter} c", ("a", op1, ("b", tighter, "c"))
                yield f"a {tighter} b {op1} c", (("a", tighter, "b"), op1, "c")
    for prefix in ["*", "&", "-", "!"]:  # prefix operators bind tighter than *
        yield f"{prefix}a * b", ((prefix, "a"), "*", "b")
        yield f"a * {prefix}b", ("a", "*", (prefix, "b"))


@pytest.mark.parametrize("text,tree", list(precedence_cases()))
def test_precedence_and_associativity(text, tree):
    assert shape(expr(text)) == tree


def test_constraint_with_guard():
    unit = parse_source("int x; int y;\nx := y + 1 given y > 0;")
    c = unit.constructs[0]
    assert isinstance(c, ast.Constraint)
    assert expr_str(c.lhs) == "x"
    assert expr_str(c.guard) == "y > 0"


def test_monitor_and_precondition():
    unit = parse_source(
        "int x; int s;\nx ::= { s = s + 1; }\nx > 3 ?? { s = 0; }")
    assert isinstance(unit.constructs[0], ast.Monitor)
    assert isinstance(unit.constructs[1], ast.Precond)
    assert expr_str(unit.constructs[1].cond) == "x > 3"


def test_class_scope_constructs():
    unit = parse_source("""
class A {
private:
    int m;
public:
    int get() { return m; }
    m := 1 + 1;
};
""")
    cls = unit.classes[0]
    assert cls.name == "A"
    assert len(unit.constructs) == 1
    assert unit.constructs[0].scope == "A"


# -------------------------------------------------------------- round trips

def test_roundtrip_is_idempotent_on_corpus():
    for path in sorted(PROGRAMS.glob("*.hc")):
        if path.name.startswith("bad_"):
            continue
        once = roundtrip(path.read_text())
        assert roundtrip(once) == once, path.name


@pytest.mark.parametrize("seed", range(25))
def test_roundtrip_on_random_programs(seed):
    once = roundtrip(generate(seed))
    assert roundtrip(once) == once


# ------------------------------------------------------------------ errors

@pytest.mark.parametrize("source", [
    "int x = ;",
    "void main() { x = 1 }",          # missing semicolon
    "x := ;",
    "int x; x ::= s = 1;",            # monitor body must be a block
    "void main() { (x; }",
    "void main() { sink = a.*b; }",   # no pointer-to-member access
    "void main() { sink = a->*b; }",
])
def test_parse_errors(source):
    with pytest.raises(ParseError):
        parse_source(source)


def test_error_message_has_position():
    try:
        parse_source("int x = ;")
    except ParseError as e:
        assert "error" in str(e)
    else:
        pytest.fail("expected ParseError")


# --------------------------------------------------------------- positions

POSITION_SOURCES = ([p.name for p in sorted(PROGRAMS.glob("*.hc"))]
                    + [f"seed{k}" for k in range(200)])

# the node field holding each form's left operand
LEFT = {ast.Binary: "left", ast.Call: "callee", ast.Index: "base",
        ast.Dot: "obj", ast.Arrow: "obj"}


def tree_nodes(x):
    """Every syntax-tree node below x, x included."""
    if isinstance(x, list):
        for y in x:
            yield from tree_nodes(y)
    elif dataclasses.is_dataclass(x):
        yield x
        for f in dataclasses.fields(x):
            if f.name not in ("pos", "ty", "binding"):
                yield from tree_nodes(getattr(x, f.name))


@pytest.mark.parametrize("name", POSITION_SOURCES)
def test_positions_index_the_source(name):
    """Whatever a token is made of, its (line, col) and those of the nodes
    built from it point at their own text."""
    source = (generate(int(name[4:])) if name.startswith("seed")
              else (PROGRAMS / name).read_text())
    lines = source.split("\n")

    def at(line, col, text):
        return lines[line - 1].startswith(text, col - 1)

    for t in tokenize(source)[:-1]:
        assert at(t.line, t.col, t.text) and t.pos == (t.line, t.col), t
    for node in tree_nodes(parse_source(source)):
        if isinstance(node, ast.Name):
            rest = lines[node.pos.line - 1][node.pos.col - 1:]
            assert re.match(r"[A-Za-z_]\w*", rest)[0] == node.name, node
        elif isinstance(node, ast.IntLit):
            rest = lines[node.pos.line - 1][node.pos.col - 1:]
            assert int(re.match(r"[0-9]+", rest)[0]) == node.value, node
        elif type(node) in LEFT:
            assert node.pos == getattr(node, LEFT[type(node)]).pos, node
