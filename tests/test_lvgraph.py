import pytest

from declc import ast
from declc.checker import check_or_raise
from declc.cli import main
from declc.lvgraph import LvNode, build_graph, merge, proper_sublist, to_dot
from declc.parser import parse_source
from declc.randgen import generate


def graph(source):
    unit = parse_source(source)
    check_or_raise(unit)
    return build_graph(unit)


def edge_strs(g):
    return {(a.str, b.str) for a, b in g.edges()}


def node(*tokens):
    return LvNode(tokens, ast.Name("".join(tokens), pos=None))


# ----------------------------------------------------------------- sublists

def test_proper_sublist_is_contiguous_and_strict():
    assert proper_sublist(("x",), ("p", "[", "x", "]"))
    assert not proper_sublist(("x",), ("x",))                  # equality
    assert not proper_sublist(("p", "x"), ("p", "[", "x", "]"))  # gap
    assert not proper_sublist(("p", "[", "x", "]"), ("x",))


def test_identifier_granularity():
    """`i` inside `ii` is a lexical substring but not a token sublist."""
    assert not proper_sublist(("i",), ("ii",))
    assert proper_sublist(("i",), ("a", "[", "i", "]"))


# -------------------------------------------------------------------- merge

def test_merge_drops_equal_lvalues():
    x = node("x")
    assert merge([x], [node("x")]) == [x]


def test_merge_drops_sublist_lvalues():
    g, px, f, x = node("g"), node("p", "[", "x", "]"), node("f"), node("x")
    assert merge([g, px], [f, x]) == [g, px, f]


def test_merge_empty_identity():
    q = node("q")
    assert merge([], [q]) == [q]
    assert merge([q], []) == [q]


def test_merge_result_has_no_substring_pair():
    a = [node("p", "[", "i", "]"), node("j")]
    b = [node("i"), node("p"), node("p", "[", "i", "]", "[", "j", "]")]
    out = merge(a, b)
    for u in out:
        for v in out:
            if u is not v:
                assert not proper_sublist(u.tokens, v.tokens) \
                    and u.tokens != v.tokens


# ------------------------------------------------------------- worked graphs

def test_call_argument_graph():
    """No direct edges from x, y, p to the outer indexed l-value: they are
    dominated by its longest constituent."""
    g = graph("""
int q[9]; int p[9]; int x; int y; int s;
int f(int a) { return a; }
q[f(p[x+y])] ::= { s = 1; }
""")
    outer = "q[f(p[x+y])]"
    assert edge_strs(g) == {
        ("p", "p[x+y]"), ("x", "p[x+y]"), ("y", "p[x+y]"),
        ("q", outer), ("p[x+y]", outer),
    }  # the callee `f` is no l-value, so no node


def test_double_index_graph():
    g = graph("""
int **p; int i; int j; int s;
p[i][j] ::= { s = 1; }
""")
    assert edge_strs(g) == {
        ("p", "p[i]"), ("i", "p[i]"),
        ("p[i]", "p[i][j]"), ("j", "p[i][j]"),
    }


def test_deep_deref_constraint_graph():
    g = graph("""
int **x; int *y; int p[8]; int i;
**x := p[i];
""")
    assert edge_strs(g) == {
        ("x", "*x"), ("*x", "**x"), ("i", "p[i]"), ("p", "p[i]"),
    }


def test_repeated_identifier_no_direct_edge():
    """Both occurrences of x sit inside longer constituents, so x only has
    an edge into p[x], never into the whole l-value.  The callees `g` and `f`
    are no l-values."""
    g = graph("""
int p[9]; int x; int s; int arr[4];
int *g(int a) { return &arr[0]; }
int f(int a) { return a; }
*(g(p[x])+f(x)) ::= { s = 1; }
""")
    outer = next(n.str for n in g.nodes.values() if n.str.startswith("*g"))
    assert edge_strs(g) == {
        ("p", "p[x]"), ("x", "p[x]"), ("p[x]", outer),
    }


def test_identifier_token_granularity_in_graph():
    g = graph("""
int p[9]; int i; int ii; int s;
p[i+ii] ::= { s = 1; }
""")
    assert edge_strs(g) == {
        ("p", "p[i+ii]"), ("i", "p[i+ii]"), ("ii", "p[i+ii]"),
    }


def test_nodes_shared_within_scope():
    g = graph("""
int p[9]; int i; int s;
p[i] := 1;
p[i] ::= { s = 1; }
""")
    assert sum(1 for n in g.nodes.values() if n.str == "p[i]") == 1


def test_class_members_are_owner_prefixed():
    g = graph("""
class A {
private:
    int m;
public:
    int get() { return m; }
    m := 1 + 1;
};
""")
    assert any("owner" in n.str and "m" in n.str for n in g.nodes.values())


def test_a_node_is_keyed_by_its_canonical_string():
    """Two classes' members `v` are two nodes and a global `v` a third; the
    global `w`, read from both class scopes and from file scope, is one."""
    g = graph("""
int v; int w; int s;
class A { private: int v; public: int get() { return v; } v := w; };
class B { private: int v; public: int get() { return v; } v := w + 1; };
s := v + w;
""")
    a, b, f = (g.constructs[k] for k in range(3))
    v_nodes = [a.lhs, b.lhs, f.rhs_lvs[0]]
    assert [n.str for n in v_nodes] == ["((A*)owner)->v", "((B*)owner)->v", "v"]
    assert len(set(map(id, v_nodes))) == 3
    assert a.rhs_lvs[0] is b.rhs_lvs[0] is f.rhs_lvs[1]
    assert f.rhs_lvs[1].str == "w"


def test_a_global_named_owner_is_one_node_in_every_scope(tmp_path, capsys):
    """A global `owner` read in a class-scope and a file-scope `p[owner]` is
    no class member: `declc graph` prints each of its edges once."""
    path = tmp_path / "owner.hc"
    path.write_text("""
int owner; int p[4]; int s;
class A { private: int v; public: int get() { return v; } v := p[owner]; };
s := p[owner];
void main() { }
""", encoding="utf-8")
    assert main(["graph", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["p -> p[owner]", "owner -> p[owner]"]


# --------------------------------------------------------------- dependents

def closure_strs(g, s):
    """What a write to s rebinds, transitively: preorder over dependents."""
    out = []

    def walk(n):
        for d in n.dependents:
            if d.str not in out:
                out.append(d.str)
                walk(d)
    walk(next(n for n in g.nodes.values() if n.str == s))
    return out


def test_dependents_closure_deep_deref():
    g = graph("int **x; int p[8]; int i;\n**x := p[i];")
    assert closure_strs(g, "x") == ["*x", "**x"]
    assert closure_strs(g, "**x") == []


def test_dependents_closure_double_index():
    g = graph("int **p; int i; int j; int s;\np[i][j] ::= { s = 1; }")
    assert closure_strs(g, "j") == ["p[i][j]"]
    assert closure_strs(g, "p") == ["p[i]", "p[i][j]"]


# ---------------------------------------------------------------- acyclicity

def assert_edges_shrink(g):
    """Every edge runs from a proper token sub-list of its target, so
    following edges shortens the l-value and no cycle can form."""
    for r, n in g.edges():
        assert proper_sublist(r.tokens, n.tokens), (r, n)


def test_acyclic_on_examples():
    g = graph("int **x; int p[8]; int i;\n**x := p[i];")
    assert len(g.edges()) == 4
    assert_edges_shrink(g)
    assert build_graph(parse_source("")).edges() == []


@pytest.mark.parametrize("seed", range(40))
def test_acyclic_on_random_programs(seed):
    assert_edges_shrink(graph(generate(seed)))


def test_redef_lists_satisfy_longest_substring_property():
    for seed in range(20):
        g = graph(generate(seed))
        for n in g.nodes.values():
            for r in n.redef:
                assert proper_sublist(r.tokens, n.tokens)
                for other in n.redef:
                    if other is not r:
                        assert not proper_sublist(r.tokens, other.tokens)


def test_reverse_adjacency_consistency():
    for seed in range(20):
        g = graph(generate(seed))
        for n in g.nodes.values():
            for r in n.redef:
                assert n in r.dependents
            for d in n.dependents:
                assert n in d.redef


# ------------------------------------------------------------- determinism

def test_build_is_deterministic():
    src = generate(7)
    a, b = graph(src), graph(src)
    assert [(x.str, y.str) for x, y in a.edges()] == \
           [(x.str, y.str) for x, y in b.edges()]
    assert to_dot(a) == to_dot(b)


# --------------------------------------------------------------------- dot

def test_dot_output():
    g = graph("int *x; int y;\n*x := y;")
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert '"x" -> "*x"' in dot


def test_dot_empty_graph():
    dot = to_dot(build_graph(parse_source("")))
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


def test_dot_edge_count_matches_graph():
    g = graph("int **p; int i; int j; int s;\np[i][j] ::= { s = 1; }")
    assert to_dot(g).count("->") == 4
