import pytest

from conftest import GOLDEN, program
from declc import codegen
from declc.checker import check_or_raise
from declc.codegen import CallGen, lower, mangle_expr
from declc.lvgraph import build_graph
from declc.parser import parse_source
from declc.printer import expr_str
from declc.randgen import generate
from declc.render import render


def lowered(source):
    unit = parse_source(source)
    check_or_raise(unit)
    return lower(unit, build_graph(unit))


def expr(source: str):
    unit = parse_source(f"void main() {{ sink = {source}; }}")
    return unit.functions[0].body.stmts[0].value


# ------------------------------------------------------------------ mangling

@pytest.mark.parametrize("text,mangled", [
    ("x", "x"),
    ("*x", "ptr_x"),
    ("**x", "ptr_ptr_x"),
    ("p[i]", "p_arr_i"),
    ("a.b", "a_mem_b"),
    ("a->b", "a_mem_b"),
    ("q[f(p[x+y])]", "q_arr_f_p_arr_x_y"),
])
def test_mangle_expr(text, mangled):
    assert mangle_expr(expr(text)) == mangled


def test_mangled_names_are_disambiguated():
    gen = lowered(program("watchers.hc"))
    # three constructs watch x: first one owns the bare mangled name, the
    # rest are suffixed with their construct ordinal
    assert {"init_sim_x", "init_sim_x_1", "init_sim_x_2"} <= set(gen.functions)


# ----------------------------------------------------- the worked constraint

DEEP = """
int **x;
int *y;
int target;
int p[8];
int i;

**x := p[i];

void main() {
}
"""


def test_deep_deref_function_set():
    gen = lowered(DEEP)
    assert sorted(gen.functions) == [
        "assign_0", "init_0",
        "init_p_arr_i", "init_ptr_ptr_x", "init_ptr_x",
        "init_sim_i", "init_sim_x",
        "redef_ptr_x", "redef_sim_i", "redef_sim_x",
    ]


def test_deep_deref_unit_init_installs_in_declaration_order():
    gen = lowered(DEEP)
    init0 = gen.functions[gen.unit_init]
    assert [i.fn for i in init0.instrs if isinstance(i, CallGen)] == [
        "init_sim_x", "init_ptr_x", "init_ptr_ptr_x",
        "init_sim_i", "init_p_arr_i",
    ]


def test_redef_of_x_reinitializes_and_recurses():
    """The redefinition function of a redefining l-value calls the init of
    every dependent in its own construct, then the dependents' redef
    functions so the behavior recurses across the graph."""
    gen = lowered(DEEP)
    calls = [i.fn for i in gen.functions["redef_sim_x"].instrs
             if isinstance(i, CallGen)]
    assert calls == ["init_ptr_x", "redef_ptr_x"]
    calls = [i.fn for i in gen.functions["redef_ptr_x"].instrs
             if isinstance(i, CallGen)]
    assert calls == ["init_ptr_ptr_x"]
    calls = [i.fn for i in gen.functions["redef_sim_i"].instrs
             if isinstance(i, CallGen)]
    assert calls == ["init_p_arr_i"]


def test_constrained_lvalue_init_registers_constraint_and_applies():
    gen = lowered(DEEP)
    instrs = gen.functions["init_ptr_ptr_x"].instrs
    assert any(i.kind == "constraint" for i in instrs)
    assert instrs[-1].kind == "apply"


def test_dependency_registered_in_constraining_lvalue_init():
    """The dependency registration for p[i] lives in p[i]'s own init, so
    rebinding i re-executes it (asserted dynamically in the acceptance
    suite)."""
    gen = lowered(DEEP)
    assert any(i.kind == "dependency"
               for i in gen.functions["init_p_arr_i"].instrs)


def test_redefinition_registered_on_each_redefining_lvalue():
    gen = lowered(DEEP)
    for init, redef in [("init_sim_x", "redef_sim_x"),
                        ("init_ptr_x", "redef_ptr_x"),
                        ("init_sim_i", "redef_sim_i")]:
        regs = [i for i in gen.functions[init].instrs
                if i.kind == "redefinition"]
        assert [r.fn for r in regs] == [redef]


# ------------------------------------------------------- other constructs

def test_monitor_and_precondition_registrations():
    gen = lowered(program("watchers.hc"))
    kinds_by_fn = {name: [getattr(i, "kind", None) for i in fn.instrs]
                   for name, fn in gen.functions.items()}
    assert "monitor" in kinds_by_fn["init_sim_x"]
    assert "precondition" in kinds_by_fn["init_sim_x_1"]
    # monitors and preconditions are not applied at install time
    assert not any(i.kind == "apply"
                   for i in gen.functions["init_sim_x"].instrs)


def test_guarded_constraint_has_guard_function():
    gen = lowered("int x; int y;\nx := y + 1 given y > 0;")
    plan = gen.plans[0]
    assert plan.guard_fn is not None
    assert gen.functions[plan.guard_fn].kind == codegen.GUARD_TESTER


def test_class_constructs_go_to_class_unit_init():
    gen = lowered(program("class_scope.hc"))
    init = gen.functions[gen.classes["Pair"]]
    assert [i.fn for i in init.instrs if isinstance(i, CallGen)] == [
        "init_sim_hi", "init_sim_lo"]
    # the file-scope unit init does not install class constructs
    assert gen.functions[gen.unit_init].instrs == []


# ------------------------------------------------------------------- golden

@pytest.mark.parametrize("name", [
    "deep_deref", "class_scope", "watchers", "guarded", "objects",
    "pointer_retarget"])
def test_rendered_lowering_matches_golden(name):
    gen = lowered(program(f"{name}.hc"))
    expected = (GOLDEN / f"{name}_lowered.txt").read_text(encoding="utf-8")
    assert render(gen) == expected


def test_lowering_is_deterministic():
    for seed in (0, 5, 11):
        src = generate(seed)
        assert render(lowered(src)) == render(lowered(src))
