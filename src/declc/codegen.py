"""Lowering: from a checked unit plus its redefinition graph to a GenUnit.

The lowered unit is the registration program the vm runs.  Per declarative
construct the generator produces (mirroring the init_/redef_ function
families):
  - one init function per distinct l-value of the construct, managing its
    involvement (constraint/monitor/precondition registration, dependency
    edges, redefinition registration);
  - one redef function per redefining, assignable l-value, re-running the
    init functions of everything it rebinds;
plus one unit init function per scope that installs every construct in
declaration order.  A construct's action functions (assign / guard /
monitor body / tester) are not lowered: the vm and the renderer read its
sides from the redefinition graph's `ConstructLvs`, and only its entry
function's name (`assign_N`, `monitor_N`, `tester_N`) is made here, as
`Reg.fn`.

An init function body is a list of `Reg` records, each naming its kind,
l-value and entry function once; the vm lowers them to its steps and the
renderer prints them.  Init, redef and unit init bodies call one another
through `CallGen`.

Dependency edges are registered inside the *constraining* l-value's init
function, so rebinding the constraining side re-registers the edge at its
new storage (the constrained side is re-resolved lazily at fire time).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import ast
from .lvgraph import LvNode, RedefGraph

# --------------------------------------------------------------- instructions

@dataclass(eq=False, slots=True)
class Reg:
    """One registration of l-value `lv` in an init function.  `kind` names the
    cell's registration list (`constraint`, `dependency`, `monitor`,
    `precondition`, `redefinition`) and is the Install/Cancel detail prefix;
    `fn` is the entry function; a dependency's `ordinal` numbers its
    constraining l-value.  Kind `apply` is the install-time application of
    the constraint `fn` on its left side `lv`.  A `Reg` is compared and
    hashed by identity: the vm keys what it places by it."""
    kind: str
    lv: LvNode
    fn: str
    ordinal: int | None = None


@dataclass(slots=True)
class CallGen:
    fn: str


# ------------------------------------------------------------------ functions

INIT = "Init"
REDEF = "Redef"
UNIT_INIT = "UnitInit"


@dataclass(slots=True)
class GenFunction:
    name: str
    kind: str
    construct: int             # owning construct ordinal, -1 for unit init
    instrs: list               # Reg and CallGen records


@dataclass(slots=True)
class GenUnit:
    unit: ast.Unit
    graph: RedefGraph
    functions: dict[str, GenFunction]   # in emission order
    unit_init: str
    classes: dict[str, str]    # class name -> its class-scope unit init


# -------------------------------------------------------------------- mangler

def _sanitize(s: str) -> str:
    s = re.sub(r"[^0-9A-Za-z_]+", "_", s).strip("_")
    return s or "e"


def mangle_expr(e: ast.Expr) -> str:
    if isinstance(e, ast.Name):
        return e.name
    if isinstance(e, ast.Deref):
        return "ptr_" + mangle_expr(e.operand)
    if isinstance(e, ast.Index):
        return mangle_expr(e.base) + "_arr_" + mangle_expr(e.index)
    if isinstance(e, (ast.Dot, ast.Arrow)):
        return mangle_expr(e.obj) + "_mem_" + e.member
    if isinstance(e, ast.Binary):
        return mangle_expr(e.left) + "_" + mangle_expr(e.right)
    if isinstance(e, ast.Call):
        parts = [mangle_expr(e.callee)] + [mangle_expr(a) for a in e.args]
        return "_".join(parts)
    if isinstance(e, (ast.Unary, ast.AddrOf)):
        return mangle_expr(e.operand)
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.BoolLit):
        return "true" if e.value else "false"
    return "null"  # a NullLit


def mangle(lv: LvNode) -> str:
    """Identifier-safe name for an l-value: x -> sim_x, **x -> ptr_ptr_x,
    p[i] -> p_arr_i."""
    if isinstance(lv.expr, ast.Name):
        return "sim_" + lv.expr.name
    return _sanitize(mangle_expr(lv.expr))


class NameRegistry:
    """Fresh names `base`, `base_1`, `base_2`, ...: the first one not used.
    Names are only ever added, so probing for a base resumes where it last
    stopped."""

    def __init__(self):
        self.used: set[str] = set()
        self.next: dict[str, int] = {}  # base -> first suffix not yet probed

    def fresh(self, base: str) -> str:
        k = self.next.get(base, 0)
        name = f"{base}_{k}" if k else base
        while name in self.used:
            k += 1
            name = f"{base}_{k}"
        self.next[base] = k + 1
        self.used.add(name)
        return name


# ------------------------------------------------------------------- emission

def _collect(n: LvNode, nodes: list[LvNode]):
    """Append n to nodes after the l-values that redefine it, each once."""
    if n not in nodes:
        for r in n.redef:
            _collect(r, nodes)
        nodes.append(n)


class Emitter:
    def __init__(self, unit: ast.Unit, graph: RedefGraph):
        self.unit = unit
        self.graph = graph
        self.names = NameRegistry()
        self.functions: dict[str, GenFunction] = {}

    def add(self, fn: GenFunction) -> GenFunction:
        self.functions[fn.name] = fn
        return fn

    def emit_unit(self) -> GenUnit:
        for c in self.unit.constructs:
            self.emit_construct(c)
        classes = {cls.name: self.emit_scope_init(cls.name, f"init_0_{cls.name}")
                   for cls in self.unit.classes}
        return GenUnit(self.unit, self.graph, self.functions,
                       self.emit_scope_init(None, "init_0"), classes)

    # ---------------------------------------------------------- per-construct

    def emit_construct(self, c: ast.Construct):
        info = self.graph.constructs[c.ordinal]
        # kind and entry function of the construct, the l-values registered
        # under that kind, and those a constraint depends on
        if isinstance(c, ast.Constraint):
            fn = f"assign_{c.ordinal}"
            kind, regd, deps = "constraint", [info.lhs], info.rhs_lvs
        elif isinstance(c, ast.Monitor):
            fn = f"monitor_{c.ordinal}"
            kind, regd, deps = "monitor", [info.lhs], []
        else:  # a Precond
            fn = f"tester_{c.ordinal}"
            kind, regd, deps = "precondition", info.cond_lvs, []

        # distinct l-values of the construct, innermost redefining ones first
        nodes: list[LvNode] = []
        for root in regd + deps:
            _collect(root, nodes)

        # what each l-value redefines in this construct (only one with
        # dependents can), and a redef function for each assignable one
        inside, redef_name = {}, {}
        for n in nodes:
            if n.dependents:
                inside[n] = ds = [d for d in n.dependents if d in nodes]
                if ds and n.assignable:
                    redef_name[n] = self.names.fresh("redef_" + mangle(n))

        # init functions, one per distinct l-value that has any registration
        init_name = {}
        for n in nodes:
            instrs = [Reg(kind, n, fn)] if n in regd else []
            if n in deps:
                instrs.append(Reg("dependency", n, fn, deps.index(n)))
            if n in redef_name:
                instrs.append(Reg("redefinition", n, redef_name[n]))
            if kind == "constraint" and n in regd:
                instrs.append(Reg("apply", n, fn))
            if instrs:
                name = init_name[n] = self.names.fresh("init_" + mangle(n))
                self.add(GenFunction(name, INIT, c.ordinal, instrs))

        # redef functions: re-run the inits of everything this l-value rebinds,
        # through a dependent with no redef function (not storage, contract.py)
        def rebind(n: LvNode, instrs: list) -> list:
            for d in inside[n]:
                if d in init_name:
                    instrs.append(CallGen(init_name[d]))
                if d in redef_name:
                    instrs.append(CallGen(redef_name[d]))
                elif d in inside:
                    rebind(d, instrs)
            return instrs

        for n, rn in redef_name.items():
            self.add(GenFunction(rn, REDEF, c.ordinal, rebind(n, [])))

    # --------------------------------------------------------------- per-scope

    def emit_scope_init(self, scope: str | None, name: str) -> str:
        """The unit init of a scope: the name of a function that calls the
        init functions of its constructs in declaration order."""
        constructs = self.graph.constructs
        instrs = [CallGen(fn.name) for fn in self.functions.values()
                  if fn.kind == INIT and constructs[fn.construct].construct.scope == scope]
        return self.add(GenFunction(self.names.fresh(name), UNIT_INIT, -1, instrs)).name


def lower(unit: ast.Unit, graph: RedefGraph) -> GenUnit:
    """Lower a checked unit to its generated-function form."""
    return Emitter(unit, graph).emit_unit()
