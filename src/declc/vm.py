"""Tree-walking executor for lowered programs.

Every user-visible store routes through the cell write protocol
(before-actions, write, after-actions); generated init/redef functions are
interpreted over the GenUnit, binding l-values to cells at call time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast, codegen, trace as tr
from .checker import UnitInfo
from .codegen import (
    ApplyOnInstall, CallGen, GenUnit, RegConstraint, RegDependency, RegMonitor,
    RegPrecondition, RegRedefinition,
)
from .contract import c_div, c_mod
from .errors import RuntimeFault
from .lvgraph import canonical_str
from .runtime import Cell, ConstraintEntry, Engine, Entry, ObjectHeader
from .types import BOOL, Array, ClassType, FuncType, Ptr, make_type


# -------------------------------------------------------------------- values

@dataclass(eq=False)
class Block:
    name: str
    cells: list[Cell]


class CellPtr:
    """Pointer to a storage cell (element of a block)."""

    __slots__ = ("block", "offset")

    def __init__(self, block: Block, offset: int):
        self.block = block
        self.offset = offset

    def __eq__(self, other):
        return (isinstance(other, CellPtr) and other.block is self.block
                and other.offset == self.offset)

    def __hash__(self):
        return hash((id(self.block), self.offset))

    def deref(self) -> Cell:
        if not (0 <= self.offset < len(self.block.cells)):
            raise RuntimeFault(f"pointer outside storage '{self.block.name}'")
        return self.block.cells[self.offset]


class ObjPtr:
    __slots__ = ("instance",)

    def __init__(self, instance):
        self.instance = instance

    def __eq__(self, other):
        return isinstance(other, ObjPtr) and other.instance is self.instance

    def __hash__(self):
        return hash(id(self.instance))


@dataclass(frozen=True)
class FuncVal:
    name: str


@dataclass(frozen=True)
class BoundMethod:
    instance: object
    name: str


@dataclass(eq=False)
class Instance:
    cls: str
    name: str
    header: ObjectHeader
    obj_cell: Cell
    members: dict = field(default_factory=dict)   # name -> Cell | Instance
    hooks: list = field(default_factory=list)     # (cell, hook) pairs


@dataclass(eq=False)
class Frame:
    func: str
    locals: dict = field(default_factory=dict)
    owner: Instance | None = None
    instances: list = field(default_factory=list)


class ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


def value_str(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        try:
            return str(v)
        except ValueError:  # past the interpreter's int-to-str digit limit
            return hex(v)
    if isinstance(v, CellPtr):
        try:
            return "&" + v.deref().name
        except RuntimeFault:
            return f"&{v.block.name}[{v.offset}]"
    if isinstance(v, ObjPtr):
        return "&" + v.instance.name
    if isinstance(v, FuncVal):
        return v.name
    return repr(v)


def _eval_details(ordinal) -> dict[bool, str]:
    """The GuardEval/PrecondEval details of one construct, by outcome."""
    return {v: f"construct:{ordinal}:{value_str(v)}" for v in (False, True)}


_REG_LABELS = {
    RegRedefinition: "redefinition", RegConstraint: "constraint",
    RegDependency: "dependency", RegMonitor: "monitor",
    RegPrecondition: "precondition",
}


def default_value(t):
    if t == BOOL:
        return False
    if isinstance(t, Ptr):
        return None
    return 0


# ------------------------------------------------------------------- machine

class Machine:
    def __init__(self, gen: GenUnit, info: UnitInfo, sink: tr.TraceSink | None = None):
        self.gen = gen
        self.unit = gen.unit
        self.info = info
        self.trace = sink if sink is not None else tr.TraceSink()
        self.engine = Engine(self.trace)
        self.globals: dict[str, object] = {}
        self.func_cells: dict[str, Cell] = {}
        self.frames: list[Frame] = []
        self.instances: list[Instance] = []
        self.dormant: set[tuple] = set()
        self._entries: dict[tuple, Entry] = {}
        self._decls: dict[tuple, ast.FuncDecl] = {
            (None, f.name): f for f in self.unit.functions}
        self._decls.update({(c.name, f.name): f for c in self.unit.classes
                            for f in c.methods})
        # the Install/Cancel detail of each registration instruction
        self._reg_details: dict[tuple[str, int], str] = {
            (fn.name, idx): f"{_REG_LABELS[type(ins)]}:construct:{fn.construct}"
            for fn in gen.functions.values()
            for idx, ins in enumerate(fn.instrs) if type(ins) in _REG_LABELS}
        self._seq = 0
        self._call_seq = 0
        self.loaded = False

    # ----------------------------------------------------------- allocation

    def _alloc_global(self, d: ast.VarDecl):
        if d.array_size is not None:
            block = Block(d.name, [])
            block.cells = [Cell(f"{d.name}[{k}]",
                                default_value(self.info.globals[d.name].elem),
                                block=None, index=k)
                           for k in range(d.array_size)]
            for c in block.cells:
                c.block = block
            self.globals[d.name] = block
        elif isinstance(self.info.globals[d.name], ClassType):
            self.globals[d.name] = self._alloc_instance(d.base_type, d.name)
        else:
            block = Block(d.name, [])
            cell = Cell(d.name, default_value(self.info.globals[d.name]),
                        block=block, index=0)
            block.cells = [cell]
            self.globals[d.name] = cell

    def _alloc_instance(self, cls_name: str, name: str) -> Instance:
        ci = self.info.classes[cls_name]
        inst = Instance(cls_name, name, ObjectHeader(), Cell(name))
        for m in ci.member_order:
            mt = ci.members[m]
            if isinstance(mt, ClassType):
                inst.members[m] = self._alloc_instance(mt.name, f"{name}.{m}")
            else:
                block = Block(f"{name}.{m}", [])
                cell = Cell(f"{name}.{m}", default_value(mt), block=block, index=0)
                block.cells = [cell]
                inst.members[m] = cell
        return inst

    def _construct_instance(self, inst: Instance):
        """Constructor protocol: nested ctors, member update monitors, then
        the class-scope unit init with this instance as owner."""
        for m in inst.members.values():
            if isinstance(m, Instance):
                self._construct_instance(m)
        for m in inst.members.values():
            cell = m.obj_cell if isinstance(m, Instance) else m
            hook = self._make_update_hook(inst)
            cell.update_hooks.append(hook)
            inst.hooks.append((cell, hook))
        plan = self.gen.classes.get(inst.cls)
        if plan is not None:
            self.run_genfn(plan.unit_init, inst, True)
        self.instances.append(inst)

    def _destroy_instance(self, inst: Instance):
        plan = self.gen.classes.get(inst.cls)
        if plan is not None:
            self.run_genfn(plan.unit_init, inst, False)
        for cell, hook in inst.hooks:
            cell.update_hooks.remove(hook)
        inst.hooks.clear()
        for m in inst.members.values():
            if isinstance(m, Instance):
                self._destroy_instance(m)
        if inst in self.instances:
            self.instances.remove(inst)

    def _make_update_hook(self, inst: Instance):
        def hook():
            if inst.header.n > 0:
                self.engine.set_updated(inst.header, inst.obj_cell)
            else:
                # member changed outside any method (constraint/monitor body):
                # the update is externally visible immediately
                self.trace.emit(tr.BEFORE_CHANGE, "", inst.obj_cell.name,
                                "object-update")
                self.engine.actions_before_change(inst.obj_cell)
                self.trace.emit(tr.AFTER_CHANGE, "", inst.obj_cell.name,
                                "object-update")
                self.engine.actions_after_change(inst.obj_cell)
        return hook

    def func_cell(self, name: str) -> Cell:
        if name not in self.func_cells:
            self.func_cells[name] = Cell(f"func:{name}", FuncVal(name))
        return self.func_cells[name]

    # ----------------------------------------------------------------- load

    def load(self):
        """Allocate globals, run initializers and constructors in declaration
        order, then install file-scope constructs (applying constraints)."""
        for d in self.unit.globals:
            self._alloc_global(d)
        fr = Frame("<global>")
        for d in self.unit.globals:
            target = self.globals[d.name]
            if isinstance(target, Instance):
                self._construct_instance(target)
            elif d.init is not None:
                self.store(target, self.eval(d.init, fr))
        self.run_genfn(self.gen.unit_init, None, True)
        self.loaded = True
        return self

    def teardown(self):
        """Cancel every installed registration (reverse of install order)."""
        self.run_genfn(self.gen.unit_init, None, False)
        for inst in [i for i in reversed(self.instances)
                     if "." not in i.name]:  # nested members via their parent
            self._destroy_instance(inst)

    def run(self) -> int:
        if not self.loaded:
            self.load()
        if "main" not in self.info.functions:
            raise RuntimeFault("program has no 'main' function")
        self.call_function("main", [])
        self.teardown()
        return 0

    # ---------------------------------------------------------------- stores

    def store(self, cell: Cell, value):
        self.engine.wave.enter()
        try:
            # rendered when the event is built: a stored value (int, bool,
            # None, CellPtr, ObjPtr) never renders differently later
            self.trace.emit(tr.BEFORE_CHANGE, "", cell.name,
                            ("old:", value_str, cell.value))
            self.engine.actions_before_change(cell)
            cell.value = value
            self.trace.emit(tr.AFTER_CHANGE, "", cell.name,
                            ("new:", value_str, value))
            self.engine.actions_after_change(cell)
        finally:
            self.engine.wave.exit()

    # ------------------------------------------------------------ evaluation

    def _lookup(self, binding, fr: Frame):
        kind = binding[0]
        if kind == "local":
            return fr.locals[binding[1]]
        if kind == "global":
            return self.globals[binding[1]]
        if kind == "member":
            if fr.owner is None:
                raise RuntimeFault(f"member '{binding[2]}' accessed without owner")
            return fr.owner.members[binding[2]]
        if kind == "func":
            return FuncVal(binding[1])
        if kind == "method":
            if fr.owner is None:
                raise RuntimeFault(f"method '{binding[2]}' accessed without owner")
            return BoundMethod(fr.owner, binding[2])
        raise RuntimeFault(f"unresolvable name binding {binding!r}")

    def lv_cell(self, e: ast.Expr, fr: Frame) -> Cell:
        """Evaluate an l-value to the single cell it currently denotes."""
        if isinstance(e, ast.Name):
            v = self._lookup(e.binding, fr)
            if isinstance(v, Cell):
                return v
            if isinstance(v, Instance):
                return v.obj_cell
            if isinstance(v, FuncVal):
                return self.func_cell(v.name)
            if isinstance(v, BoundMethod):
                return v.instance.obj_cell
            if isinstance(v, Block):
                raise RuntimeFault(f"array '{e.name}' is not a single storage cell",
                                   e.pos)
            raise RuntimeFault(f"'{e.name}' does not denote storage", e.pos)
        if isinstance(e, ast.Deref):
            v = self.eval(e.operand, fr)
            if v is None:
                raise RuntimeFault("null pointer dereference", e.pos)
            if isinstance(v, ObjPtr):
                return v.instance.obj_cell
            if not isinstance(v, CellPtr):
                raise RuntimeFault("dereference of a non-pointer value", e.pos)
            return v.deref()
        if isinstance(e, ast.Index):
            idx = self.eval(e.index, fr)
            base = e.base
            if isinstance(base.ty, Array):
                block = self._block_of(base, fr)
                if not (0 <= idx < len(block.cells)):
                    raise RuntimeFault(
                        f"index {idx} out of bounds for '{block.name}'", e.pos)
                return block.cells[idx]
            v = self.eval(base, fr)
            if v is None:
                raise RuntimeFault("null pointer indexed", e.pos)
            if not isinstance(v, CellPtr):
                raise RuntimeFault("indexing a non-pointer value", e.pos)
            return CellPtr(v.block, v.offset + idx).deref()
        if isinstance(e, ast.Dot):
            inst = self.instance_of(e.obj, fr)
            return self._member_cell(inst, e.member, e.pos)
        if isinstance(e, ast.Arrow):
            v = self.eval(e.obj, fr)
            if v is None:
                raise RuntimeFault("null pointer dereference", e.pos)
            if not isinstance(v, ObjPtr):
                raise RuntimeFault("'->' on a non-object pointer", e.pos)
            return self._member_cell(v.instance, e.member, e.pos)
        if isinstance(e, (ast.DotStar, ast.ArrowStar)):
            raise RuntimeFault("unsupported construct: pointer-to-member access",
                               e.pos)
        raise RuntimeFault(f"not an l-value: {type(e).__name__}", e.pos)

    def _member_cell(self, inst: Instance, member: str, pos) -> Cell:
        if member in inst.members:
            m = inst.members[member]
            return m.obj_cell if isinstance(m, Instance) else m
        # public method: its involvement cell is the owning object
        if member in self.info.classes[inst.cls].methods:
            return inst.obj_cell
        raise RuntimeFault(f"no member '{member}' in class '{inst.cls}'", pos)

    def _block_of(self, e: ast.Expr, fr: Frame) -> Block:
        if isinstance(e, ast.Name):
            v = self._lookup(e.binding, fr)
            if isinstance(v, Block):
                return v
        raise RuntimeFault("expected an array", e.pos)

    def instance_of(self, e: ast.Expr, fr: Frame) -> Instance:
        if isinstance(e, ast.Name):
            v = self._lookup(e.binding, fr)
            if isinstance(v, Instance):
                return v
        elif isinstance(e, ast.Dot):
            inst = self.instance_of(e.obj, fr)
            m = inst.members.get(e.member)
            if isinstance(m, Instance):
                return m
        elif isinstance(e, ast.Arrow):
            v = self.eval(e.obj, fr)
            if isinstance(v, ObjPtr):
                m = v.instance.members.get(e.member)
                if isinstance(m, Instance):
                    return m
        elif isinstance(e, ast.Deref):
            v = self.eval(e.operand, fr)
            if v is None:
                raise RuntimeFault("null pointer dereference", e.pos)
            if isinstance(v, ObjPtr):
                return v.instance
        raise RuntimeFault("expression does not denote an object", e.pos)

    def eval(self, e: ast.Expr, fr: Frame):
        if isinstance(e, ast.IntLit):
            return e.value
        if isinstance(e, ast.BoolLit):
            return e.value
        if isinstance(e, ast.NullLit):
            return None
        if isinstance(e, ast.Name):
            v = self._lookup(e.binding, fr)
            if isinstance(v, Cell):
                return v.value
            if isinstance(v, (FuncVal, BoundMethod)):
                return v
            if isinstance(v, Instance):
                raise RuntimeFault(f"object '{e.name}' used as a value", e.pos)
            raise RuntimeFault(f"array '{e.name}' used as a value", e.pos)
        if isinstance(e, ast.Deref):
            return self.lv_cell(e, fr).value
        if isinstance(e, ast.Index):
            return self.lv_cell(e, fr).value
        if isinstance(e, ast.AddrOf):
            op = e.operand
            if isinstance(op, ast.Name):
                v = self._lookup(op.binding, fr)
                if isinstance(v, Instance):
                    return ObjPtr(v)
                if isinstance(v, Cell):
                    return CellPtr(v.block, v.index)
                raise RuntimeFault("cannot take this address", e.pos)
            cell = self.lv_cell(op, fr)
            return CellPtr(cell.block, cell.index)
        if isinstance(e, ast.Unary):
            v = self.eval(e.operand, fr)
            return -v if e.op == "-" else (not v)
        if isinstance(e, ast.Binary):
            return self._binary(e, fr)
        if isinstance(e, ast.Call):
            return self._call(e, fr)
        if isinstance(e, ast.Dot):
            m = self._member_value(e, fr)
            return m
        if isinstance(e, ast.Arrow):
            return self._member_value(e, fr)
        if isinstance(e, (ast.DotStar, ast.ArrowStar)):
            raise RuntimeFault("unsupported construct: pointer-to-member access",
                               e.pos)
        raise RuntimeFault(f"cannot evaluate {type(e).__name__}", e.pos)

    def _member_value(self, e, fr):
        if isinstance(e.ty, FuncType):
            if isinstance(e, ast.Dot):
                return BoundMethod(self.instance_of(e.obj, fr), e.member)
            v = self.eval(e.obj, fr)
            if v is None:
                raise RuntimeFault("null pointer dereference", e.pos)
            return BoundMethod(v.instance, e.member)
        return self.lv_cell(e, fr).value

    def _binary(self, e: ast.Binary, fr: Frame):
        op = e.op
        if op == "&&":
            return bool(self.eval(e.left, fr)) and bool(self.eval(e.right, fr))
        if op == "||":
            return bool(self.eval(e.left, fr)) or bool(self.eval(e.right, fr))
        a = self.eval(e.left, fr)
        b = self.eval(e.right, fr)
        if op == "+":
            if isinstance(a, CellPtr):
                return CellPtr(a.block, a.offset + b)
            if isinstance(b, CellPtr):
                return CellPtr(b.block, b.offset + a)
            return a + b
        if op == "-":
            if isinstance(a, CellPtr):
                return CellPtr(a.block, a.offset - b)
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return c_div(a, b, e.pos)
        if op == "%":
            return c_mod(a, b, e.pos)
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == ">":
            return a > b
        if op == "<=":
            return a <= b
        if op == ">=":
            return a >= b
        raise RuntimeFault(f"unknown operator {op}", e.pos)

    # ----------------------------------------------------------------- calls

    def _call(self, e: ast.Call, fr: Frame):
        callee = e.callee
        if isinstance(callee, ast.Name) and callee.binding[0] == "func":
            args = [self.eval(a, fr) for a in e.args]
            return self.call_function(callee.binding[1], args)
        if isinstance(callee, ast.Name) and callee.binding[0] == "method":
            if fr.owner is None:
                raise RuntimeFault("method call without owner", e.pos)
            args = [self.eval(a, fr) for a in e.args]
            return self.call_method(fr.owner, callee.binding[2], args)
        target = self.eval(callee, fr)
        args = [self.eval(a, fr) for a in e.args]
        if isinstance(target, FuncVal):
            return self.call_function(target.name, args)
        if isinstance(target, BoundMethod):
            return self.call_method(target.instance, target.name, args)
        raise RuntimeFault("call of a non-function value", e.pos)

    def _func_decl(self, name: str, cls: str | None) -> ast.FuncDecl:
        decl = self._decls.get((cls, name))
        if decl is None:
            raise RuntimeFault(f"undefined function '{name}'")
        return decl

    def _run_body(self, decl: ast.FuncDecl, args, owner):
        self._call_seq += 1
        seq = self._call_seq
        frame = Frame(decl.name, owner=owner)
        for p, v in zip(decl.params, args):
            block = Block(f"{decl.name}@{seq}:{p.name}", [])
            cell = Cell(block.name, v, block=block, index=0)
            block.cells = [cell]
            frame.locals[p.name] = cell
        self.frames.append(frame)
        try:
            self.exec_stmt(decl.body, frame)
            ret = None
        except ReturnSignal as r:
            ret = r.value
        finally:
            for inst in reversed(frame.instances):
                self._destroy_instance(inst)
            self.frames.pop()
        if ret is None and decl.ret_type != "void":
            ret = default_value(make_type(decl.ret_type, decl.ret_ptr_depth))
        return ret

    def call_function(self, name: str, args):
        return self._run_body(self._func_decl(name, None), args, None)

    def call_method(self, inst: Instance, name: str, args):
        decl = self._func_decl(name, inst.cls)
        self.engine.suspend(inst.header, inst.obj_cell)
        try:
            return self._run_body(decl, args, inst)
        finally:
            self.engine.resume(inst.header, inst.obj_cell)

    # ------------------------------------------------------------ statements

    def exec_stmt(self, s: ast.Stmt, fr: Frame):
        if isinstance(s, ast.Block):
            for st in s.stmts:
                self.exec_stmt(st, fr)
        elif isinstance(s, ast.VarDecl):
            self._local_decl(s, fr)
        elif isinstance(s, ast.Assign):
            cell = self.lv_cell(s.target, fr)
            self.store(cell, self.eval(s.value, fr))
        elif isinstance(s, ast.ExprStmt):
            self.eval(s.expr, fr)
        elif isinstance(s, ast.If):
            if self.eval(s.cond, fr):
                self.exec_stmt(s.then, fr)
            elif s.orelse is not None:
                self.exec_stmt(s.orelse, fr)
        elif isinstance(s, ast.While):
            while self.eval(s.cond, fr):
                self.exec_stmt(s.body, fr)
        elif isinstance(s, ast.Return):
            raise ReturnSignal(self.eval(s.value, fr) if s.value else None)
        else:
            raise RuntimeFault(f"cannot execute {type(s).__name__}", s.pos)

    def _local_decl(self, d: ast.VarDecl, fr: Frame):
        self._call_seq += 1
        prefix = f"{fr.func}@{self._call_seq}"
        if d.array_size is not None:
            t = make_type(d.base_type, d.ptr_depth)
            block = Block(f"{prefix}:{d.name}", [])
            block.cells = [Cell(f"{prefix}:{d.name}[{k}]", default_value(t),
                                block=block, index=k)
                           for k in range(d.array_size)]
            fr.locals[d.name] = block
        elif d.ptr_depth == 0 and d.base_type not in ("int", "bool"):
            inst = self._alloc_instance(d.base_type, f"{prefix}:{d.name}")
            self._construct_instance(inst)
            fr.locals[d.name] = inst
            fr.instances.append(inst)
            return
        else:
            t = make_type(d.base_type, d.ptr_depth)
            block = Block(f"{prefix}:{d.name}", [])
            cell = Cell(block.name, default_value(t), block=block, index=0)
            block.cells = [cell]
            fr.locals[d.name] = cell
        if d.init is not None:
            self.store(fr.locals[d.name], self.eval(d.init, fr))

    # -------------------------------------------------- generated functions

    def run_genfn(self, name: str, owner, b: bool):
        fn = self.gen.functions[name]
        fr = Frame("<gen>", owner=owner)
        for idx, ins in enumerate(fn.instrs):
            if isinstance(ins, CallGen):
                self.run_genfn(ins.fn, owner, b)
                continue
            if isinstance(ins, ApplyOnInstall):
                if b:
                    self.engine.fire(self.constraint_entry(fn.construct, owner),
                                     via_resolution=False)
                continue
            self._run_reg(fn, idx, ins, owner, b, fr)

    def _run_reg(self, fn, idx, ins, owner, b, fr: Frame):
        key = (fn.name, idx, id(owner))
        if not b and key in self.dormant:
            self.dormant.discard(key)
            return
        lv = ins.from_lv if isinstance(ins, RegDependency) else ins.lv
        try:
            cell = self.lv_cell(lv.expr, fr)
        except RuntimeFault as f:
            if b:
                self.dormant.add(key)
                self.trace.emit(tr.DORMANT, lv.str, "",
                                f"construct:{fn.construct}:{f.msg}")
                return
            raise
        self.dormant.discard(key)
        if isinstance(ins, RegRedefinition):
            entry = self.redef_entry(ins.fn, owner, lv.str, fn.construct)
            self.engine.handle_redefinition(cell, entry, b)
        elif isinstance(ins, RegConstraint):
            entry = self.constraint_entry(fn.construct, owner)
            self.engine.handle_constraint(cell, entry, b)
        elif isinstance(ins, RegDependency):
            entry = self.constraint_entry(fn.construct, owner)
            self.engine.handle_dependency(cell, entry, ins.lv_ordinal, b)
        elif isinstance(ins, RegMonitor):
            entry = self.monitor_entry(fn.construct, owner)
            self.engine.handle_monitor(cell, entry, b)
        elif isinstance(ins, RegPrecondition):
            entry = self.precond_entry(fn.construct, owner)
            self.engine.handle_precondition(cell, entry, b)
        else:
            raise RuntimeFault(f"unknown generated instruction {ins!r}")
        self.trace.emit(tr.INSTALL if b else tr.CANCEL, lv.str, cell.name,
                        self._reg_details[fn.name, idx])

    # ------------------------------------------------------ runtime entries

    def redef_entry(self, fn_name, owner, lvstr, construct) -> Entry:
        key = ("redef", fn_name, id(owner))
        if key not in self._entries:
            self._entries[key] = Entry(
                fn_name, owner,
                invoke=lambda b: self.run_genfn(fn_name, owner, b),
                lvalue=lvstr, construct=construct)
        return self._entries[key]

    def constraint_entry(self, ordinal, owner) -> ConstraintEntry:
        key = ("constraint", ordinal, id(owner))
        if key not in self._entries:
            plan = self.gen.plans[ordinal]
            c = self._construct_decl(ordinal)
            self._seq += 1
            # evaluating an expression adds nothing to its frame (a call gets
            # its own), so target, guard and apply can share one
            fr = Frame("<gen>", owner=owner)
            guard_details = _eval_details(ordinal)

            def target():
                return self.lv_cell(plan.lhs.expr, fr)

            def guard():
                v = bool(self.eval(c.guard, fr))
                self.trace.emit(tr.GUARD_EVAL, plan.lhs.str, "", guard_details[v])
                return v

            def apply(cell):
                self.store(cell, self.eval(c.rhs, fr))

            self._entries[key] = ConstraintEntry(
                plan.assign_fn, owner, lvalue=plan.lhs.str, construct=ordinal,
                seq=self._seq, target=target,
                guard=guard if c.guard is not None else None, apply=apply)
        return self._entries[key]

    def monitor_entry(self, ordinal, owner) -> Entry:
        key = ("monitor", ordinal, id(owner))
        if key not in self._entries:
            plan = self.gen.plans[ordinal]
            c = self._construct_decl(ordinal)

            def invoke():
                frame = Frame(plan.monitor_fn, owner=owner)
                self.frames.append(frame)
                try:
                    self.exec_stmt(c.body, frame)
                finally:
                    for inst in reversed(frame.instances):
                        self._destroy_instance(inst)
                    self.frames.pop()

            self._entries[key] = Entry(plan.monitor_fn, owner, invoke=invoke,
                                       lvalue=plan.lhs.str, construct=ordinal)
        return self._entries[key]

    def precond_entry(self, ordinal, owner) -> Entry:
        key = ("precond", ordinal, id(owner))
        if key not in self._entries:
            plan = self.gen.plans[ordinal]
            c = self._construct_decl(ordinal)
            condstr = canonical_str(c.cond, c.scope)
            details = _eval_details(ordinal)

            def invoke():
                frame = Frame(plan.tester_fn, owner=owner)
                v = bool(self.eval(c.cond, frame))
                self.trace.emit(tr.PRECOND_EVAL, condstr, "", details[v])
                if v:
                    self.frames.append(frame)
                    try:
                        self.exec_stmt(c.body, frame)
                    finally:
                        for inst in reversed(frame.instances):
                            self._destroy_instance(inst)
                        self.frames.pop()

            self._entries[key] = Entry(plan.tester_fn, owner, invoke=invoke,
                                       lvalue=condstr, construct=ordinal)
        return self._entries[key]

    def _construct_decl(self, ordinal) -> ast.Construct:
        return self.gen.graph.constructs[ordinal].construct

    # ------------------------------------------------------------ inspection

    def all_cells(self):
        def from_storage(v):
            if isinstance(v, Cell):
                yield v
            elif isinstance(v, Block):
                yield from v.cells
            elif isinstance(v, Instance):
                yield v.obj_cell
                for m in v.members.values():
                    yield from from_storage(m)

        for v in self.globals.values():
            yield from from_storage(v)
        for frdict in self.frames:
            for v in frdict.locals.values():
                yield from from_storage(v)
        yield from self.func_cells.values()

    def registration_count(self) -> int:
        return (sum(c.registration_count() for c in self.all_cells())
                + len(self.engine.deps))

    def dependency_links(self) -> list[tuple[str, str]]:
        """Current (constraining cell, constrained cell) pairs; the constrained
        side is resolved lazily, mirroring fire-time behavior."""
        out = []
        for key, edge in sorted(self.engine.deps.edges.items()):
            try:
                target = edge.entry.target()
                out.append((edge.from_cell.name, target.name))
            except RuntimeFault:
                out.append((edge.from_cell.name, "<unresolvable>"))
        return out

    def memory_snapshot(self) -> dict[str, str]:
        def snap(v, out):
            if isinstance(v, Cell):
                out[v.name] = value_str(v.value)
            elif isinstance(v, Block):
                for c in v.cells:
                    out[c.name] = value_str(c.value)
            elif isinstance(v, Instance):
                for m in v.members.values():
                    snap(m, out)

        out: dict[str, str] = {}
        for v in self.globals.values():
            snap(v, out)
        return out


# ------------------------------------------------------------------ pipeline

def compile_source(source: str):
    """Front-to-back compilation helper: source text to (GenUnit, UnitInfo)."""
    from .checker import check_or_raise
    from .lvgraph import build_graph
    from .parser import parse_source

    unit = parse_source(source)
    info = check_or_raise(unit)
    graph = build_graph(unit)
    return codegen.lower(unit, graph), info


def load_source(source: str, sink: tr.TraceSink | None = None) -> Machine:
    gen, info = compile_source(source)
    return Machine(gen, info, sink).load()
