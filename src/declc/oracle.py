"""Brute-force reference interpreter.

Executes a checked unit directly from the syntax tree with no redefinition
graph, no generated functions and no registration machinery: after every
primitive store it rescans all installed declarative constructs and evaluates
their l-value bindings from scratch.  Phase ordering follows the shared
contract module; everything else (l-value decomposition, binding evaluation,
reaction selection) is derived independently here, so differential runs
exercise the incremental implementation end to end.

Emits the same observable trace events as the vm (the ORACLE_VISIBLE kinds);
Install/Cancel/Dormant/Suspend/Resume are implementation artifacts of the
incremental route and are never produced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast, trace as tr
from .checker import UnitInfo
from .contract import Wave, c_div, c_mod
from .errors import RuntimeFault
from .types import BOOL, Array, ClassType, FuncType, Ptr, is_assignable_storage, make_type


# -------------------------------------------------------------------- storage

@dataclass(eq=False)
class OCell:
    name: str
    value: object = None
    block: object = None
    index: int = 0


@dataclass(eq=False)
class OBlock:
    name: str
    cells: list[OCell] = field(default_factory=list)


class OPtr:
    __slots__ = ("block", "offset")

    def __init__(self, block, offset):
        self.block = block
        self.offset = offset

    def __eq__(self, other):
        return (isinstance(other, OPtr) and other.block is self.block
                and other.offset == self.offset)


class OObjPtr:
    __slots__ = ("instance",)

    def __init__(self, instance):
        self.instance = instance

    def __eq__(self, other):
        return isinstance(other, OObjPtr) and other.instance is self.instance


@dataclass(frozen=True)
class OBound:
    instance: object
    name: str


@dataclass(eq=False)
class OInstance:
    cls: str
    name: str
    obj_cell: OCell
    members: dict = field(default_factory=dict)
    n: int = 0              # suspend depth
    updated: bool = False


@dataclass(eq=False)
class OFrame:
    func: str
    locals: dict = field(default_factory=dict)
    owner: OInstance | None = None
    instances: list = field(default_factory=list)


@dataclass(eq=False)
class Installed:
    """One installed declarative construct occurrence."""

    construct: ast.Construct
    owner: OInstance | None
    seq: int


class _Return(Exception):
    def __init__(self, value):
        self.value = value


def _default(t):
    if t == BOOL:
        return False
    if isinstance(t, Ptr):
        return None
    return 0


def _vstr(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        try:
            return str(v)
        except ValueError:  # past the interpreter's int-to-str digit limit
            return hex(v)
    if isinstance(v, OPtr):
        if 0 <= v.offset < len(v.block.cells):
            return "&" + v.block.cells[v.offset].name
        return f"&{v.block.name}[{v.offset}]"
    return "&" + v.instance.name  # an OObjPtr


_OLD, _NEW = ("old:", _vstr), ("new:", _vstr)  # trace details of a store


# ------------------------------------------------------- l-value decomposition

def lv_tokens(e: ast.Expr) -> list[str]:
    """Canonical token string of an expression (member names carry the owner
    cast prefix, so class scopes stay distinct)."""
    if isinstance(e, ast.Name):
        if e.binding is not None and e.binding[0] == "member":
            return ["(", "(", e.binding[1], "*", ")", "owner", ")", "->", e.name]
        return [e.name]
    if isinstance(e, ast.Deref):
        return ["*"] + lv_tokens(e.operand)
    if isinstance(e, ast.Index):
        return lv_tokens(e.base) + ["["] + lv_tokens(e.index) + ["]"]
    if isinstance(e, ast.Dot):
        return lv_tokens(e.obj) + [".", e.member]
    if isinstance(e, ast.Arrow):
        return lv_tokens(e.obj) + ["->", e.member]
    if isinstance(e, ast.IntLit):
        return [str(e.value)]
    if isinstance(e, ast.BoolLit):
        return ["true" if e.value else "false"]
    if isinstance(e, ast.NullLit):
        return ["null"]
    if isinstance(e, ast.AddrOf):
        return ["&"] + lv_tokens(e.operand)
    if isinstance(e, ast.Unary):
        return [e.op] + lv_tokens(e.operand)
    if isinstance(e, ast.Binary):
        return lv_tokens(e.left) + [e.op] + lv_tokens(e.right)
    out = lv_tokens(e.callee) + ["("]  # a call
    for k, a in enumerate(e.args):
        if k:
            out.append(",")
        out += lv_tokens(a)
    out.append(")")
    return out


def lv_str(e: ast.Expr) -> str:
    return "".join(lv_tokens(e))


def _is_sublist(a: list, b: list) -> bool:
    if len(a) > len(b):
        return False
    return any(b[i:i + len(a)] == a for i in range(len(b) - len(a) + 1))


def all_lvalues(e: ast.Expr, out=None) -> list[ast.Expr]:
    """Every l-value subexpression, in left-to-right completion order."""
    if out is None:
        out = []
    for child in _children(e):
        all_lvalues(child, out)
    if ast.is_lvalue_form(e):
        out.append(e)
    return out


def _children(e: ast.Expr):
    if isinstance(e, ast.Name) or not isinstance(e, ast.Expr):
        return []
    if isinstance(e, (ast.Deref, ast.AddrOf, ast.Unary)):
        return [e.operand]
    if isinstance(e, ast.Index):
        return [e.base, e.index]
    if isinstance(e, (ast.Dot, ast.Arrow)):
        return [e.obj]
    if isinstance(e, ast.Binary):
        return [e.left, e.right]
    if isinstance(e, ast.Call):
        # a free function's name is no l-value (contract.py); a method's
        # callee denotes its object
        callee = e.callee
        if isinstance(callee, ast.Name) and callee.binding[0] == "func":
            return list(e.args)
        return [callee] + list(e.args)
    return []


def top_lvalues(e: ast.Expr) -> list[ast.Expr]:
    """Maximal l-values of an expression: collect every l-value occurrence,
    keep the first occurrence per canonical string, and drop any whose token
    string is contained in another's."""
    seen: dict[str, tuple[list[str], ast.Expr]] = {}
    for lv in all_lvalues(e):
        toks = lv_tokens(lv)
        s = "".join(toks)
        if s not in seen:
            seen[s] = (toks, lv)
    items = list(seen.values())
    return [lv for toks, lv in items
            if not any(other != toks and _is_sublist(toks, other)
                       for other, _ in items)]


def sub_lvalues(e: ast.Expr) -> list[ast.Expr]:
    """Strict l-value constituents of an l-value (its rebinding triggers)."""
    out = []
    for child in _children(e):
        all_lvalues(child, out)
    return out


# --------------------------------------------------------------------- oracle

class Oracle:
    def __init__(self, unit: ast.Unit, info: UnitInfo,
                 sink: tr.TraceSink | None = None):
        self.unit = unit
        self.info = info
        self.trace = sink if sink is not None else tr.TraceSink()
        self.globals: dict[str, object] = {}
        self.installed: list[Installed] = []
        self.owner_of: dict[int, OInstance] = {}  # cell id -> notified instance
        self.disabled: set[int] = set()           # cells with monitor running
        self.wave = Wave()
        self._seq = 0
        self._call_seq = 0
        self._class_constructs: dict[str, list[ast.Construct]] = {
            c.name: list(c.constructs) for c in unit.classes}

    def emit(self, kind, lvalue="", cell="", detail="", value=None):
        self.trace.emit(kind, lvalue, cell, detail, value)

    # ------------------------------------------------------------- allocation

    def _alloc_global(self, d: ast.VarDecl):
        t = self.info.globals[d.name]
        if isinstance(t, Array):
            blk = OBlock(d.name)
            blk.cells = [OCell(f"{d.name}[{k}]", _default(t.elem), blk, k)
                         for k in range(t.size)]
            self.globals[d.name] = blk
        elif isinstance(t, ClassType):
            self.globals[d.name] = self._alloc_instance(t.name, d.name)
        else:
            blk = OBlock(d.name)
            cell = OCell(d.name, _default(t), blk, 0)
            blk.cells = [cell]
            self.globals[d.name] = cell

    def _alloc_instance(self, cls_name: str, name: str) -> OInstance:
        ci = self.info.classes[cls_name]
        inst = OInstance(cls_name, name, OCell(name))
        for m in ci.member_order:
            mt = ci.members[m]
            if isinstance(mt, ClassType):
                inst.members[m] = self._alloc_instance(mt.name, f"{name}.{m}")
            else:
                blk = OBlock(f"{name}.{m}")
                cell = OCell(blk.name, _default(mt), blk, 0)
                blk.cells = [cell]
                inst.members[m] = cell
        return inst

    def _construct_instance(self, inst: OInstance):
        for m in inst.members.values():
            if isinstance(m, OInstance):
                self._construct_instance(m)
        for m in inst.members.values():
            cell = m.obj_cell if isinstance(m, OInstance) else m
            self.owner_of[id(cell)] = inst
        for c in self._class_constructs.get(inst.cls, []):
            self._install(c, inst)

    def _destroy_instance(self, inst: OInstance):
        self.installed = [k for k in self.installed if k.owner is not inst]
        for m in inst.members.values():
            cell = m.obj_cell if isinstance(m, OInstance) else m
            self.owner_of.pop(id(cell), None)
        for m in inst.members.values():
            if isinstance(m, OInstance):
                self._destroy_instance(m)

    def _install(self, c: ast.Construct, owner: OInstance | None):
        self._seq += 1
        inst = Installed(c, owner, self._seq)
        self.installed.append(inst)
        if isinstance(c, ast.Constraint):
            self._apply(inst, via_resolution=False)

    # -------------------------------------------------------------- top level

    def load(self):
        for d in self.unit.globals:
            self._alloc_global(d)
        fr = OFrame("<global>")
        for d in self.unit.globals:
            target = self.globals[d.name]
            if isinstance(target, OInstance):
                self._construct_instance(target)
            elif d.init is not None:
                self.store(target, self.eval(d.init, fr))
        for c in self.unit.constructs:
            if c.scope is None:
                self._install(c, None)
        return self

    def run(self) -> int:
        if "main" not in self.info.functions:
            raise RuntimeFault("program has no 'main' function")
        self.call_function("main", [])
        return 0

    def memory_snapshot(self) -> dict[str, str]:
        def snap(v, out):
            if isinstance(v, OCell):
                out[v.name] = _vstr(v.value)
            elif isinstance(v, OBlock):
                for c in v.cells:
                    out[c.name] = _vstr(c.value)
            elif isinstance(v, OInstance):
                for m in v.members.values():
                    snap(m, out)

        out: dict[str, str] = {}
        for v in self.globals.values():
            snap(v, out)
        return out

    # ------------------------------------------------------------- the phases

    def store(self, cell: OCell, value):
        self.wave.enter()
        try:
            # rendered when the event is built; stored values never change
            self.emit(tr.BEFORE_CHANGE, "", cell.name, _OLD, cell.value)
            cell.value = value
            self.emit(tr.AFTER_CHANGE, "", cell.name, _NEW, value)
            self.react(cell)
        finally:
            self.wave.exit()

    def react(self, cell: OCell):
        self._phase_reapply(cell)
        self._phase_monitor(cell)
        self._phase_resolve(cell)
        self._phase_precond(cell)

    def _owner_frame(self, inst: Installed) -> OFrame:
        return OFrame("<construct>", owner=inst.owner)

    def _try_cell(self, e: ast.Expr, fr: OFrame) -> OCell | None:
        try:
            return self.lv_cell(e, fr)
        except RuntimeFault:
            return None

    def _phase_reapply(self, cell: OCell):
        """A write to a cell currently denoted by a constituent of some
        constraint's left side that is assignable storage rebinds that side
        and re-applies the assignment (install semantics).  Any other
        constituent is never written (contract.py)."""
        for inst in list(self.installed):
            c = inst.construct
            if not isinstance(c, ast.Constraint):
                continue
            fr = self._owner_frame(inst)
            for anc in sub_lvalues(c.lhs):
                if is_assignable_storage(anc.ty) and self._try_cell(anc, fr) is cell:
                    self._apply(inst, via_resolution=False)
                    break

    def _phase_monitor(self, cell: OCell):
        if id(cell) not in self.disabled:
            hits = [inst for inst in self.installed
                    if isinstance(inst.construct, ast.Monitor)
                    and self._try_cell(inst.construct.lhs,
                                       self._owner_frame(inst)) is cell]
            if hits:
                inst = hits[-1]   # most recent registration wins
                self.disabled.add(id(cell))
                try:
                    self.emit(tr.MONITOR_FIRED, lv_str(inst.construct.lhs),
                              cell.name, f"construct:{inst.construct.ordinal}")
                    self._run_body(inst.construct.body, inst.owner,
                                   "<monitor>")
                finally:
                    self.disabled.discard(id(cell))
        owner = self.owner_of.get(id(cell))
        if owner is not None:
            self._object_updated(owner)

    def _object_updated(self, inst: OInstance):
        if inst.n > 0:
            if not inst.updated:
                inst.updated = True
                self.emit(tr.BEFORE_CHANGE, "", inst.obj_cell.name,
                          "object-update")
        else:
            self.emit(tr.BEFORE_CHANGE, "", inst.obj_cell.name, "object-update")
            self.emit(tr.AFTER_CHANGE, "", inst.obj_cell.name, "object-update")
            self.react(inst.obj_cell)

    def _phase_resolve(self, cell: OCell):
        edges = []
        for inst in self.installed:
            c = inst.construct
            if not isinstance(c, ast.Constraint):
                continue
            fr = self._owner_frame(inst)
            for j, lv in enumerate(top_lvalues(c.rhs)):
                if self._try_cell(lv, fr) is cell:
                    edges.append((inst.seq, j, inst, lv))
        for _, _, inst, lv in sorted(edges, key=lambda t: (t[0], t[1])):
            if self._try_cell(lv, self._owner_frame(inst)) is not cell:
                continue   # rebound by an earlier firing in this wave
            self._apply(inst, via_resolution=True)

    def _phase_precond(self, cell: OCell):
        for inst in list(self.installed):
            c = inst.construct
            if not isinstance(c, ast.Precond):
                continue
            fr = self._owner_frame(inst)
            for lv in top_lvalues(c.cond):
                if self._try_cell(lv, fr) is cell:
                    self._test_precond(inst)

    def _test_precond(self, inst: Installed):
        c = inst.construct
        fr = OFrame("<tester>", owner=inst.owner)
        v = bool(self.eval(c.cond, fr))
        self.emit(tr.PRECOND_EVAL, lv_str(c.cond), "",
                  f"construct:{c.ordinal}:{_vstr(v)}")
        if v:
            self._run_body(c.body, inst.owner, "<tester>")

    def _apply(self, inst: Installed, via_resolution: bool):
        c = inst.construct
        fr = self._owner_frame(inst)
        target = self._try_cell(c.lhs, fr)
        if target is None:
            return
        if via_resolution and self.wave.skip(target):
            return
        if self._top_constraint(target) is not inst:
            return
        if c.guard is not None:
            v = bool(self.eval(c.guard, self._owner_frame(inst)))
            self.emit(tr.GUARD_EVAL, lv_str(c.lhs), "",
                      f"construct:{c.ordinal}:{_vstr(v)}")
            if not v:
                return
        if via_resolution:
            self.wave.mark(target)
        self.emit(tr.CONSTRAINT_APPLIED, lv_str(c.lhs), target.name,
                  f"construct:{c.ordinal}")
        fr2 = self._owner_frame(inst)
        target = self.lv_cell(c.lhs, fr2)
        self.store(target, self.eval(c.rhs, fr2))

    def _top_constraint(self, cell: OCell) -> Installed | None:
        top = None
        for inst in self.installed:
            c = inst.construct
            if isinstance(c, ast.Constraint) \
                    and self._try_cell(c.lhs, self._owner_frame(inst)) is cell:
                top = inst
        return top

    def _run_body(self, body: ast.Block, owner, tag: str):
        frame = OFrame(tag, owner=owner)
        try:
            self.exec_stmt(body, frame)
        finally:
            for i in reversed(frame.instances):
                self._destroy_instance(i)

    # -------------------------------------------------------------- execution

    def _lookup(self, binding, fr: OFrame):
        kind = binding[0]
        if kind == "local":
            return fr.locals[binding[1]]
        if kind == "global":
            return self.globals[binding[1]]
        if kind == "member":
            return fr.owner.members[binding[2]]
        return OBound(fr.owner, binding[2])  # an own method, named as a callee

    def lv_cell(self, e: ast.Expr, fr: OFrame) -> OCell:
        if isinstance(e, ast.Name):
            v = self._lookup(e.binding, fr)
            if isinstance(v, OInstance):
                return v.obj_cell
            if isinstance(v, OBound):
                return v.instance.obj_cell
            return v  # a cell (no checked program asks for an array's name)
        if isinstance(e, ast.Deref):
            v = self.eval(e.operand, fr)
            if v is None:
                raise RuntimeFault("null pointer dereference", e.pos)
            if isinstance(v, OObjPtr):
                return v.instance.obj_cell
            return self._at(v, e.pos)
        if isinstance(e, ast.Index):
            idx = self.eval(e.index, fr)
            if isinstance(e.base.ty, Array):
                blk = self._lookup(e.base.binding, fr)  # an array is a name
                if not (0 <= idx < len(blk.cells)):
                    raise RuntimeFault(f"index {idx} out of bounds", e.pos)
                return blk.cells[idx]
            v = self.eval(e.base, fr)
            if v is None:
                raise RuntimeFault("null pointer indexed", e.pos)
            return self._at(OPtr(v.block, v.offset + idx), e.pos)
        if isinstance(e, ast.Dot):
            return self._member_cell(self.instance_of(e.obj, fr), e.member)
        v = self.eval(e.obj, fr)  # an Arrow
        if v is None:
            raise RuntimeFault("null pointer dereference", e.pos)
        return self._member_cell(v.instance, e.member)

    def _at(self, p: OPtr, pos) -> OCell:
        if not (0 <= p.offset < len(p.block.cells)):
            raise RuntimeFault(f"pointer outside storage '{p.block.name}'", pos)
        return p.block.cells[p.offset]

    def _member_cell(self, inst: OInstance, member: str) -> OCell:
        if member in inst.members:
            m = inst.members[member]
            return m.obj_cell if isinstance(m, OInstance) else m
        return inst.obj_cell  # a method's involvement cell is its object's

    def instance_of(self, e: ast.Expr, fr: OFrame) -> OInstance:
        if isinstance(e, ast.Name):
            v = self._lookup(e.binding, fr)
            if isinstance(v, OInstance):
                return v
        elif isinstance(e, ast.Dot):
            m = self.instance_of(e.obj, fr).members.get(e.member)
            if isinstance(m, OInstance):
                return m
        elif isinstance(e, ast.Arrow):
            v = self.eval(e.obj, fr)
            if isinstance(v, OObjPtr):
                m = v.instance.members.get(e.member)
                if isinstance(m, OInstance):
                    return m
        elif isinstance(e, ast.Deref):
            v = self.eval(e.operand, fr)
            if v is None:
                raise RuntimeFault("null pointer dereference", e.pos)
            if isinstance(v, OObjPtr):
                return v.instance
        raise RuntimeFault("expression does not denote an object", e.pos)

    def eval(self, e: ast.Expr, fr: OFrame):
        if isinstance(e, ast.IntLit):
            return e.value
        if isinstance(e, ast.BoolLit):
            return e.value
        if isinstance(e, ast.NullLit):
            return None
        if isinstance(e, ast.Name):
            return self._lookup(e.binding, fr).value
        if isinstance(e, (ast.Deref, ast.Index)):
            return self.lv_cell(e, fr).value
        if isinstance(e, ast.AddrOf):
            op = e.operand
            if isinstance(op, ast.Name):
                v = self._lookup(op.binding, fr)
                if isinstance(v, OInstance):
                    return OObjPtr(v)
                return OPtr(v.block, v.index)
            if isinstance(op.ty, ClassType):
                return OObjPtr(self.instance_of(op, fr))
            cell = self.lv_cell(op, fr)
            return OPtr(cell.block, cell.index)
        if isinstance(e, ast.Unary):
            v = self.eval(e.operand, fr)
            return -v if e.op == "-" else (not v)
        if isinstance(e, ast.Binary):
            return self._binary(e, fr)
        if isinstance(e, ast.Call):
            return self._call(e, fr)
        if isinstance(e.ty, FuncType):  # a Dot or an Arrow: a method callee
            if isinstance(e, ast.Dot):
                return OBound(self.instance_of(e.obj, fr), e.member)
            v = self.eval(e.obj, fr)
            if v is None:
                raise RuntimeFault("null pointer dereference", e.pos)
            return OBound(v.instance, e.member)
        return self.lv_cell(e, fr).value

    def _binary(self, e: ast.Binary, fr: OFrame):
        op = e.op
        if op == "&&":
            return bool(self.eval(e.left, fr)) and bool(self.eval(e.right, fr))
        if op == "||":
            return bool(self.eval(e.left, fr)) or bool(self.eval(e.right, fr))
        a = self.eval(e.left, fr)
        b = self.eval(e.right, fr)
        if op in ("+", "-"):
            if a is None or b is None:
                raise RuntimeFault("null pointer arithmetic", e.pos)
            if isinstance(a, OPtr) or isinstance(b, OPtr):
                if isinstance(b, OPtr):
                    a, b = b, a
                return OPtr(a.block, a.offset + b if op == "+" else a.offset - b)
        table = {
            "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "/": lambda: c_div(a, b, e.pos), "%": lambda: c_mod(a, b, e.pos),
            "==": lambda: a == b, "!=": lambda: a != b,
            "<": lambda: a < b, ">": lambda: a > b,
            "<=": lambda: a <= b, ">=": lambda: a >= b,
        }
        return table[op]()

    def _call(self, e: ast.Call, fr: OFrame):
        callee = e.callee
        if isinstance(callee, ast.Name) and callee.binding[0] == "func":
            args = [self.eval(a, fr) for a in e.args]
            return self.call_function(callee.binding[1], args)
        if isinstance(callee, ast.Name):  # an own method
            args = [self.eval(a, fr) for a in e.args]
            return self.call_method(fr.owner, callee.binding[2], args)
        target = self.eval(callee, fr)  # an OBound
        args = [self.eval(a, fr) for a in e.args]
        return self.call_method(target.instance, target.name, args)

    def _func_decl(self, name: str, cls: str | None) -> ast.FuncDecl:
        decls = (self.unit.functions if cls is None else
                 next(c.methods for c in self.unit.classes if c.name == cls))
        return next(f for f in decls if f.name == name)

    def _run_func(self, decl: ast.FuncDecl, args, owner):
        self._call_seq += 1
        seq = self._call_seq
        frame = OFrame(decl.name, owner=owner)
        for p, v in zip(decl.params, args):
            blk = OBlock(f"{decl.name}@{seq}:{p.name}")
            cell = OCell(blk.name, v, blk, 0)
            blk.cells = [cell]
            frame.locals[p.name] = cell
        try:
            self.exec_stmt(decl.body, frame)
            ret = None
        except _Return as r:
            ret = r.value
        finally:
            for i in reversed(frame.instances):
                self._destroy_instance(i)
        if ret is None and decl.ret_type != "void":
            ret = _default(make_type(decl.ret_type, decl.ret_ptr_depth))
        return ret

    def call_function(self, name: str, args):
        return self._run_func(self._func_decl(name, None), args, None)

    def call_method(self, inst: OInstance, name: str, args):
        decl = self._func_decl(name, inst.cls)
        inst.n += 1
        try:
            return self._run_func(decl, args, inst)
        finally:
            inst.n -= 1
            if inst.n == 0 and inst.updated:
                inst.updated = False
                self.emit(tr.AFTER_CHANGE, "", inst.obj_cell.name,
                          "object-update")
                self.react(inst.obj_cell)

    def exec_stmt(self, s: ast.Stmt, fr: OFrame):
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
        else:  # a Return
            raise _Return(self.eval(s.value, fr) if s.value else None)

    def _local_decl(self, d: ast.VarDecl, fr: OFrame):
        self._call_seq += 1
        prefix = f"{fr.func}@{self._call_seq}"
        if d.array_size is not None:
            t = make_type(d.base_type, d.ptr_depth)
            blk = OBlock(f"{prefix}:{d.name}")
            blk.cells = [OCell(f"{prefix}:{d.name}[{k}]", _default(t), blk, k)
                         for k in range(d.array_size)]
            fr.locals[d.name] = blk
        elif d.ptr_depth == 0 and d.base_type not in ("int", "bool"):
            inst = self._alloc_instance(d.base_type, f"{prefix}:{d.name}")
            self._construct_instance(inst)
            fr.locals[d.name] = inst
            fr.instances.append(inst)
            return
        else:
            t = make_type(d.base_type, d.ptr_depth)
            blk = OBlock(f"{prefix}:{d.name}")
            cell = OCell(blk.name, _default(t), blk, 0)
            blk.cells = [cell]
            fr.locals[d.name] = cell
        if d.init is not None:
            self.store(fr.locals[d.name], self.eval(d.init, fr))


# ----------------------------------------------------------------- differ

@dataclass
class DiffResult:
    ok: bool
    message: str = ""
    index: int = -1          # position in the visible subsequences
    left: list = field(default_factory=list)    # context around divergence
    right: list = field(default_factory=list)


def _key(e: tr.TraceEvent):
    return (e.kind, e.lvalue, e.cell, e.detail)


def diff_traces(left_events, right_events, context=3) -> DiffResult:
    """Compare the observable subsequences of two runs; reports the first
    divergence with surrounding context from both sides."""
    a = tr.filtered(left_events)
    b = tr.filtered(right_events)
    for i in range(min(len(a), len(b))):
        if _key(a[i]) != _key(b[i]):
            lo = max(0, i - context)
            return DiffResult(
                False,
                f"event {i} differs: {_key(a[i])} vs {_key(b[i])}",
                i, a[lo:i + context + 1], b[lo:i + context + 1])
    if len(a) != len(b):
        i = min(len(a), len(b))
        lo = max(0, i - context)
        return DiffResult(
            False,
            f"trace lengths differ ({len(a)} vs {len(b)} visible events)",
            i, a[lo:i + context + 1], b[lo:i + context + 1])
    return DiffResult(True)


def diff_memory(left: dict, right: dict) -> DiffResult:
    if left == right:
        return DiffResult(True)
    keys = sorted(set(left) | set(right))
    bad = [k for k in keys if left.get(k) != right.get(k)]
    return DiffResult(False, "final memory differs: " + ", ".join(
        f"{k}={left.get(k, '<absent>')}|{right.get(k, '<absent>')}"
        for k in bad[:10]))

