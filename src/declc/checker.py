"""Semantic checker: name resolution, typing, construct well-formedness."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .errors import CheckError, Diagnostic
from .printer import expr_str
from .types import (
    BOOL, INT, NULL_T, VOID, Array, ClassType, FuncType, Ptr, Scalar, Type,
    assign_compatible, is_assignable_storage, make_type,
)


@dataclass
class ClassInfo:
    name: str
    members: dict[str, Type] = field(default_factory=dict)
    member_order: list[str] = field(default_factory=list)
    methods: dict[str, FuncType] = field(default_factory=dict)


@dataclass
class UnitInfo:
    """Symbol information gathered while checking a unit."""

    globals: dict[str, Type] = field(default_factory=dict)
    functions: dict[str, FuncType] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


class Checker:
    def __init__(self, unit: ast.Unit):
        self.unit = unit
        self.info = UnitInfo()
        self.diags: list[Diagnostic] = []
        self.cur_class: str | None = None
        self.locals: list[dict[str, Type]] = []
        self.cur_ret: Type | None = VOID  # None in a construct body
        self.declared: set[str] | None = None  # globals so far, in global initializers
        self.calls = 0  # calls checked so far: a constraint with none is pure

    def error(self, pos, msg):
        self.diags.append(Diagnostic(pos, "error", msg))

    # ------------------------------------------------------------ entry point

    def run(self) -> list[Diagnostic]:
        self.collect()
        if self.diags:
            return self.diags
        self.declared = set()
        for d in self.unit.decls:
            if isinstance(d, ast.VarDecl):
                self.declared.add(d.name)
                self.check_global(d)
        self.declared = None
        for f in self.unit.functions:
            self.check_func(f)
        for cls in self.unit.classes:
            self.cur_class = cls.name
            for m in cls.methods:
                self.check_func(m)
            for c in cls.constructs:
                self.check_construct(c)
            self.cur_class = None
        for c in self.unit.constructs:
            if c.scope is None:
                self.check_construct(c)
        return self.diags

    def collect(self):
        for d in self.unit.decls:
            if isinstance(d, ast.VarDecl):
                if d.name in self.info.globals:
                    self.error(d.pos, f"redeclaration of '{d.name}'")
                self.info.globals[d.name] = make_type(d.base_type, d.ptr_depth, d.array_size)
            elif isinstance(d, ast.FuncDecl):
                if d.name in self.info.functions:
                    self.error(d.pos, f"redeclaration of function '{d.name}'")
                self.info.functions[d.name] = self.func_type(d)
            elif isinstance(d, ast.ClassDecl):
                if d.name in self.info.classes:
                    self.error(d.pos, f"redeclaration of class '{d.name}'")
                ci = ClassInfo(d.name)
                for m in d.members:
                    if m.name in ci.members:
                        self.error(m.pos, f"redeclaration of member '{m.name}'")
                    if m.array_size is not None:
                        self.error(m.pos, "array data members are not supported")
                    if m.base_type == d.name and m.ptr_depth == 0:
                        self.error(m.pos, f"'{m.name}': class '{d.name}' cannot contain itself")
                    ci.members[m.name] = make_type(m.base_type, m.ptr_depth)
                    ci.member_order.append(m.name)
                for f in d.methods:
                    if f.name in ci.methods:
                        self.error(f.pos, f"redeclaration of method '{f.name}'")
                    ci.methods[f.name] = self.func_type(f)
                self.info.classes[d.name] = ci

    def func_type(self, f: ast.FuncDecl) -> FuncType:
        params = tuple(make_type(p.base_type, p.ptr_depth) for p in f.params)
        return FuncType(make_type(f.ret_type, f.ret_ptr_depth), params, cls=f.cls)

    # --------------------------------------------------------------- toplevel

    def check_global(self, d: ast.VarDecl):
        t = self.info.globals[d.name]
        self.no_object_array(d, t)
        if d.init is not None:
            if isinstance(t, (Array, ClassType)):
                self.error(d.pos, f"'{d.name}': initializer not allowed for this type")
                return
            it = self.expr(d.init)
            if it is not None and not assign_compatible(t, it):
                self.error(d.pos, f"cannot initialize '{t}' from '{it}'")

    def no_object_array(self, d: ast.VarDecl, t: Type):
        if isinstance(t, Array) and isinstance(t.elem, ClassType):
            self.error(d.pos, f"'{d.name}': arrays of objects are not supported")

    def check_func(self, f: ast.FuncDecl):
        self.cur_ret = make_type(f.ret_type, f.ret_ptr_depth)
        if isinstance(self.cur_ret, ClassType):  # objects do not assign, so none returns
            self.error(f.pos, f"'{f.name}': an object cannot be returned by value")
        frame = {}
        for p in f.params:
            if p.name in frame:
                self.error(f.pos, f"duplicate parameter '{p.name}'")
            frame[p.name] = make_type(p.base_type, p.ptr_depth)
        self.locals = [frame]
        self.block(f.body, new_scope=False)
        self.locals = []

    def check_construct(self, c: ast.Construct):
        self.locals = []
        self.cur_ret = None
        if isinstance(c, ast.Constraint):
            calls = self.calls
            lt = self.expr(c.lhs)
            rt = self.expr(c.rhs)
            if lt is not None:
                if not ast.is_lvalue_form(c.lhs):
                    self.error(c.pos, "left side must be an l-value")
                elif not is_assignable_storage(lt):
                    self.error(c.pos, f"left side of type '{lt}' is not assignable")
                elif rt is not None and not assign_compatible(lt, rt):
                    self.error(c.pos, f"constraint sides are not assignment compatible "
                                      f"('{lt}' := '{rt}')")
            if c.guard is not None:
                gt = self.expr(c.guard)
                if gt is not None and gt != BOOL:
                    self.error(c.pos, f"constraint guard must be bool, got '{gt}'")
            c.pure = self.calls == calls
        elif isinstance(c, ast.Monitor):
            lt = self.expr(c.lhs)
            if lt is not None:
                if not ast.is_lvalue_form(c.lhs):
                    self.error(c.pos, "left side must be an l-value")
                elif not is_assignable_storage(lt):
                    self.error(c.pos, f"monitored l-value of type '{lt}' is not assignable")
            self.locals = [{}]
            self.block(c.body, new_scope=False)
        elif isinstance(c, ast.Precond):
            ct = self.expr(c.cond)
            if ct is not None and ct != BOOL:
                self.error(c.pos, f"precondition must be bool, got '{ct}'")
            self.locals = [{}]
            self.block(c.body, new_scope=False)
        self.locals = []

    # -------------------------------------------------------------- statements

    def block(self, b: ast.Block, new_scope=True):
        if new_scope:
            self.locals.append({})
        for s in b.stmts:
            self.stmt(s)
        if new_scope:
            self.locals.pop()

    def stmt(self, s: ast.Stmt):
        if isinstance(s, ast.Block):
            self.block(s)
        elif isinstance(s, ast.VarDecl):
            scope = self.locals[-1]
            if s.name in scope:
                self.error(s.pos, f"redeclaration of '{s.name}'")
            t = make_type(s.base_type, s.ptr_depth, s.array_size)
            if s.base_type not in ("int", "bool") and s.ptr_depth == 0 \
                    and s.base_type not in self.info.classes:
                self.error(s.pos, f"unknown type '{s.base_type}'")
            self.no_object_array(s, t)
            scope[s.name] = t
            if s.init is not None:
                it = self.expr(s.init)
                if isinstance(t, (Array, ClassType)):
                    self.error(s.pos, f"'{s.name}': initializer not allowed for this type")
                elif it is not None and not assign_compatible(t, it):
                    self.error(s.pos, f"cannot initialize '{t}' from '{it}'")
        elif isinstance(s, ast.Assign):
            tt = self.expr(s.target)
            vt = self.expr(s.value)
            if tt is not None:
                if not ast.is_lvalue_form(s.target):
                    self.error(s.pos, "assignment target must be an l-value")
                elif not is_assignable_storage(tt):
                    self.error(s.pos, f"cannot assign to value of type '{tt}'")
                elif vt is not None and not assign_compatible(tt, vt):
                    self.error(s.pos, f"cannot assign '{vt}' to '{tt}'")
        elif isinstance(s, ast.ExprStmt):
            self.expr(s.expr)
        elif isinstance(s, ast.If):
            ct = self.expr(s.cond)
            if ct is not None and ct != BOOL:
                self.error(s.pos, f"condition must be bool, got '{ct}'")
            self.stmt(s.then)
            if s.orelse is not None:
                self.stmt(s.orelse)
        elif isinstance(s, ast.While):
            ct = self.expr(s.cond)
            if ct is not None and ct != BOOL:
                self.error(s.pos, f"condition must be bool, got '{ct}'")
            self.stmt(s.body)
        elif isinstance(s, ast.Return):
            vt = self.expr(s.value) if s.value is not None else VOID
            if self.cur_ret is None:  # a monitor or tester body has no caller
                self.error(s.pos, "'return' outside a function")
            elif vt is not None and self.cur_ret != VOID \
                    and not assign_compatible(self.cur_ret, vt):
                self.error(s.pos, f"cannot return '{vt}' from function returning "
                                  f"'{self.cur_ret}'")
        else:
            raise TypeError(f"unknown statement {type(s).__name__}")

    # ------------------------------------------------------------- expressions

    def lookup(self, name: str, pos):
        for frame in reversed(self.locals):
            if name in frame:
                return ("local", name), frame[name]
        if self.cur_class is not None:
            ci = self.info.classes[self.cur_class]
            if name in ci.members:
                return ("member", self.cur_class, name), ci.members[name]
            if name in ci.methods:
                return ("method", self.cur_class, name), ci.methods[name]
        if name in self.info.globals:
            if self.declared is not None and name not in self.declared:
                self.error(pos, f"'{name}' is used before its declaration")
            return ("global", name), self.info.globals[name]
        if name in self.info.functions:
            return ("func", name), self.info.functions[name]
        self.error(pos, f"unresolved identifier '{name}'")
        return None, None

    def expr(self, e: ast.Expr) -> Type | None:
        t = self._expr(e)
        e.ty = t
        return t

    def _expr(self, e: ast.Expr) -> Type | None:
        if isinstance(e, ast.IntLit):
            return INT
        if isinstance(e, ast.BoolLit):
            return BOOL
        if isinstance(e, ast.NullLit):
            return NULL_T
        if isinstance(e, ast.Name):
            binding, t = self.lookup(e.name, e.pos)
            e.binding = binding
            return t
        if isinstance(e, ast.Deref):
            t = self.expr(e.operand)
            if t is None:
                return None
            if not isinstance(t, Ptr) or t == NULL_T:
                self.error(e.pos, f"cannot dereference '{t}'")
                return None
            return t.pointee
        if isinstance(e, ast.AddrOf):
            t = self.expr(e.operand)
            if t is None:
                return None
            if not ast.is_lvalue_form(e.operand) or isinstance(t, (Array, FuncType)):
                self.error(e.pos, "cannot take the address of this expression")
                return None
            return Ptr(t)
        if isinstance(e, ast.Unary):
            t = self.expr(e.operand)
            want = INT if e.op == "-" else BOOL
            if t is not None and t != want:
                self.error(e.pos, f"operator '{e.op}' requires '{want}', got '{t}'")
            return want
        if isinstance(e, ast.Binary):
            return self.binary(e)
        if isinstance(e, ast.Call):
            return self.call(e)
        if isinstance(e, ast.Index):
            bt = self.expr(e.base)
            it = self.expr(e.index)
            if it is not None and it != INT:
                self.error(e.pos, f"array index must be int, got '{it}'")
            if bt is None:
                return None
            if isinstance(bt, Array):
                return bt.elem
            if isinstance(bt, Ptr) and isinstance(bt.pointee, ClassType):
                self.error(e.pos, f"cannot index a pointer to an object ('{bt}')")
                return None
            if isinstance(bt, Ptr) and bt != NULL_T:
                return bt.pointee
            self.error(e.pos, f"cannot index a value of type '{bt}'")
            return None
        if isinstance(e, ast.Dot):
            return self.member_access(e, e.obj, e.member, arrow=False)
        if isinstance(e, ast.Arrow):
            return self.member_access(e, e.obj, e.member, arrow=True)
        raise TypeError(f"unknown expression {type(e).__name__}")

    def binary(self, e: ast.Binary) -> Type | None:
        lt = self.expr(e.left)
        rt = self.expr(e.right)
        op = e.op
        if op in ("+", "-", "*", "/", "%"):
            # Pointer arithmetic: ptr + int, int + ptr, ptr - int yield the
            # pointer type (element-granular, like C), but for an object
            # pointer: an object is no element of an array.
            ptr = (lt if op in ("+", "-") and isinstance(lt, Ptr) and rt == INT else
                   rt if op == "+" and isinstance(rt, Ptr) and lt == INT else None)
            if ptr is not None:
                if isinstance(ptr.pointee, ClassType):
                    self.error(e.pos, f"operator '{op}' on a pointer to an object ('{ptr}')")
                    return None
                return ptr
            for t in (lt, rt):
                if t is not None and t != INT:
                    self.error(e.pos, f"operator '{op}' requires int operands, got '{t}'")
            return INT
        if op in ("<", ">", "<=", ">="):
            for t in (lt, rt):
                if t is not None and t != INT:
                    self.error(e.pos, f"operator '{op}' requires int operands, got '{t}'")
            return BOOL
        if op in ("==", "!="):
            if lt is not None and rt is not None:
                ok = lt == rt or (isinstance(lt, Ptr) and rt == NULL_T) \
                    or (isinstance(rt, Ptr) and lt == NULL_T)
                if not ok:
                    self.error(e.pos, f"cannot compare '{lt}' with '{rt}'")
                elif isinstance(lt, ClassType):
                    self.error(e.pos, f"operator '{op}' on objects ('{lt}')")
            return BOOL
        if op in ("&&", "||"):
            for t in (lt, rt):
                if t is not None and t != BOOL:
                    self.error(e.pos, f"operator '{op}' requires bool operands, got '{t}'")
            return BOOL
        raise ValueError(f"unknown operator {op}")

    def call(self, e: ast.Call) -> Type | None:
        self.calls += 1
        ft = self.expr(e.callee)
        if ft is None:
            return None
        if not isinstance(ft, FuncType):
            self.error(e.pos, f"'{expr_str(e.callee)}' is not callable")
            return None
        if len(e.args) != len(ft.params):
            self.error(e.pos, f"expected {len(ft.params)} arguments, got {len(e.args)}")
        for a, pt in zip(e.args, ft.params):
            at = self.expr(a)
            if at is not None and not assign_compatible(pt, at):
                self.error(a.pos, f"cannot pass '{at}' as parameter of type '{pt}'")
        return ft.ret

    def member_access(self, e, obj, member, arrow):
        ot = self.expr(obj)
        if ot is None:
            return None
        if arrow:
            if not isinstance(ot, Ptr) or not isinstance(ot.pointee, ClassType):
                self.error(e.pos, f"'->' requires a pointer to an object, got '{ot}'")
                return None
            cname = ot.pointee.name
        else:
            if not isinstance(ot, ClassType):
                self.error(e.pos, f"'.' requires an object, got '{ot}'")
                return None
            cname = ot.name
        ci = self.info.classes.get(cname)
        if ci is None:
            self.error(e.pos, f"unknown class '{cname}'")
            return None
        if member in ci.methods:
            return ci.methods[member]
        if member in ci.members:
            if self.cur_class != cname:
                self.error(e.pos, f"member '{cname}::{member}' is private")
                return None
            return ci.members[member]
        self.error(e.pos, f"class '{cname}' has no member '{member}'")
        return None


def check(unit: ast.Unit) -> tuple[UnitInfo, list[Diagnostic]]:
    """Check a parsed unit in place; returns symbol info and diagnostics."""
    ch = Checker(unit)
    diags = ch.run()
    return ch.info, diags


def check_or_raise(unit: ast.Unit) -> UnitInfo:
    info, diags = check(unit)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise CheckError(errors)
    return info
