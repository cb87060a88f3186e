"""Syntax tree for HybridC: expressions, statements, declarations, constructs.

L-value expression forms (Name, Deref, Index, Dot, Arrow)
correspond one-to-one with the l-value grammar productions used to build
redefinition graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import NOPOS, Pos


# ---------------------------------------------------------------- expressions

@dataclass(slots=True)
class Expr:
    pos: Pos = field(default=NOPOS, kw_only=True, compare=False)
    ty: object = field(default=None, kw_only=True, compare=False, repr=False)


@dataclass(slots=True)
class IntLit(Expr):
    value: int


@dataclass(slots=True)
class BoolLit(Expr):
    value: bool


@dataclass(slots=True)
class NullLit(Expr):
    value = None       # not a field: the vm evaluates every literal by its value


@dataclass(slots=True)
class Name(Expr):
    name: str
    # filled in by the checker: ("global", name) | ("local", name)
    # | ("member", class_name, name) | ("func", name) | ("method", class_name, name)
    binding: object = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class Deref(Expr):
    operand: Expr


@dataclass(slots=True)
class AddrOf(Expr):
    operand: Expr


@dataclass(slots=True)
class Unary(Expr):
    op: str  # "-" | "!"
    operand: Expr


@dataclass(slots=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(slots=True)
class Call(Expr):
    callee: Expr
    args: list[Expr]


@dataclass(slots=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(slots=True)
class Dot(Expr):
    obj: Expr
    member: str


@dataclass(slots=True)
class Arrow(Expr):
    obj: Expr
    member: str


LVALUE_FORMS = (Name, Deref, Index, Dot, Arrow)


def is_lvalue_form(e: Expr) -> bool:
    return isinstance(e, LVALUE_FORMS)


# ----------------------------------------------------------------- statements

@dataclass(slots=True)
class Stmt:
    pos: Pos = field(default=NOPOS, kw_only=True, compare=False)


@dataclass(slots=True)
class Block(Stmt):
    stmts: list[Stmt]


@dataclass(slots=True)
class VarDecl(Stmt):
    base_type: str     # "int" | "bool" | class name
    ptr_depth: int
    name: str
    array_size: Optional[int]
    init: Optional[Expr]


@dataclass(slots=True)
class Assign(Stmt):
    target: Expr
    value: Expr


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    orelse: Optional[Stmt]


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(slots=True)
class Return(Stmt):
    value: Optional[Expr]


# ----------------------------------------------------------------- constructs

@dataclass(slots=True)
class Construct:
    pos: Pos = field(default=NOPOS, kw_only=True, compare=False)
    scope: Optional[str] = field(default=None, kw_only=True)  # None = file scope, else class name
    ordinal: int = field(default=-1, kw_only=True)            # declaration order within the unit


@dataclass(slots=True)
class Constraint(Construct):
    lhs: Expr
    rhs: Expr
    guard: Optional[Expr] = None
    # set by the checker: no side contains a call, so applying it runs no user code
    pure: bool = field(default=False, kw_only=True, compare=False, repr=False)


@dataclass(slots=True)
class Monitor(Construct):
    lhs: Expr
    body: Block


@dataclass(slots=True)
class Precond(Construct):
    cond: Expr
    body: Block


# --------------------------------------------------------------- declarations

@dataclass(slots=True)
class Param:
    base_type: str
    ptr_depth: int
    name: str


@dataclass(slots=True)
class FuncDecl:
    ret_type: str
    ret_ptr_depth: int
    name: str
    params: list[Param]
    body: Block
    pos: Pos = field(default=NOPOS, kw_only=True, compare=False)
    cls: Optional[str] = field(default=None, kw_only=True)  # owning class for methods


@dataclass(slots=True)
class ClassDecl:
    name: str
    members: list[VarDecl]
    methods: list[FuncDecl]
    constructs: list[Construct]
    pos: Pos = field(default=NOPOS, kw_only=True, compare=False)


@dataclass(slots=True)
class Unit:
    """A parsed translation unit; decls holds file-scope items in source order."""

    decls: list  # VarDecl | FuncDecl | ClassDecl
    constructs: list[Construct]  # all constructs (file scope and class scope), source order
    # the decls of each kind, in source order, split once
    globals: list[VarDecl] = field(init=False, repr=False, compare=False)
    functions: list[FuncDecl] = field(init=False, repr=False, compare=False)
    classes: list[ClassDecl] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.globals = [d for d in self.decls if isinstance(d, VarDecl)]
        self.functions = [d for d in self.decls if isinstance(d, FuncDecl)]
        self.classes = [d for d in self.decls if isinstance(d, ClassDecl)]
