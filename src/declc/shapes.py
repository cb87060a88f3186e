"""Compilers of shape evaluators for the vm.

`Machine._value` and `Machine._cell` (vm.py) turn an expression into the key
of its shape, the operator tree plus the kind and leaf index of each leaf,
and `Machine._shape` compiles a key it has not seen through `SHAPES`: a
compiler per kind, `(machine, *rest of the key) -> evaluator`.  An evaluator
is `(leaves, frame) -> value`, or the cell an l-value denotes; the tuple of
leaves is bound per runtime entry, per resolver or per body.  A key holds
its children's evaluators, so an evaluator closes over them and over leaf
indices only, never over a cell.

`Machine._stmt` does the same for the statements of a body: a statement's
evaluator gives None, or `(value,)` for a `return`, which is handed up.  A
call's evaluator runs its callee's body through the machine, and an
assignment stores through `Machine.store`; both are looked up on the machine
at each run, so a wrapper put on them later sees every call.
"""

from __future__ import annotations

from .errors import RuntimeFault
from .values import CellPtr, Instance, ObjPtr, address


def _lit(m, i):
    return lambda a, fr: a[i]


def _cell(m, i, value):
    return (lambda a, fr: a[i].value) if value else (lambda a, fr: a[i])


def _eval(m, handler, i):
    return lambda a, fr: handler(m, a[i], fr)


def _neg(m, x):
    return lambda a, fr: -x(a, fr)


def _not(m, x):
    return lambda a, fr: not x(a, fr)


def _op(m, f, left, right):
    return lambda a, fr: f(left(a, fr), right(a, fr))


def _op_lit(m, f, left, j):
    return lambda a, fr: f(left(a, fr), a[j])


def _and(m, left, right):
    return lambda a, fr: bool(left(a, fr)) and bool(right(a, fr))


def _or(m, left, right):
    return lambda a, fr: bool(left(a, fr)) or bool(right(a, fr))


def _divmod(m, f, left, right, p):
    return lambda a, fr: f(left(a, fr), right(a, fr), a[p])


def _local(m, i, value):
    """A scalar local of the frame (a parameter or a local declaration)."""
    return (lambda a, fr: fr.locals[a[i]].value) if value else (lambda a, fr: fr.locals[a[i]])


def _own(m, i, value):
    """A scalar data member of the frame's owner."""
    if value:
        return lambda a, fr: fr.owner.members[a[i]].value
    return lambda a, fr: fr.owner.members[a[i]]


def _name(m, i, value):
    """A name no other shape binds: a local or member object (its own cell),
    or an own method's callee (its object's cell)."""
    def name(a, fr):
        v = m._lookup(a[i].binding, fr)
        if v.__class__ is Instance:
            v = v.obj_cell
        return v.value if value else v
    return name


def _deref_cell(m, i, p, value):
    """`*p` for a bound `p`: its value and `CellPtr.deref` inline."""
    def deref(a, fr):
        v = a[i].value
        if v.__class__ is CellPtr:
            cells, k = v.block.cells, v.offset
            if 0 <= k < len(cells):
                return cells[k].value if value else cells[k]
            return v.deref(a[p])  # raises
        return _deref_other(v, a[p], value)
    return deref


def _deref(m, x, p, value):
    def deref(a, fr):
        v = x(a, fr)
        if v.__class__ is CellPtr:
            cells, k = v.block.cells, v.offset
            if 0 <= k < len(cells):
                return cells[k].value if value else cells[k]
            return v.deref(a[p])  # raises
        return _deref_other(v, a[p], value)
    return deref


def _elem_cell(m, i, b, p, value):
    """`arr[i]` for a global array and a bound `i`: both inline."""
    def element(a, fr):
        idx = a[i].value
        cells = a[b].cells
        if 0 <= idx < len(cells):
            return cells[idx].value if value else cells[idx]
        raise RuntimeFault(f"index {idx} out of bounds for '{a[b].name}'", a[p])
    return element


def _elem(m, x, base, p, value):
    def element(a, fr):
        idx = x(a, fr)
        blk = base(a, fr)
        if 0 <= idx < len(blk.cells):
            return blk.cells[idx].value if value else blk.cells[idx]
        raise RuntimeFault(f"index {idx} out of bounds for '{blk.name}'", a[p])
    return element


def _block(m, i):
    return lambda a, fr: fr.locals[a[i]]


def _ptr_elem(m, x, base, p, value):
    def pointee(a, fr):
        idx = x(a, fr)
        v = base(a, fr)
        if v is None:
            raise RuntimeFault("null pointer indexed", a[p])
        cell = CellPtr(v.block, v.offset + idx).deref(a[p])
        return cell.value if value else cell
    return pointee


def _member(m, obj, i, value):
    def member(a, fr):
        e = a[i]
        cell = m._member_cell(obj(a, fr), e.member)
        return cell.value if value else cell
    return member


def _arrow(m, obj, i, value):
    def arrow(a, fr):
        v = obj(a, fr)
        e = a[i]
        if v is None:
            raise RuntimeFault("null pointer dereference", e.pos)
        cell = m._member_cell(v.instance, e.member)
        return cell.value if value else cell
    return arrow


def _addr(m, x, obj):
    """`&x`: a pointer to x's cell, or for an object the object itself."""
    if obj:
        return lambda a, fr: ObjPtr(x(a, fr).value)
    return lambda a, fr: address(x(a, fr))


def _call(m, d, args):
    """A free function's call: its arguments, then the body of `a[d]`."""
    def call(a, fr):
        return m._run_body(a[d], [x(a, fr) for x in args], None)
    return call


def _call_method(m, obj, d, args):
    """A method's call: the object (its callee's cell's value), its
    arguments, then the body of `a[d]`."""
    def call(a, fr):
        inst = obj(a, fr)
        return m._call_method(inst, a[d], [x(a, fr) for x in args])
    return call


# Statements.  A block of one statement is that statement's evaluator.

def _stmts(m, stmts):
    def block(a, fr):
        for s in stmts:
            r = s(a, fr)
            if r is not None:
                return r
    return block


def _assign(m, target, x):
    def assign(a, fr):
        m.store(target(a, fr), x(a, fr))
    return assign


def _expr(m, x):
    def expr(a, fr):
        x(a, fr)
    return expr


def _if(m, cond, then):
    def if_(a, fr):
        if cond(a, fr):
            return then(a, fr)
    return if_


def _if_else(m, cond, then, orelse):
    return lambda a, fr: then(a, fr) if cond(a, fr) else orelse(a, fr)


def _while(m, cond, body):
    def while_(a, fr):
        while cond(a, fr):
            r = body(a, fr)
            if r is not None:
                return r
    return while_


def _return(m, x):
    return lambda a, fr: (x(a, fr),)


def _deref_other(v, pos, value: bool):
    """`*v` of a value that is no cell pointer: null, or an object pointer
    (the object's cell)."""
    if v is None:
        raise RuntimeFault("null pointer dereference", pos)
    return v.instance.obj_cell.value if value else v.instance.obj_cell


SHAPES = {
    "lit": _lit, "cell": _cell, "eval": _eval,
    "neg": _neg, "not": _not, "op": _op,
    "op lit": _op_lit, "&&": _and, "||": _or,
    "divmod": _divmod, "name": _name,
    "deref cell": _deref_cell, "deref": _deref,
    "elem cell": _elem_cell, "elem": _elem,
    "block": _block, "ptr elem": _ptr_elem,
    "member": _member, "arrow": _arrow, "addr": _addr,
    "local": _local, "own": _own,
    "call": _call, "call method": _call_method,
    "stmts": _stmts, "assign": _assign, "expr": _expr,
    "if": _if, "if else": _if_else, "while": _while, "return": _return,
}
