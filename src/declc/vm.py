"""Executor for lowered programs.

Every user-visible store goes through the engine's write protocol
(`Engine.store`).  A generated function that runs by name, a unit init or a
`redef_*` function, is lowered once per machine into a flat tuple of steps,
one per `codegen.Reg` of the init functions it calls, spliced in; the init
functions keep no steps of their own.  A redefined cell's rebinding phase
hands all its redefinitions to one step loop, which runs each run of one
owner's entries in that owner's frame.  A step holds the engine's handler
of its kind, taken at the machine's first lowering, and runs as one
`handle(cell, registrant, b)` call.  Like the lines of the paper's
`redef_*` functions, an owner's steps of a `redef_*` function hold their
registrants once bound, at the function's second run for that owner; they
are kept in the owner's frame and go with it.  An install records the cell
it registered on, and its cancel takes that cell.

User code compiles to shape evaluators `(leaves, frame) -> value` (or cell):
one per expression or statement shape, the operator tree plus the kind of
each leaf, kept per machine in `_shapes` (see shapes.py).  The leaves (bound
cells, blocks, literals, names, positions, a callee's declaration, and nodes
left to their `_EVAL` or `_EXEC` handler) are bound in one tuple per runtime
entry, per l-value for its resolver, or per body.  Each piece of user code is
walked at its first run and compiled at its second: a constraint's right
side, guard or condition per entry, and a function, method, monitor or
tester body once per machine.  A walk dispatches each node by its class
through a handler table (`_EVAL`, `_EXEC`), one Python frame per node; a
`return` is a value handed up, not an exception.  Reads of a dereference, an
element or a data member in a walk go through the l-value's resolver.
"""

from __future__ import annotations

import operator
from functools import partial

from . import ast, codegen, trace as tr
from .checker import UnitInfo
from .codegen import CallGen, GenUnit
from .contract import c_div, c_mod
from .errors import RuntimeFault
from .runtime import Cell, ConstraintEntry, DepEdge, Engine, Entry
from .shapes import SHAPES
from .types import BOOL, Array, ClassType, Ptr, Scalar, make_type
from .values import Block, CellPtr, Instance, ObjPtr, address, value_str


# -------------------------------------------------------------------- frames

class Frame:
    __slots__ = ("func", "locals", "owner", "instances")

    def __init__(self, func: str, owner: Instance | None = None):
        self.func = func
        self.locals: dict = {}
        self.owner = owner
        self.instances: list | None = None  # local objects, once one is declared


class GenFrame(Frame):
    """The frame an owner's generated functions and constraint entries share.
    `entries` holds its registrants: each runtime entry under its function's
    name, each dependency edge under its `Reg`.  `placed` maps a `Reg` to the
    cell its install registered it on.  `installs` and `cancels` hold, per
    `redef_*` function, its steps bound to these registrants (a cancel's
    without the applications), made at the function's second run; until
    then `installs` maps a function that has run once to None."""

    __slots__ = ("entries", "placed", "installs", "cancels")

    def __init__(self, owner):
        super().__init__("<gen>", owner)
        self.entries: dict = {}
        self.placed: dict = {}
        self.installs: dict = {}
        self.cancels: dict = {}


class _Init:
    """A unit init as the one item of a `run_genfn` run: it reads as a
    registered entry of `owner`."""

    __slots__ = ("fn", "owner")
    registered = 1

    def __init__(self, fn: str, owner):
        self.fn, self.owner = fn, owner


_NOBODY = object()  # no entry's owner: a run's first entry switches to its own


def _leaf(leaves: list, v) -> int:
    leaves.append(v)
    return len(leaves) - 1


def _eval_details(ordinal) -> tuple[str, str]:
    """The GuardEval/PrecondEval details of one construct, indexed by outcome."""
    return (f"construct:{ordinal}:false", f"construct:{ordinal}:true")


def default_value(t):
    if t == BOOL:
        return False
    if isinstance(t, Ptr):
        return None
    return 0


def _array(name: str, size: int, value) -> Block:
    block = Block(name, [])
    block.cells = [Cell(f"{name}[{k}]", value, block, k) for k in range(size)]
    return block


def _cells(v, objects: bool):
    """The cells a stored value holds, with each object's own with `objects`."""
    if isinstance(v, Cell):
        yield v
    elif isinstance(v, Block):
        yield from v.cells
    elif isinstance(v, Instance):
        if objects:
            yield v.obj_cell
        for m in v.members.values():
            yield from _cells(m, objects)


# ------------------------------------------------------------------- machine

class Machine:
    def __init__(self, gen: GenUnit, info: UnitInfo, sink: tr.TraceSink | None = None):
        self.gen = gen
        self.unit = gen.unit
        self.info = info
        self.trace = sink if sink is not None else tr.TraceSink()
        self.engine = Engine(self.trace)
        self.globals: dict[str, object] = {}
        self._gen_frames: dict[int, GenFrame] = {}  # by id(owner), while it lives
        self._steps: dict[str, tuple] = {}      # the steps of functions run by name
        self._kinds: dict | None = None         # kind -> (handler, detail), at first lowering
        self._resolvers: dict[int, object] = {}  # id(l-value expr) -> resolver
        self._shapes: dict[tuple, object] = {}   # shape key -> evaluator
        self._bodies: dict[int, object] = {}     # id(body) -> its runner, once it has run
        self._decls: dict[tuple, ast.FuncDecl] = {
            (None, f.name): f for f in self.unit.functions}
        self._decls.update({(c.name, f.name): f for c in self.unit.classes
                            for f in c.methods})
        self._seq = 0
        self._call_seq = 0  # bumped by each user function call and local declaration
        self.loaded = False

    # ----------------------------------------------------------- allocation

    def _alloc(self, name: str, t):
        """The storage of a variable of type t: a block of cells for an
        array, an object (its members allocated in turn), or else a cell."""
        if isinstance(t, Array):
            return _array(name, t.size, default_value(t.elem))
        if isinstance(t, ClassType):
            inst = Instance(t.name, name)
            ci = self.info.classes[t.name]
            for m in ci.member_order:
                inst.members[m] = self._alloc(f"{name}.{m}", ci.members[m])
            return inst
        return Cell(name, default_value(t))

    def _construct_instance(self, inst: Instance):
        """Constructor protocol: nested ctors, member update monitors, then
        the class-scope unit init with this instance as owner."""
        for m in inst.members.values():
            if isinstance(m, Instance):
                self._construct_instance(m)
        hook = partial(self.engine.member_changed, inst.header, inst.obj_cell)
        for m in inst.members.values():
            (m.obj_cell if isinstance(m, Instance) else m).update_hook = hook
        unit_init = self.gen.classes.get(inst.cls)
        if unit_init is not None:
            self.run_genfn((_Init(unit_init, inst),), True)

    def _destroy_instance(self, inst: Instance):
        unit_init = self.gen.classes.get(inst.cls)
        if unit_init is not None:
            self.run_genfn((_Init(unit_init, inst),), False)
        self._gen_frames.pop(id(inst), None)
        for m in inst.members.values():
            (m.obj_cell if isinstance(m, Instance) else m).update_hook = None
        for m in inst.members.values():
            if isinstance(m, Instance):
                self._destroy_instance(m)

    # ----------------------------------------------------------------- load

    def load(self):
        """Allocate globals, run initializers and constructors in declaration
        order, then install file-scope constructs (applying constraints)."""
        for d in self.unit.globals:
            self.globals[d.name] = self._alloc(d.name, self.info.globals[d.name])
        fr = Frame("<global>")
        for d in self.unit.globals:
            target = self.globals[d.name]
            if isinstance(target, Instance):
                self._construct_instance(target)
            elif d.init is not None:
                self.store(target, self.eval(d.init, fr))
        self.run_genfn((_Init(self.gen.unit_init, None),), True)
        self.loaded = True
        return self

    def teardown(self):
        """Cancel every registration on the cell its install recorded: file scope
        in install order, then each global object's in reverse declaration order."""
        self.run_genfn((_Init(self.gen.unit_init, None),), False)
        for v in reversed(self.globals.values()):
            if v.__class__ is Instance:
                self._destroy_instance(v)

    def run(self) -> int:
        if not self.loaded:
            self.load()
        if "main" not in self.info.functions:
            raise RuntimeFault("program has no 'main' function")
        self.call_function("main", [])
        self.teardown()
        return 0

    def store(self, cell: Cell, value):
        self.engine.store(cell, value)  # a name of its own: perfbench's spans wrap it

    # ------------------------------------------------------------ evaluation

    def _lookup(self, binding, fr: Frame):
        """The storage a name no shape binds denotes: a local, a data member,
        or for an own method's callee its object's cell (contract.py)."""
        kind = binding[0]
        if kind == "local":
            return fr.locals[binding[1]]
        return fr.owner.members[binding[2]] if kind == "member" else fr.owner.obj_cell

    def lv_cell(self, e: ast.Expr, fr: Frame) -> Cell:
        """Evaluate an l-value to the single cell it currently denotes."""
        return self._resolver(e)(fr)

    def _resolver(self, e: ast.Expr):
        """The `(Frame) -> Cell` resolver of an l-value, compiled once per
        expression node (so once per LvNode) or, but for an array, per name
        binding.  Keyed by id: the unit holding the nodes outlives the machine."""
        key = e.binding if type(e) is ast.Name and not isinstance(e.ty, Array) else id(e)
        r = self._resolvers.get(key)
        if r is None:
            r = self._resolvers[key] = self._compile_lv(e)
        return r

    def _compile_lv(self, e: ast.Expr):
        """e's cell shape with e's leaves; shared by every owner, so a member
        is looked up in the frame at each resolution."""
        leaves = []
        return partial(self._cell(e, leaves, None, False), tuple(leaves))

    def _evaluator(self, e: ast.Expr) -> list:
        """A slot `[evaluator, walked]` whose evaluator is `(Frame) -> value`
        of e, a right side, guard or precondition condition of one owner:
        first `_evaluate`, which walks e at the first evaluation, and at the
        second binds e's leaves in one tuple and puts its shape's evaluator in
        the slot.  An expression evaluated once (a right side applied only at
        install) is never compiled."""
        slot = [None, False]
        slot[0] = partial(Machine._evaluate, self, slot, e)
        return slot

    def _evaluate(self, slot: list, e: ast.Expr, frame: Frame):
        if not slot[1]:
            slot[1] = True
            return self.eval(e, frame)
        leaves = []
        shape = self._value(e, leaves, None if frame.owner is None else frame.owner.members)
        slot[0] = partial(shape, tuple(leaves))
        return slot[0](frame)

    # Shapes (compiled in shapes.py).  `_value` and `_cell` walk an
    # expression for its value or for the cell it denotes, append each leaf
    # to `leaves` and return the evaluator of its shape.  A leaf is a bound
    # cell (a global, or a member of a known owner), an array's block, a
    # literal, a position, or a node the compiler does not specialize, which
    # its `_EVAL` handler evaluates.  `_shape` compiles a key once per
    # machine, so equal trees over other cells share one evaluator.

    def _value(self, e: ast.Expr, leaves: list, members):
        cls = e.__class__
        if cls is ast.Name:
            i = self._bound(e, leaves, members, False)
            if i is not None:
                return self._shape(("cell", i, True))
            return (self._frame_name(e, leaves, True)
                    or self._shape(("eval", _EVAL[cls], _leaf(leaves, e))))
        if cls in _LITERALS:
            return self._shape(("lit", _leaf(leaves, e.value)))
        if cls is ast.Binary and not isinstance(e.ty, Ptr):  # pointer +/-: a node
            op, left = e.op, self._value(e.left, leaves, members)
            f = _BINARY_OPS.get(op)
            if f is not None and e.right.__class__ in _LITERALS:  # `x + 1`
                return self._shape(("op lit", f, left, _leaf(leaves, e.right.value)))
            right = self._value(e.right, leaves, members)
            if f is not None:
                return self._shape(("op", f, left, right))
            if op == "&&" or op == "||":
                return self._shape((op, left, right))
            return self._shape(("divmod", c_div if op == "/" else c_mod, left, right,
                                _leaf(leaves, e.pos)))
        if cls is ast.Unary:
            if e.operand.__class__ in _LITERALS:  # `-1`: one literal
                v = e.operand.value
                return self._shape(("lit", _leaf(leaves, -v if e.op == "-" else not v)))
            return self._shape(("neg" if e.op == "-" else "not",
                                self._value(e.operand, leaves, members)))
        if cls is ast.Deref or cls is ast.Index or cls is ast.Dot or cls is ast.Arrow:
            return self._cell(e, leaves, members, True)
        if cls is ast.Call:
            return self._call(e, leaves, members)
        if cls is ast.AddrOf and ast.is_lvalue_form(e.operand):
            return self._shape(("addr", self._cell(e.operand, leaves, members, False),
                                isinstance(e.operand.ty, ClassType)))
        return self._shape(("eval", _EVAL[cls], _leaf(leaves, e)))

    def _call(self, e: ast.Call, leaves: list, members):
        """A call's evaluator.  Its callee's declaration is a leaf, bound once:
        there is no inheritance and no function value.  A method's callee
        denotes its object's cell, whose value is the object it is called on,
        evaluated before the arguments."""
        callee = e.callee
        decl = self._callee(callee)
        d = _leaf(leaves, decl)
        if decl.cls is None:
            return self._shape(("call", d, tuple(self._value(x, leaves, members)
                                                 for x in e.args)))
        return self._shape(("call method", self._cell(callee, leaves, members, True), d,
                            tuple(self._value(x, leaves, members) for x in e.args)))

    def _cell(self, e: ast.Expr, leaves: list, members, value: bool):
        """The evaluator of l-value e's cell, or of its value with `value`."""
        cls = e.__class__
        if cls is ast.Name:
            i = self._bound(e, leaves, members)
            if i is not None:
                return self._shape(("cell", i, value))
            return (self._frame_name(e, leaves, value)
                    or self._shape(("name", _leaf(leaves, e), value)))
        if cls is ast.Deref:
            i = self._bound(e.operand, leaves, members)
            if i is not None:
                return self._shape(("deref cell", i, _leaf(leaves, e.pos), value))
            return self._shape(("deref", self._value(e.operand, leaves, members),
                                _leaf(leaves, e.pos), value))
        if cls is ast.Index:
            base = e.base
            if not isinstance(base.ty, Array):
                index = self._value(e.index, leaves, members)
                return self._shape(("ptr elem", index, self._value(base, leaves, members),
                                    _leaf(leaves, e.pos), value))
            if base.__class__ is ast.Name and base.binding[0] == "global":
                blk = self.globals[base.name]
                i = self._bound(e.index, leaves, members)
                if i is not None:
                    return self._shape(("elem cell", i, _leaf(leaves, blk),
                                        _leaf(leaves, e.pos), value))
                index = self._value(e.index, leaves, members)
                block = self._shape(("lit", _leaf(leaves, blk)))
            else:
                index = self._value(e.index, leaves, members)
                block = self._shape(("block", _leaf(leaves, base.name)))  # a local array
            return self._shape(("elem", index, block, _leaf(leaves, e.pos), value))
        if cls is ast.Dot:
            return self._shape(("member", self._cell(e.obj, leaves, members, True),
                                _leaf(leaves, e), value))
        return self._shape(("arrow", self._value(e.obj, leaves, members),  # an Arrow
                            _leaf(leaves, e), value))

    def _bound(self, e: ast.Expr, leaves: list, members, objects=True) -> int | None:
        """The leaf index of the cell a name denotes for good, once bound: a
        global scalar, or a member scalar of a known owner, or with `objects`
        such an object's own cell."""
        if e.__class__ is not ast.Name:
            return None
        b = e.binding
        v = (self.globals[b[1]] if b[0] == "global" else
             members[b[2]] if b[0] == "member" and members is not None else None)
        if objects and isinstance(v, Instance):
            v = v.obj_cell
        return _leaf(leaves, v) if v.__class__ is Cell else None

    def _frame_name(self, e: ast.Name, leaves: list, value: bool):
        """The evaluator of a scalar local or data member, read from the
        frame at each run, or None for any other name."""
        kind = e.binding[0]
        if (kind == "local" or kind == "member") and isinstance(e.ty, (Scalar, Ptr)):
            return self._shape(("local" if kind == "local" else "own",
                                _leaf(leaves, e.name), value))
        return None

    def _shape(self, key: tuple):
        fn = self._shapes.get(key)
        if fn is None:
            fn = self._shapes[key] = SHAPES[key[0]](self, *key[1:])
        return fn

    def _member_cell(self, inst: Instance, member: str) -> Cell:
        m = inst.members.get(member)
        if m is None:  # a public method: its involvement cell is the owning object
            return inst.obj_cell
        return m.obj_cell if isinstance(m, Instance) else m

    # Expression handlers `(machine, node, frame) -> value`, by node class in
    # `_EVAL`; each dispatches its children through the table too.

    def eval(self, e: ast.Expr, fr: Frame):
        return _EVAL[e.__class__](self, e, fr)

    def _eval_literal(self, e, fr):
        return e.value

    def _eval_name(self, e: ast.Name, fr: Frame):
        b = e.binding
        return (fr.locals[b[1]] if b[0] == "local" else
                self.globals[b[1]] if b[0] == "global" else self._lookup(b, fr)).value

    def _eval_storage(self, e, fr: Frame):
        """The value of the cell an l-value denotes, read by its resolver."""
        return (self._resolvers.get(id(e)) or self._resolver(e))(fr).value

    def _eval_addr(self, e: ast.AddrOf, fr: Frame):
        cell = self.lv_cell(e.operand, fr)
        return ObjPtr(cell.value) if isinstance(e.operand.ty, ClassType) else address(cell)

    def _eval_unary(self, e: ast.Unary, fr: Frame):
        op = e.operand
        v = _EVAL[op.__class__](self, op, fr)
        return -v if e.op == "-" else (not v)

    def _eval_binary(self, e: ast.Binary, fr: Frame):
        op, left, right = e.op, e.left, e.right
        a = _EVAL[left.__class__](self, left, fr)
        if op == "&&":
            return bool(a) and bool(_EVAL[right.__class__](self, right, fr))
        if op == "||":
            return bool(a) or bool(_EVAL[right.__class__](self, right, fr))
        b = _EVAL[right.__class__](self, right, fr)
        if op == "/":
            return c_div(a, b, e.pos)
        if op == "%":
            return c_mod(a, b, e.pos)
        if op == "+" or op == "-":
            if a.__class__ is CellPtr:
                return CellPtr(a.block, a.offset + b if op == "+" else a.offset - b)
            if b.__class__ is CellPtr and op == "+":
                return CellPtr(b.block, b.offset + a)
            if a is None or b is None:  # no int is None
                raise RuntimeFault("null pointer arithmetic", e.pos)
        return _BINARY_OPS[op](a, b)

    def _eval_call(self, e: ast.Call, fr: Frame):
        """A call in a walk, bound as the `call` shapes bind it."""
        callee = e.callee
        decl = self._callee(callee)
        if decl.cls is None:
            return self._run_body(decl, [_EVAL[a.__class__](self, a, fr) for a in e.args],
                                  None)
        return self._call_method(self.lv_cell(callee, fr).value, decl,
                                 [_EVAL[a.__class__](self, a, fr) for a in e.args])

    # ----------------------------------------------------------------- calls

    def _func_decl(self, name: str, cls: str | None) -> ast.FuncDecl:
        decl = self._decls.get((cls, name))
        if decl is None:
            raise RuntimeFault(f"undefined function '{name}'")
        return decl

    def _callee(self, callee: ast.Expr) -> ast.FuncDecl:
        """The declaration a callee names: a free function, or a method of
        the class its type names."""
        name = callee.name if callee.__class__ is ast.Name else callee.member
        return self._decls[(callee.ty.cls, name)]

    def _run_body(self, decl: ast.FuncDecl, args, owner):
        self._call_seq += 1
        seq = self._call_seq
        frame = Frame(decl.name, owner=owner)
        for p, v in zip(decl.params, args):
            frame.locals[p.name] = Cell(f"{decl.name}@{seq}:{p.name}", v)
        ret = self._exec_body(decl.body, frame)
        ret = None if ret is None else ret[0]
        if ret is None and decl.ret_type != "void":
            ret = default_value(make_type(decl.ret_type, decl.ret_ptr_depth))
        return ret

    def _exec_body(self, body: ast.Block, frame: Frame):
        """Run a function, method, monitor or tester body in its own frame:
        walked at its first run, and compiled at its second (`_compile_body`)."""
        run = self._bodies.get(id(body))
        try:
            if run is None:
                self._bodies[id(body)] = partial(Machine._compile_body, self, body)
                return self._exec_block(body, frame)
            return run(frame)
        finally:
            if frame.instances:
                for inst in reversed(frame.instances):
                    self._destroy_instance(inst)

    def _compile_body(self, body: ast.Block, frame: Frame):
        """Bind body's leaves in one tuple, keep its statement shape's runner
        for every later run, and run it."""
        leaves = []
        run = self._bodies[id(body)] = partial(self._stmt(body, leaves), tuple(leaves))
        return run(frame)

    def call_function(self, name: str, args):
        return self._run_body(self._func_decl(name, None), args, None)

    def call_method(self, inst: Instance, name: str, args):
        return self._call_method(inst, self._func_decl(name, inst.cls), args)

    def _call_method(self, inst: Instance, decl: ast.FuncDecl, args):
        """Run a method's body on inst, suspended for the call."""
        self.engine.suspend(inst.header, inst.obj_cell)
        try:
            return self._run_body(decl, args, inst)
        finally:
            self.engine.resume(inst.header, inst.obj_cell)

    # ------------------------------------------------------------ statements
    # Statement handlers `(machine, node, frame) -> None | (value,)`, by node
    # class in `_EXEC`: a `return` gives (its value,), handed up unchanged.

    def _exec_block(self, s: ast.Block, fr: Frame):
        for st in s.stmts:
            r = _EXEC[st.__class__](self, st, fr)
            if r is not None:
                return r

    def _exec_assign(self, s: ast.Assign, fr: Frame):
        cell = self.lv_cell(s.target, fr)
        v = s.value
        self.store(cell, _EVAL[v.__class__](self, v, fr))

    def _exec_expr(self, s: ast.ExprStmt, fr: Frame):
        e = s.expr
        _EVAL[e.__class__](self, e, fr)

    def _exec_if(self, s: ast.If, fr: Frame):
        cond = s.cond
        st = s.then if _EVAL[cond.__class__](self, cond, fr) else s.orelse
        return None if st is None else _EXEC[st.__class__](self, st, fr)

    def _exec_while(self, s: ast.While, fr: Frame):
        cond, body = s.cond, s.body
        test, run = _EVAL[cond.__class__], _EXEC[body.__class__]
        while test(self, cond, fr):
            r = run(self, body, fr)
            if r is not None:
                return r

    def _exec_return(self, s: ast.Return, fr: Frame):
        e = s.value
        return (None if e is None else _EVAL[e.__class__](self, e, fr),)

    def _stmt(self, s: ast.Stmt, leaves: list):
        """The evaluator of statement s of a body.  A body is shared by every
        owner, so a data member is read from the frame at each run.  A
        statement form with no compiler (a local declaration) is a leaf left
        to its `_EXEC` handler."""
        cls = s.__class__
        if cls is ast.Block:
            stmts = tuple(self._stmt(t, leaves) for t in s.stmts)
            return stmts[0] if len(stmts) == 1 else self._shape(("stmts", stmts))
        if cls is ast.Assign:
            return self._shape(("assign", self._cell(s.target, leaves, None, False),
                                self._value(s.value, leaves, None)))
        if cls is ast.ExprStmt:
            return self._shape(("expr", self._value(s.expr, leaves, None)))
        if cls is ast.If:
            cond, then = self._value(s.cond, leaves, None), self._stmt(s.then, leaves)
            if s.orelse is None:
                return self._shape(("if", cond, then))
            return self._shape(("if else", cond, then, self._stmt(s.orelse, leaves)))
        if cls is ast.While:
            return self._shape(("while", self._value(s.cond, leaves, None),
                                self._stmt(s.body, leaves)))
        if cls is ast.Return:
            x = (self._shape(("lit", _leaf(leaves, None))) if s.value is None
                 else self._value(s.value, leaves, None))
            return self._shape(("return", x))
        return self._shape(("eval", _EXEC[cls], _leaf(leaves, s)))

    def _local_decl(self, d: ast.VarDecl, fr: Frame):
        self._call_seq += 1
        v = fr.locals[d.name] = self._alloc(
            f"{fr.func}@{self._call_seq}:{d.name}",
            make_type(d.base_type, d.ptr_depth, d.array_size))
        if v.__class__ is Instance:
            self._construct_instance(v)
            if fr.instances is None:
                fr.instances = []
            fr.instances.append(v)
        elif d.init is not None:
            self.store(v, self.eval(d.init, fr))

    # -------------------------------------------------- generated functions

    def run_genfn(self, run, b: bool):
        """Run the generated function of each entry of `run`, in order, as
        install (b) or cancel steps: a cell's redefinitions as the phase
        found them (`Engine._rebind`), or a unit init's stand-in.  An entry
        whose `registered` is 0 when the loop reaches it is skipped.  Each
        maximal run of one owner's entries runs in that owner's frame, with a
        resolution cache of its own.  Each step but an application is one
        `handle(cell, registrant, b)`; a step of a function's first run for
        its owner has no registrant yet and makes it (`_owner_steps`).  An
        install resolves each l-value once per owner run until a step that
        can store (an applied constraint, or a call in the l-value), and
        records its cell in `placed` or is dormant; a cancel pops that cell,
        or skips a dormant step."""
        emit, owner = self.trace.emit, _NOBODY
        if b:
            fire, event = self.engine.fire, tr.INSTALL
            for r in run:
                if not r.registered:
                    continue
                if r.owner is not owner:
                    owner = r.owner
                    fr = self._gen_frame(owner)
                    bound, placed, cells = fr.installs, fr.placed, {}
                steps = bound.get(r.fn) or self._owner_steps(r.fn, fr)[0]
                for handle, registrant, lvstr, detail, construct, resolve, reg in steps:
                    if registrant is None:
                        registrant = self._registrant(reg, construct, fr)
                    if handle is None:  # the install-time application
                        cells.clear()
                        fire(registrant, False)
                        continue
                    cell = cells.get(resolve)
                    if cell is None:
                        calls = self._call_seq
                        try:
                            cell = resolve(fr)
                        except RuntimeFault as f:
                            cells.clear()  # it may have run user code that stored
                            emit(tr.DORMANT, lvstr, "", f"construct:{construct}:{f.msg}")
                            continue
                        if self._call_seq == calls:
                            cells[resolve] = cell
                        else:  # it ran user code, which may have stored
                            cells.clear()
                    placed[reg] = cell
                    handle(cell, registrant, True)
                    emit(event, lvstr, cell.name, detail, construct)
            return
        event = tr.CANCEL
        for r in run:
            if not r.registered:
                continue
            if r.owner is not owner:
                owner = r.owner
                fr = self._gen_frame(owner)
                bound, pop = fr.cancels, fr.placed.pop
            steps = bound.get(r.fn) or self._owner_steps(r.fn, fr)[1]
            for handle, registrant, lvstr, detail, construct, resolve, reg in steps:
                if registrant is None:
                    registrant = self._registrant(reg, construct, fr)
                cell = pop(reg, None)
                if cell is None:  # dormant, or an application: nothing placed
                    continue
                handle(cell, registrant, False)
                emit(event, lvstr, cell.name, detail, construct)

    def _owner_steps(self, fn: str, fr: GenFrame) -> tuple:
        """The (install, cancel) steps of generated function fn for fr's
        owner.  At its first run they are the lowered steps, walked: each
        makes its registrant.  At its second, as bodies are compiled, a
        `redef_*` function's steps are bound to the owner's registrants and
        kept in its frame, so they die with the owner (a registrant that a
        walk cut short by a fault did not reach is made then).  A unit init
        runs once each way and stays unbound."""
        steps = self._steps.get(fn)
        if steps is None:
            steps = self._lower(fn)
        installs = fr.installs
        if fn not in installs:
            if self.gen.functions[fn].kind != codegen.UNIT_INIT:
                installs[fn] = None
            return steps, steps
        bound = installs[fn] = tuple(
            (handle, self._registrant(reg, construct, fr), lvstr, detail, construct,
             resolve, reg) for handle, _, lvstr, detail, construct, resolve, reg in steps)
        cancels = fr.cancels[fn] = tuple(step for step in bound if step[0] is not None)
        return bound, cancels

    def _lower(self, name: str) -> tuple:
        """Lower a generated function that runs by name (a unit init or a
        `redef_*` function) to a flat tuple of steps, kept per machine.  The
        first lowering takes the engine's handlers as they are then, so the
        steps call the wrappers perfbench's spans put in, if any.  A step's
        Install/Cancel detail is rendered from its construct; `apply` has none."""
        if self._kinds is None:
            self._kinds = {kind: (getattr(self.engine, "handle_" + kind, None),
                                  (f"{kind}:construct:", str))
                           for kind in ("constraint", "dependency", "monitor",
                                        "precondition", "redefinition", "apply")}
        steps = self._steps[name] = tuple(self._splice(name, []))
        return steps

    def _splice(self, name: str, steps: list) -> list:
        """Append the steps of a generated function to `steps`, its CallGen
        callees spliced in: one (handler, registrant, l-value string,
        Install/Cancel detail as a `(prefix, render)` pair of the construct,
        construct, resolver, `Reg`) per registration, the same wherever the
        callee is spliced.  A lowered step's registrant is None: the owner's
        is filled in when it is bound (`_owner_steps`).  The `Reg` is the
        step's `placed` key."""
        fn, kinds = self.gen.functions[name], self._kinds
        for ins in fn.instrs:
            if ins.__class__ is CallGen:
                known = self._steps.get(ins.fn)
                if known is None:
                    self._splice(ins.fn, steps)
                else:
                    steps += known
            else:
                handle, detail = kinds[ins.kind]
                steps.append((handle, None, ins.lv.str, detail, fn.construct,
                              self._resolver(ins.lv.expr), ins))
        return steps

    # ------------------------------------------------------ runtime entries

    def _gen_frame(self, owner) -> GenFrame:
        fr = self._gen_frames.get(id(owner))
        if fr is None:
            fr = self._gen_frames[id(owner)] = GenFrame(owner)
        return fr

    def _registrant(self, reg: codegen.Reg, ordinal: int, fr: GenFrame):
        """What `reg` registers for fr's owner, made at its first step: the
        runtime entry of its function, or a dependency's edge on that entry,
        kept in `entries` under its `Reg` (its edge is its own)."""
        dependency = reg.kind == "dependency"
        registrant = fr.entries.get(reg if dependency else reg.fn)
        if registrant is None:
            registrant = fr.entries.get(reg.fn) or self._entry(reg.kind, reg.fn, ordinal,
                                                               reg.lv.str, fr)
            if dependency:
                registrant = fr.entries[reg] = DepEdge(registrant, reg.ordinal)
        return registrant

    def _entry(self, kind, fn: str, ordinal, lvstr, fr: GenFrame) -> Entry:
        """The runtime entry `fn` of fr's owner."""
        owner, info = fr.owner, self.gen.graph.constructs[ordinal]
        c = info.construct
        if kind == "redefinition":
            entry = Entry(fn, owner, invoke=self._redefine, lvalue=lvstr, construct=ordinal)
        elif kind == "monitor":
            entry = Entry(fn, owner, lvalue=lvstr, construct=ordinal,
                          invoke=partial(Machine._monitor, self, c.body, owner))
        elif kind == "precondition":
            condstr = info.cond_str
            entry = Entry(fn, owner, lvalue=condstr, construct=ordinal, invoke=partial(
                Machine._precondition, self, self._evaluator(c.cond), c.body, owner,
                condstr, _eval_details(ordinal)))
        else:  # a constraint's: its registration, dependency or application
            lhs = info.lhs
            guard = None
            if c.guard is not None:
                guard = partial(Machine._guard, self, self._evaluator(c.guard), fr,
                                lhs.str, _eval_details(ordinal))
            self._seq += 1
            entry = ConstraintEntry(
                fn, owner, lvalue=lhs.str, construct=ordinal, seq=self._seq,
                target=partial(self._resolver(lhs.expr), fr), guard=guard,
                rhs=self._evaluator(c.rhs), frame=fr, pure=c.pure)
        fr.entries[fn] = entry
        return entry

    # The callables of runtime entries: partials of these, bound in `_entry`.

    def _redefine(self, redefs, b: bool):
        self.run_genfn(redefs, b)  # by name: perfbench's spans wrap it

    def _monitor(self, body: ast.Block, owner):
        self._exec_body(body, Frame("<monitor>", owner=owner))

    def _precondition(self, test: list, body: ast.Block, owner, condstr: str,
                      details: tuple[str, str]):
        frame = Frame("<tester>", owner=owner)
        v = bool(test[0](frame))
        self.trace.emit(tr.PRECOND_EVAL, condstr, "", details[v])
        if v:
            self._exec_body(body, frame)

    def _guard(self, test: list, fr: GenFrame, lvstr: str, details: tuple[str, str]) -> bool:
        v = bool(test[0](fr))
        self.trace.emit(tr.GUARD_EVAL, lvstr, "", details[v])
        return v

    # ------------------------------------------------------------ inspection

    def all_cells(self):
        """The cells of global storage, objects' own cells included.  A
        local's cells go with its frame, so after teardown these are all the
        cells that can still hold a registration."""
        for v in self.globals.values():
            yield from _cells(v, True)

    def registration_count(self) -> int:
        return (sum(c.registration_count() for c in self.all_cells())
                + len(self.engine.deps))

    def dependency_links(self) -> list[tuple[str, str]]:
        """Current (constraining cell, constrained cell) pairs in firing
        order, read off the live edges the owners' frames hold; the
        constrained side is resolved lazily, mirroring fire-time behavior."""
        live = sorted((edge for fr in self._gen_frames.values()
                       for edge in fr.entries.values()
                       if edge.__class__ is DepEdge and edge.live),
                      key=operator.attrgetter("order"))
        out = []
        for edge in live:
            try:
                target = edge.entry.target()
                out.append((edge.from_cell.name, target.name))
            except RuntimeFault:
                out.append((edge.from_cell.name, "<unresolvable>"))
        return out

    def memory_snapshot(self) -> dict[str, str]:
        return {c.name: value_str(c.value)
                for v in self.globals.values() for c in _cells(v, False)}


_LITERALS = (ast.IntLit, ast.BoolLit, ast.NullLit)

# `_eval_binary` does `&&`, `||` (short circuit), `/`, `%` (may fault) and
# pointer `+`/`-` itself; every other operator goes through this table.
_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "==": operator.eq, "!=": operator.ne, "<": operator.lt,
               ">": operator.gt, "<=": operator.le, ">=": operator.ge}

_EVAL = {
    ast.IntLit: Machine._eval_literal, ast.BoolLit: Machine._eval_literal,
    ast.NullLit: Machine._eval_literal, ast.Name: Machine._eval_name,
    ast.Deref: Machine._eval_storage, ast.Index: Machine._eval_storage,
    ast.Dot: Machine._eval_storage, ast.Arrow: Machine._eval_storage,
    ast.AddrOf: Machine._eval_addr, ast.Unary: Machine._eval_unary,
    ast.Binary: Machine._eval_binary, ast.Call: Machine._eval_call,
}

_EXEC = {
    ast.Block: Machine._exec_block, ast.VarDecl: Machine._local_decl,
    ast.Assign: Machine._exec_assign, ast.ExprStmt: Machine._exec_expr,
    ast.If: Machine._exec_if, ast.While: Machine._exec_while,
    ast.Return: Machine._exec_return,
}


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
