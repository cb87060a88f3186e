"""Recursive-descent parser for HybridC; binary operators by precedence
climbing."""

from .ast import (
    AddrOf, Arrow, Assign, Binary, Block, BoolLit, Call, ClassDecl,
    Constraint, Deref, Dot, ExprStmt, FuncDecl, If, Index, IntLit,
    Monitor, Name, NullLit, Param, Precond, Return, Unary, Unit, VarDecl, While,
)
from .errors import ParseError
from .lexer import Token, tokenize

BASE_TYPES = {"int", "bool", "void"}

# Binary operator -> precedence, loosest first.  All are left-associative.
PRECEDENCE = {
    "||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, ">": 4, "<=": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}

# Deepest nesting accepted.  The counter rises with each parse_binary entry,
# folded binary operand, prefix and postfix operator and nested statement,
# so it bounds both the parser's recursion and the depth of the tree; this
# bound keeps every later pass that recurses over the tree (checker, lvgraph,
# codegen, printer, vm, oracle) within the default recursion limit.
MAX_NESTING = 200


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.tok = tokens[0]
        self.depth = 0  # deepest nesting level reached by the current subtree
        self.class_names: set[str] = set()
        self._ordinal = 0

    # ------------------------------------------------------------- primitives

    def at(self, kind, text=None) -> bool:
        t = self.tok
        return t.kind == kind and (text is None or t.text == text)

    def advance(self) -> Token:
        t = self.tok
        self.i += 1
        self.tok = self.tokens[self.i]
        return t

    def accept(self, kind, text=None):
        return self.advance() if self.at(kind, text) else None

    def expect(self, kind, text=None) -> Token:
        t = self.accept(kind, text)
        if t is None:
            want = text if text is not None else kind
            got = self.tok.text or "end of input"
            raise ParseError(f"expected {want!r}, got {got!r}", self.tok.pos)
        return t

    def error(self, msg):
        raise ParseError(msg, self.tok.pos)

    def nest(self):
        """The current subtree reaches one level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("nesting too deep")

    def below(self, level, parse, *args):
        """`parse(*args)` for a subtree rooted at `level`; afterwards the
        counter holds the deeper of its level and the one before."""
        before, self.depth = self.depth, level
        node = parse(*args)
        self.depth = max(before, self.depth)
        return node

    def int_literal(self) -> int:
        t = self.expect("int")
        try:
            return int(t.text)
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ParseError("integer literal too long", t.pos) from None

    # ------------------------------------------------------------------- unit

    def parse_unit(self) -> Unit:
        decls = []
        constructs = []
        while not self.at("eof"):
            if self.at("kw", "class"):
                cls = self.parse_class()
                decls.append(cls)
                constructs.extend(cls.constructs)
            elif self.starts_decl():
                decls.append(self.parse_decl_or_func())
            else:
                c = self.parse_construct()
                decls.append(c)
                constructs.append(c)
        return Unit(decls, constructs)

    def starts_decl(self) -> bool:
        t = self.tok
        if t.kind == "kw" and t.text in BASE_TYPES:
            return True
        # class-typed declaration: "A obj;" / "A *pa;"
        if t.kind == "id" and t.text in self.class_names:
            nxt = self.tokens[self.i + 1]
            return nxt.kind == "id" or (nxt.kind == "op" and nxt.text == "*")
        return False

    def next_ordinal(self) -> int:
        n = self._ordinal
        self._ordinal += 1
        return n

    # ----------------------------------------------------------- declarations

    def parse_type_base(self) -> str:
        if self.tok.kind == "kw" and self.tok.text in BASE_TYPES:
            return self.expect("kw").text
        if self.tok.kind == "id" and self.tok.text in self.class_names:
            return self.expect("id").text
        self.error(f"expected a type name, got {self.tok.text!r}")

    def parse_decl_or_func(self, in_class=None):
        pos = self.tok.pos
        base = self.parse_type_base()
        depth = 0
        while self.accept("op", "*"):
            depth += 1
        name = self.expect("id").text
        if self.at("punct", "("):
            return self.parse_func_rest(base, depth, name, pos, in_class)
        size = None
        if self.accept("punct", "["):
            size = self.int_literal()
            self.expect("punct", "]")
        init = None
        if self.accept("op", "="):
            init = self.parse_expr()
        self.expect("punct", ";")
        return VarDecl(base, depth, name, size, init, pos=pos)

    def parse_func_rest(self, base, depth, name, pos, in_class):
        self.expect("punct", "(")
        params = []
        if not self.at("punct", ")"):
            while True:
                pbase = self.parse_type_base()
                pdepth = 0
                while self.accept("op", "*"):
                    pdepth += 1
                pname = self.expect("id").text
                params.append(Param(pbase, pdepth, pname))
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        body = self.parse_block()
        return FuncDecl(base, depth, name, params, body, pos=pos, cls=in_class)

    def parse_class(self) -> ClassDecl:
        pos = self.expect("kw", "class").pos
        name = self.expect("id").text
        self.class_names.add(name)
        self.expect("punct", "{")
        members, methods, constructs = [], [], []
        access = "private"
        while not self.at("punct", "}"):
            if self.at("kw", "private") or self.at("kw", "public"):
                access = self.advance().text
                self.expect("punct", ":")
                continue
            if self.starts_decl():
                d = self.parse_decl_or_func(in_class=name)
                if isinstance(d, FuncDecl):
                    if access != "public":
                        raise ParseError("member functions must be public", d.pos)
                    methods.append(d)
                else:
                    if access != "private":
                        raise ParseError("data members must be private", d.pos)
                    members.append(d)
            else:
                c = self.parse_construct(scope=name)
                constructs.append(c)
        self.expect("punct", "}")
        self.expect("punct", ";")
        return ClassDecl(name, members, methods, constructs, pos=pos)

    # ------------------------------------------------------------- constructs

    def parse_construct(self, scope=None):
        pos = self.tok.pos
        e = self.parse_expr()
        if self.accept("op", ":="):
            rhs = self.parse_expr()
            guard = None
            if self.accept("kw", "given"):
                guard = self.parse_expr()
            self.expect("punct", ";")
            return Constraint(e, rhs, guard, pos=pos, scope=scope,
                              ordinal=self.next_ordinal())
        if self.accept("op", "::="):
            body = self.parse_block()
            return Monitor(e, body, pos=pos, scope=scope, ordinal=self.next_ordinal())
        if self.accept("op", "??"):
            body = self.parse_block()
            return Precond(e, body, pos=pos, scope=scope, ordinal=self.next_ordinal())
        self.error("expected ':=', '::=' or '??' after expression")

    # ------------------------------------------------------------- statements

    def parse_block(self) -> Block:
        pos = self.expect("punct", "{").pos
        stmts = []
        while not self.at("punct", "}"):
            stmts.append(self.parse_stmt())
        self.expect("punct", "}")
        return Block(stmts, pos=pos)

    def parse_stmt(self):
        level = self.depth
        self.nest()
        s = self.parse_stmt_at()
        self.depth = level
        return s

    def parse_stmt_at(self):
        pos = self.tok.pos
        if self.at("punct", "{"):
            return self.parse_block()
        if self.accept("kw", "if"):
            self.expect("punct", "(")
            cond = self.parse_expr()
            self.expect("punct", ")")
            then = self.parse_stmt()
            orelse = None
            if self.accept("kw", "else"):
                orelse = self.parse_stmt()
            return If(cond, then, orelse, pos=pos)
        if self.accept("kw", "while"):
            self.expect("punct", "(")
            cond = self.parse_expr()
            self.expect("punct", ")")
            body = self.parse_stmt()
            return While(cond, body, pos=pos)
        if self.accept("kw", "return"):
            value = None
            if not self.at("punct", ";"):
                value = self.parse_expr()
            self.expect("punct", ";")
            return Return(value, pos=pos)
        if self.starts_decl():
            d = self.parse_decl_or_func()
            if isinstance(d, FuncDecl):
                self.error("nested functions are not supported")
            return d
        e = self.parse_expr()
        if self.accept("op", "="):
            value = self.parse_expr()
            self.expect("punct", ";")
            return Assign(e, value, pos=pos)
        self.expect("punct", ";")
        return ExprStmt(e, pos=pos)

    # ------------------------------------------------------------ expressions

    def parse_expr(self):
        """A whole expression; the counter is back at its level afterwards."""
        level = self.depth
        e = self.parse_binary(1)
        self.depth = level
        return e

    def parse_binary(self, min_prec):
        """Operands joined by operators of precedence `min_prec` or higher
        (only operator tokens have the texts in PRECEDENCE)."""
        level = self.depth
        self.nest()
        e = self.parse_unary()
        while PRECEDENCE.get(self.tok.text, 0) >= min_prec:
            op = self.advance().text
            self.nest()  # the left operand moves one level down
            right = self.below(level + 1, self.parse_binary, PRECEDENCE[op] + 1)
            e = Binary(op, e, right, pos=e.pos)
        return e

    def parse_unary(self):
        """Prefix operators, then a primary and its postfix operators."""
        t = self.tok
        if t.kind == "op" and t.text in ("*", "&", "-", "!"):
            self.advance()
            self.nest()
            operand = self.parse_unary()
            if t.text in "-!":
                return Unary(t.text, operand, pos=t.pos)
            return (Deref if t.text == "*" else AddrOf)(operand, pos=t.pos)
        level = self.depth
        e = self.parse_primary()
        while True:
            if self.accept("punct", "("):
                self.nest()
                args = []
                if not self.at("punct", ")"):
                    while True:
                        args.append(self.below(level + 1, self.parse_binary, 1))
                        if not self.accept("punct", ","):
                            break
                self.expect("punct", ")")
                e = Call(e, args, pos=e.pos)
            elif self.accept("punct", "["):
                self.nest()
                idx = self.below(level + 1, self.parse_binary, 1)
                self.expect("punct", "]")
                e = Index(e, idx, pos=e.pos)
            elif (self.tok.kind == "op" and self.tok.text in (".", "->")
                  and self.tokens[self.i + 1].kind == "id"):
                arrow = self.advance().text == "->"
                self.nest()
                member = self.expect("id").text
                e = (Arrow if arrow else Dot)(e, member, pos=e.pos)
            else:
                return e

    def parse_primary(self):
        pos = self.tok.pos
        if self.accept("punct", "("):
            e = self.parse_binary(1)
            self.expect("punct", ")")
            return e
        if self.tok.kind == "int":
            return IntLit(self.int_literal(), pos=pos)
        if self.accept("kw", "true"):
            return BoolLit(True, pos=pos)
        if self.accept("kw", "false"):
            return BoolLit(False, pos=pos)
        if self.accept("kw", "null"):
            return NullLit(pos=pos)
        if self.tok.kind == "id":
            return Name(self.expect("id").text, pos=pos)
        self.error(f"expected an expression, got {self.tok.text!r}")


def parse_unit(tokens: list[Token]) -> Unit:
    return Parser(tokens).parse_unit()


def parse_source(source: str) -> Unit:
    return parse_unit(tokenize(source))
