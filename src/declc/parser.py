"""Recursive-descent parser for HybridC."""

from .ast import (
    AddrOf, Arrow, Assign, Binary, Block, BoolLit, Call, ClassDecl,
    Constraint, Deref, Dot, ExprStmt, FuncDecl, If, Index, IntLit,
    Monitor, Name, NullLit, Param, Precond, Return, Unary, Unit, VarDecl, While,
)
from .errors import ParseError
from .lexer import Token, tokenize

BASE_TYPES = {"int", "bool", "void"}

BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["+", "-"],
    ["*", "/", "%"],
]


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.class_names: set[str] = set()
        self._ordinal = 0

    # ------------------------------------------------------------- primitives

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def peek(self, k=1) -> Token:
        j = min(self.i + k, len(self.tokens) - 1)
        return self.tokens[j]

    def at(self, kind, text=None) -> bool:
        t = self.tok
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind, text=None):
        if self.at(kind, text):
            t = self.tok
            self.i += 1
            return t
        return None

    def expect(self, kind, text=None) -> Token:
        t = self.accept(kind, text)
        if t is None:
            want = text if text is not None else kind
            got = self.tok.text or "end of input"
            raise ParseError(f"expected {want!r}, got {got!r}", self.tok.pos)
        return t

    def error(self, msg):
        raise ParseError(msg, self.tok.pos)

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
            nxt = self.peek()
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
            size = int(self.expect("int").text)
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
            if self.accept("kw", "private"):
                self.expect("punct", ":")
                access = "private"
                continue
            if self.accept("kw", "public"):
                self.expect("punct", ":")
                access = "public"
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
        return self.parse_binary(0)

    def parse_binary(self, level):
        if level >= len(BINARY_LEVELS):
            return self.parse_unary()
        e = self.parse_binary(level + 1)
        while self.tok.kind == "op" and self.tok.text in BINARY_LEVELS[level]:
            op = self.expect("op").text
            pos = e.pos
            right = self.parse_binary(level + 1)
            e = Binary(op, e, right, pos=pos)
        return e

    def parse_unary(self):
        pos = self.tok.pos
        if self.accept("op", "*"):
            return Deref(self.parse_unary(), pos=pos)
        if self.accept("op", "&"):
            return AddrOf(self.parse_unary(), pos=pos)
        if self.accept("op", "-"):
            return Unary("-", self.parse_unary(), pos=pos)
        if self.accept("op", "!"):
            return Unary("!", self.parse_unary(), pos=pos)
        return self.parse_postfix()

    def parse_postfix(self):
        e = self.parse_primary()
        while True:
            if self.at("punct", "("):
                self.expect("punct", "(")
                args = []
                if not self.at("punct", ")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept("punct", ","):
                            break
                self.expect("punct", ")")
                e = Call(e, args, pos=e.pos)
            elif self.at("punct", "["):
                self.expect("punct", "[")
                idx = self.parse_expr()
                self.expect("punct", "]")
                e = Index(e, idx, pos=e.pos)
            elif self.tok.kind == "op" and self.tok.text == "." and self.peek().kind == "id":
                self.expect("op", ".")
                member = self.expect("id").text
                e = Dot(e, member, pos=e.pos)
            elif self.tok.kind == "op" and self.tok.text == "->" and self.peek().kind == "id":
                self.expect("op", "->")
                member = self.expect("id").text
                e = Arrow(e, member, pos=e.pos)
            else:
                return e

    def parse_primary(self):
        pos = self.tok.pos
        if self.at("punct", "("):
            self.expect("punct", "(")
            e = self.parse_expr()
            self.expect("punct", ")")
            return e
        if self.tok.kind == "int":
            return IntLit(int(self.expect("int").text), pos=pos)
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
