"""Recursive-descent parser for HybridC; binary operators by precedence
climbing.  Operators, punctuation and keywords are matched by their text
alone: each such text belongs to one token kind."""

from .ast import (
    AddrOf, Arrow, Assign, Binary, Block, BoolLit, Call, ClassDecl,
    Constraint, Deref, Dot, ExprStmt, FuncDecl, If, Index, IntLit,
    Monitor, Name, NullLit, Param, Precond, Return, Unary, Unit, VarDecl, While,
)
from .errors import ParseError, Pos
from .lexer import Token, tokenize

BASE_TYPES = {"int", "bool", "void"}
CONSTRUCTS = {":=": Constraint, "::=": Monitor, "??": Precond}
PREFIX = {"-": Unary, "!": Unary, "*": Deref, "&": AddrOf}
POSTFIX = {"(", "[", ".", "->"}

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

    def advance(self) -> Token:
        t = self.tok
        self.i += 1
        self.tok = self.tokens[self.i]
        return t

    def accept(self, text):
        """The current token, consumed, if its text is `text`; else None."""
        return self.advance() if self.tok.text == text else None

    def expect(self, text) -> Token:
        return self.advance() if self.tok.text == text else self.expected(text)

    def expect_kind(self, kind) -> Token:
        return self.advance() if self.tok.kind == kind else self.expected(kind)

    def expected(self, want):
        self.error(f"expected {want!r}, got {self.tok.text or 'end of input'!r}")

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
        t = self.expect_kind("int")
        try:
            return int(t.text)
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ParseError("integer literal too long", t.pos) from None

    # ------------------------------------------------------------------- unit

    def parse_unit(self) -> Unit:
        decls = []
        constructs = []
        while self.tok.kind != "eof":
            if self.tok.text == "class":
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
        text = self.tok.text
        if text in BASE_TYPES:
            return True
        # class-typed declaration: "A obj;" / "A *pa;"
        if text in self.class_names:
            nxt = self.tokens[self.i + 1]
            return nxt.kind == "id" or nxt.text == "*"
        return False

    def next_ordinal(self) -> int:
        n = self._ordinal
        self._ordinal += 1
        return n

    # ----------------------------------------------------------- declarations

    def parse_type_base(self) -> str:
        text = self.tok.text
        if text in BASE_TYPES or text in self.class_names:
            return self.advance().text
        self.error(f"expected a type name, got {text!r}")

    def parse_pointers(self) -> int:
        depth = 0
        while self.accept("*"):
            depth += 1
        return depth

    def parse_decl_or_func(self, in_class=None):
        pos = self.tok.pos
        base = self.parse_type_base()
        depth = self.parse_pointers()
        name = self.expect_kind("id").text
        if self.tok.text == "(":
            return self.parse_func_rest(base, depth, name, pos, in_class)
        size = None
        if self.accept("["):
            size = self.int_literal()
            self.expect("]")
        init = self.parse_expr() if self.accept("=") else None
        self.expect(";")
        return VarDecl(base, depth, name, size, init, pos=pos)

    def parse_param(self) -> Param:
        return Param(self.parse_type_base(), self.parse_pointers(), self.expect_kind("id").text)

    def parse_func_rest(self, base, depth, name, pos, in_class):
        self.expect("(")
        params = [] if self.tok.text == ")" else [self.parse_param()]
        while params and self.accept(","):
            params.append(self.parse_param())
        self.expect(")")
        body = self.parse_block()
        return FuncDecl(base, depth, name, params, body, pos=pos, cls=in_class)

    def parse_class(self) -> ClassDecl:
        pos = self.expect("class").pos
        name = self.expect_kind("id").text
        self.class_names.add(name)
        self.expect("{")
        members, methods, constructs = [], [], []
        access = "private"
        while self.tok.text != "}":
            if self.tok.text in ("private", "public"):
                access = self.advance().text
                self.expect(":")
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
        self.expect("}")
        self.expect(";")
        return ClassDecl(name, members, methods, constructs, pos=pos)

    # ------------------------------------------------------------- constructs

    def parse_construct(self, scope=None):
        t = self.tok
        e = self.parse_expr()
        pos, op = start_pos(t, e), self.tok.text
        if op not in CONSTRUCTS:
            self.error("expected ':=', '::=' or '??' after expression")
        self.advance()
        if op == ":=":
            rhs = self.parse_expr()
            guard = self.parse_expr() if self.accept("given") else None
            self.expect(";")
            return Constraint(e, rhs, guard, pos=pos, scope=scope,
                              ordinal=self.next_ordinal())
        body = self.parse_block()
        return CONSTRUCTS[op](e, body, pos=pos, scope=scope, ordinal=self.next_ordinal())

    # ------------------------------------------------------------- statements

    def parse_block(self) -> Block:
        pos = self.expect("{").pos
        stmts = []
        while self.tok.text != "}":
            stmts.append(self.parse_stmt())
        self.advance()
        return Block(stmts, pos=pos)

    def parse_stmt(self):
        level = self.depth
        self.nest()
        s = self.parse_stmt_at()
        self.depth = level
        return s

    def parse_stmt_at(self):
        t = self.tok
        if t.text == "{":
            return self.parse_block()
        if t.text in ("if", "while"):
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_stmt()
            if t.text == "while":
                return While(cond, body, pos=t.pos)
            orelse = self.parse_stmt() if self.accept("else") else None
            return If(cond, body, orelse, pos=t.pos)
        if t.text == "return":
            self.advance()
            value = None if self.tok.text == ";" else self.parse_expr()
            self.expect(";")
            return Return(value, pos=t.pos)
        if self.starts_decl():
            d = self.parse_decl_or_func()
            if isinstance(d, FuncDecl):
                self.error("nested functions are not supported")
            return d
        e = self.parse_expr()
        if self.accept("="):
            value = self.parse_expr()
            self.expect(";")
            return Assign(e, value, pos=start_pos(t, e))
        self.expect(";")
        return ExprStmt(e, pos=start_pos(t, e))

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
        level = self.depth
        if t.kind == "id":
            self.advance()
            e = Name(t.text, pos=t.pos)
        elif t.kind == "int":
            e = IntLit(self.int_literal(), pos=t.pos)
        elif t.text in PREFIX:
            self.advance()
            self.nest()
            operand = self.parse_unary()
            if t.text in "-!":
                return Unary(t.text, operand, pos=t.pos)
            return PREFIX[t.text](operand, pos=t.pos)
        else:
            e = self.parse_primary()
        while self.tok.text in POSTFIX:
            text = self.tok.text
            if text == "(":
                self.advance()
                self.nest()
                args = [] if self.tok.text == ")" else [self.below(level + 1, self.parse_binary, 1)]
                while args and self.accept(","):
                    args.append(self.below(level + 1, self.parse_binary, 1))
                self.expect(")")
                e = Call(e, args, pos=e.pos)
            elif text == "[":
                self.advance()
                self.nest()
                idx = self.below(level + 1, self.parse_binary, 1)
                self.expect("]")
                e = Index(e, idx, pos=e.pos)
            elif self.tokens[self.i + 1].kind == "id":  # "." or "->"
                self.advance()
                self.nest()
                e = (Arrow if text == "->" else Dot)(e, self.advance().text, pos=e.pos)
            else:
                break
        return e

    def parse_primary(self):
        """A parenthesized expression or a keyword literal."""
        t = self.tok
        if t.text == "(":
            self.advance()
            e = self.parse_binary(1)
            self.expect(")")
            return e
        if t.text in ("true", "false", "null"):
            self.advance()
            return NullLit(pos=t.pos) if t.text == "null" else BoolLit(t.text == "true", pos=t.pos)
        self.error(f"expected an expression, got {t.text!r}")


def start_pos(t: Token, e) -> Pos:
    """The position of t, where e starts: e's own Pos when e's leftmost
    operand is t, so that a statement and that operand share one object."""
    return e.pos if e.pos == (t.line, t.col) else t.pos


def parse_unit(tokens: list[Token]) -> Unit:
    return Parser(tokens).parse_unit()


def parse_source(source: str) -> Unit:
    return parse_unit(tokenize(source))
