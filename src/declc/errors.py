"""Diagnostics and error types shared by all compiler stages."""

from dataclasses import dataclass
from typing import NamedTuple


class Pos(NamedTuple):
    """A source position; the lexer builds one per token."""

    line: int  # 1-based
    col: int   # 1-based

    def __str__(self):
        return f"{self.line}:{self.col}"


NOPOS = Pos(0, 0)


class DeclcError(Exception):
    """Base for all errors raised by the toolchain."""


class LexError(DeclcError):
    def __init__(self, msg, pos):
        super().__init__(f"{pos}: error: {msg}")
        self.msg = msg
        self.pos = pos


class ParseError(DeclcError):
    def __init__(self, msg, pos):
        super().__init__(f"{pos}: error: {msg}")
        self.msg = msg
        self.pos = pos


@dataclass(frozen=True)
class Diagnostic:
    """A source error at pos."""

    pos: Pos
    message: str

    def render(self, filename="<input>"):
        return f"{filename}:{self.pos.line}:{self.pos.col}: error: {self.message}"


class CheckError(DeclcError):
    """Raised when semantic checking produces one or more error diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in self.diagnostics))


class RuntimeFault(DeclcError):
    """A fault raised while executing a program (null deref, bad index, ...)."""

    def __init__(self, msg, pos=NOPOS):
        super().__init__(f"{pos}: fault: {msg}" if pos != NOPOS else f"fault: {msg}")
        self.msg = msg
        self.pos = pos
