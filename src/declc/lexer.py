"""Tokenizer for HybridC source text."""

import re
from typing import NamedTuple

from .errors import LexError, Pos

KEYWORDS = {
    "int", "bool", "void", "class", "private", "public",
    "if", "else", "while", "return", "true", "false", "null", "given",
}

# One alternative per token class, tried in order: comments before "/",
# `unclosed` only where no "*/" closes a "/*", and each operator before its
# prefixes ("::=" before ":=" before ":", "->" before "-").  Any other
# character is `bad`.
TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)
  | (?P<unclosed>/\*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<op>::=|:=|\?\?|->|==|!=|<=|>=|&&|\|\||[=<>+\-*/%!&.])
  | (?P<punct>[()\[\]{},;:])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # "id" | "int" | "kw" | "op" | "punct" | "eof"
    text: str
    pos: Pos


def tokenize(source: str) -> list[Token]:
    """Split source into tokens; raises LexError on unrecognizable input."""
    tokens = []
    line, line_start = 1, 0  # line_start: index of the current line's first character
    for m in TOKEN.finditer(source):
        kind, text, start = m.lastgroup, m.group(), m.start()
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        pos = Pos(line, start - line_start + 1)
        if kind == "id":
            if text in KEYWORDS:
                kind = "kw"
        elif kind == "unclosed":
            raise LexError("unterminated comment", pos)
        elif kind == "bad":
            raise LexError(f"unrecognizable character {text!r}", pos)
        tokens.append(Token(kind, text, pos))
    tokens.append(Token("eof", "", Pos(line, len(source) - line_start + 1)))
    return tokens
