"""Tokenizer for HybridC source text."""

import re
import string
from typing import NamedTuple

from .errors import LexError, Pos

KEYWORDS = {
    "int", "bool", "void", "class", "private", "public",
    "if", "else", "while", "return", "true", "false", "null", "given",
}

# A token's kind: from its whole text for keywords, operators and
# punctuation (each such text belongs to one kind), else from its first
# character.  A text with neither is an error.
KIND = {**dict.fromkeys(KEYWORDS, "kw"), **dict.fromkeys("()[]{},;:", "punct"),
        **dict.fromkeys("::= := ?? -> == != <= >= && || = < > + - * / % ! & .".split(), "op")}
FIRST = {**dict.fromkeys(string.ascii_letters + "_", "id"), **dict.fromkeys(string.digits, "int")}

# One match per token: (the whitespace and comments before it, its text).
# Operators come before their prefixes, "/*" is a token only where no "*/"
# closes it, any other character is a token of no kind and "" ends the input:
# so the text always matches after the longest skip, which never backtracks.
TOKEN = re.compile(r"""
    ([ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/)[ \t\r\n]*)*)
    ([A-Za-z_][A-Za-z0-9_]*|[0-9]+|::=|:=|\?\?|->|==|!=|<=|>=|&&|\|\||/\*|.|\Z)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # "id" | "int" | "kw" | "op" | "punct" | "eof"
    text: str
    line: int  # 1-based
    col: int   # 1-based

    @property
    def pos(self) -> Pos:
        return tuple.__new__(Pos, self[2:])


def tokenize(source: str) -> list[Token]:
    """Split source into tokens; raises LexError on unrecognizable input."""
    tokens = []
    append, new = tokens.append, tuple.__new__  # skips the NamedTuple's Python __new__
    line, line_start, offset = 1, 0, 0  # line_start: index of the current line's first character
    for skip, text in TOKEN.findall(source):
        if skip:
            if "\n" in skip:
                line += skip.count("\n")
                line_start = offset + skip.rindex("\n") + 1
            offset += len(skip)
        kind = KIND.get(text) or FIRST.get(text[:1])
        if kind is None:
            if not text:
                break
            pos = Pos(line, offset - line_start + 1)
            if text == "/*":
                raise LexError("unterminated comment", pos)
            raise LexError(f"unrecognizable character {text!r}", pos)
        append(new(Token, (kind, text, line, offset - line_start + 1)))
        offset += len(text)
    append(Token("eof", "", line, offset - line_start + 1))
    return tokens
