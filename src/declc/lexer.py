"""Tokenizer for HybridC source text."""

from dataclasses import dataclass

from .errors import LexError, Pos

KEYWORDS = {
    "int", "bool", "void", "class", "private", "public",
    "if", "else", "while", "return", "true", "false", "null", "given",
}

# Longest-match first. "::=" before ":=", "->" before "-", etc.
OPERATORS = [
    "::=", ":=", "??", "->", "==", "!=", "<=", ">=", "&&", "||",
    "=", "<", ">", "+", "-", "*", "/", "%", "!", "&", ".",
]

PUNCTUATION = ["(", ")", "[", "]", "{", "}", ",", ";", ":"]


@dataclass(frozen=True)
class Token:
    kind: str  # "id" | "int" | "kw" | "op" | "punct" | "eof"
    text: str
    pos: Pos

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.pos})"


def tokenize(source: str) -> list[Token]:
    """Split source into tokens; raises LexError on unrecognizable input."""
    tokens = []
    i = 0
    line, col = 1, 1
    n = len(source)

    def advance(k):
        nonlocal i, line, col
        for ch in source[i:i + k]:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        i += k

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            advance((j if j != -1 else n) - i)
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j == -1:
                raise LexError("unterminated comment", Pos(line, col))
            advance(j + 2 - i)
            continue
        pos = Pos(line, col)
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            tokens.append(Token("kw" if text in KEYWORDS else "id", text, pos))
            advance(j - i)
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], pos))
            advance(j - i)
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, pos))
                advance(len(op))
                break
        else:
            if ch in PUNCTUATION:
                tokens.append(Token("punct", ch, pos))
                advance(1)
            else:
                raise LexError(f"unrecognizable character {ch!r}", pos)
    tokens.append(Token("eof", "", Pos(line, col)))
    return tokens
