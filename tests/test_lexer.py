import pytest

from declc import ast
from declc.errors import NOPOS, LexError, Pos, RuntimeFault
from declc.lexer import tokenize


def texts(src):
    return [t.text for t in tokenize(src) if t.kind != "eof"]


def kinds(src):
    return [t.kind for t in tokenize(src) if t.kind != "eof"]


def test_simple_declaration():
    toks = tokenize("int x = 3;")
    assert [(t.kind, t.text) for t in toks[:-1]] == [
        ("kw", "int"), ("id", "x"), ("op", "="), ("int", "3"), ("punct", ";")]
    assert toks[-1].kind == "eof"


def test_construct_operators_tokenize_as_units():
    assert texts("x := y;") == ["x", ":=", "y", ";"]
    assert texts("x ::= { }") == ["x", "::=", "{", "}"]
    assert texts("x > 0 ?? { }") == ["x", ">", "0", "??", "{", "}"]


def test_multi_char_operators_are_maximal():
    # there is no pointer-to-member operator: `->*` and `.*` are two tokens
    assert texts("a->b a->*b a.*b a<=b a>=b a==b a!=b && ||") == [
        "a", "->", "b", "a", "->", "*", "b", "a", ".", "*", "b", "a", "<=", "b",
        "a", ">=", "b", "a", "==", "b", "a", "!=", "b", "&&", "||"]


def test_deref_and_address_operators():
    assert texts("**x = &y;") == ["*", "*", "x", "=", "&", "y", ";"]


def test_comments_and_whitespace_skipped():
    src = "int x; // line comment\n/* block\ncomment */ int y;"
    assert texts(src) == ["int", "x", ";", "int", "y", ";"]


def test_keywords_vs_identifiers():
    assert kinds("int integer if iffy return returned") == [
        "kw", "id", "kw", "id", "kw", "id"]


def test_positions_track_lines_and_columns():
    toks = tokenize("int x;\n  y = 1;")
    y = next(t for t in toks if t.text == "y")
    assert (y.pos.line, y.pos.col) == (2, 3)


def test_pos_is_a_value_that_renders_as_line_colon_col():
    p = Pos(3, 7)
    assert str(p) == "3:7" and repr(p) == "Pos(line=3, col=7)"
    assert p == Pos(3, 7) and p != Pos(7, 3) and hash(p) == hash(Pos(3, 7))
    assert len({p, Pos(3, 7), NOPOS}) == 2
    assert NOPOS == Pos(0, 0) and str(NOPOS) == "0:0" and ast.IntLit(1).pos == NOPOS
    assert str(RuntimeFault("boom")) == "fault: boom"
    assert str(RuntimeFault("boom", p)) == "3:7: fault: boom"


def test_unknown_character_is_an_error():
    with pytest.raises(LexError):
        tokenize("int x = $;")


def error_pos(src):
    with pytest.raises(LexError) as info:
        tokenize(src)
    return info.value.msg, (info.value.pos.line, info.value.pos.col)


def test_error_carries_position():
    assert error_pos("x\n  @") == ("unrecognizable character '@'", (2, 3))


def test_unclosed_block_comment_reports_its_own_position():
    assert error_pos("int x; /* ok */\n  y /* never closed\nint z;") == (
        "unterminated comment", (2, 5))


@pytest.mark.parametrize("src,char", [
    ("int é = 1;", "é"),        # identifiers are ASCII
    ("int x = ²;", "²"),        # digits are ASCII
    ("int x = ٣;", "٣"),
    ("int x;\fint y;", "\f"),   # whitespace is space, tab, CR and LF
])
def test_non_ascii_letters_and_digits_are_unrecognizable(src, char):
    msg, _ = error_pos(src)
    assert msg == f"unrecognizable character {char!r}"


def test_eof_sits_after_a_trailing_line_comment():
    eof = tokenize("int x;\nx := 1; // done")[-1]
    assert (eof.kind, eof.text, eof.pos.line, eof.pos.col) == ("eof", "", 2, 16)


def test_columns_restart_after_crlf_line_ends():
    toks = tokenize("int x;\r\n  x := 1;\r\n\r\nint\ty;")
    assert [(t.text, t.pos.line, t.pos.col) for t in toks if t.kind != "punct"] == [
        ("int", 1, 1), ("x", 1, 5), ("x", 2, 3), (":=", 2, 5), ("1", 2, 8),
        ("int", 4, 1), ("y", 4, 5), ("", 4, 7)]
