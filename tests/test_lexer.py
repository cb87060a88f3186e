import pytest

from declc.errors import LexError
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


def test_unknown_character_is_an_error():
    with pytest.raises(LexError):
        tokenize("int x = $;")


def test_error_carries_position():
    try:
        tokenize("x\n  @")
    except LexError as e:
        assert "2" in str(e)
    else:
        pytest.fail("expected LexError")
