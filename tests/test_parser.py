"""The operator-precedence parser against the recursive-descent reference,
and parsing and rendering at depths the interpreter's recursion limit would
not allow."""
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from latlog import App, Atom, Const, Func, PropVar, Quant, Var, parse_formula, render
from latlog.algebra import Connective, default_signature
from latlog.errors import LatlogError, ParseError
from latlog.syntax import PredicateLanguage

import parser_reference

SIGNATURES = [
    None,
    default_signature((Connective("K", 1, ("+",)), Connective("Mid", 0, ()),
                       Connective("Med", 3, ("+", "+", "+")))),
]
LANGUAGES = [None, PredicateLanguage({"P": 1, "Q": 2}, {"f": 1, "g": 2, "c": 0})]


def outcome(parse, text, signature, language):
    try:
        return "ast", parse(text, signature, language)
    except LatlogError as exc:  # any other exception fails the test
        return type(exc).__name__, str(exc)


def assert_same_parse(text):
    for signature in SIGNATURES:
        for language in LANGUAGES:
            got = outcome(parse_formula, text, signature, language)
            want = outcome(parser_reference.parse_formula, text, signature, language)
            assert got == want, (text, signature, language)


TOKENS = ["(", ")", "&", "|", "->", ".", ",", "#", "x", "y", "z", "c", "f", "g", "P", "Q",
          "K", "Mid", "Med", "forall", "exists", "0", "1", "_a", "@"]


@given(st.lists(st.sampled_from(TOKENS), max_size=14), st.sampled_from([" ", ""]))
def test_token_sequences_parse_like_the_reference(tokens, sep):
    assert_same_parse(sep.join(tokens))


@given(st.text(alphabet="xyPfK()&|->.,#0 \t\n@é", max_size=20))
def test_random_words_parse_like_the_reference(text):
    assert_same_parse(text)


def _terms(t):
    return st.one_of(t.map(lambda a: f"f({a})"),
                     st.tuples(t, t).map(lambda p: f"g({p[0]}, {p[1]})"))


TERMS = st.recursive(st.sampled_from(["c", "x", "y", "f", "P"]), _terms, max_leaves=4)
SENTENCE_LEAVES = st.one_of(
    st.sampled_from(["x", "y", "#0", "Mid()", "Mid", "K()", "Q", "f"]),
    TERMS.map(lambda t: f"P({t})"),
    st.tuples(TERMS, TERMS).map(lambda p: f"Q({p[0]}, {p[1]})"),
)


def _sentences(s):
    return st.one_of(
        st.tuples(s, st.sampled_from([" -> ", " | ", " & "]), s).map("".join),
        s.map(lambda a: f"({a})"),
        st.tuples(st.sampled_from(["forall", "exists"]), st.sampled_from(["x", "y", "c"]),
                  st.sampled_from([". ", ".", ".(", ". ("]), s).map(
            lambda p: f"{p[0]} {p[1]}{p[2]}{p[3]}" + (")" if "(" in p[2] else "")),
        s.map(lambda a: f"K({a})"),
        st.tuples(s, s, s).map(lambda p: f"Med({p[0]}, {p[1]}, {p[2]})"),
        st.tuples(st.sampled_from(["K", "P", ""]), s, s).map(lambda p: f"{p[0]}({p[1]}, {p[2]})"),
    )


@given(st.recursive(SENTENCE_LEAVES, _sentences, max_leaves=8))
def test_sentences_parse_like_the_reference(text):
    assert_same_parse(text)


def _deep_formulas(depth):
    """Formulas nested ``depth`` levels in several shapes."""
    x, y = PropVar("x"), PropVar("y")
    right = left = bracketed = mixed = x
    quantified = Atom("P", (Var("v0"),))
    t = Func("c")
    for i in range(depth):
        right = App("->", (y, right))
        left = App("->", (left, y))
        bracketed = App("&", (y, App("|", (bracketed, Const("0")))))
        mixed = App(["&", "|", "->", "K"][i % 4], (mixed,) if i % 4 == 3 else (mixed, x))
        quantified = Quant("forall" if i % 2 else "exists", f"v{i % 7}",
                           App("->", (quantified, Atom("P", (Var(f"v{i % 7}"),)))))
        t = Func("f", (t,))
    return [right, left, bracketed, mixed, quantified, Atom("P", (t,))]


def test_render_round_trip_at_depth_3000():
    """Rendered text, not ASTs, is compared: comparing or hashing such deep
    dataclasses recurses once per level."""
    for f in _deep_formulas(3000):
        text = render(f)
        assert render(parse_formula(text, SIGNATURES[1])) == text


def test_deep_rendering_matches_the_recursive_shape():
    """At a depth the reference can still parse, the deep shapes parse to
    the same ASTs under both parsers."""
    for f in _deep_formulas(40):
        assert_same_parse(render(f))


@pytest.mark.parametrize("text, text_out", [
    ("(" * 3000 + "x" + ")" * 3000, "x"),
    ("x" + " & y" * 3000, None),
    ("P(" + "f(" * 3000 + "c" + ")" * 3001, None),
    ("K(" * 3000 + "x" + ")" * 3000, None),
], ids=["brackets", "conjunction", "term", "call"])
def test_deep_input_parses(text, text_out):
    assert render(parse_formula(text, SIGNATURES[1])) == (text_out or text)


def _error(parse, text, signature=None):
    with pytest.raises(ParseError) as exc:
        parse(text, signature)
    return exc.value


@pytest.mark.parametrize("text, position", [
    ("x &", 3),                  # end of input: the position is len(text)
    ("x & ", 4),                 # end of input after trailing whitespace
    ("  (x", 4),
    ("x & (y |)", 8),
    ("x y", 2),                  # the last token
    ("x -> y z", 7),
    ("  x & #", 7),              # leading whitespace
    ("x & #  ", 7),
    ("\t#(", 2),
    ("x & (y | @)", 9),          # a bad character after a run of tokens
    ("x &\t@", 4),               # a tab before a bad character
    ("x\n& @", 4),               # a newline before a bad character
    ("x & é", 4),
    ("é", 0),
    ("x - > y", 2),              # '-' starts a token only as part of '->'
    ("x --> y", 2),
    ("x ->> y", 4),
    ("forall 1. P(c)", 7),
    ("forall x P(x)", 9),
    ("exists x.(P(x)", 14),
    ("P(c, )", 5),
    ("P(f(c) -> Q", 7),
    ("K(x, y", 6),
    ("K x", 2),
    ("Mid(", 4),
    ("x & y(", 5),
])
def test_parse_error_positions_match_the_reference(text, position):
    """Messages and ``details`` agree with the reference, whose tokenizer
    keeps every token's position; the position is also given explicitly."""
    got = _error(parse_formula, text, SIGNATURES[1])
    want = _error(parser_reference.parse_formula, text, SIGNATURES[1])
    assert (got.message, got.details) == (want.message, want.details)
    assert got.details == {"position": position}
    assert got.message.endswith(f" at position {position}")


def test_default_signature_is_shared_and_read_only():
    sig = default_signature()
    assert default_signature() is sig and default_signature(()) is sig
    assert sig.names() == ("|", "&", "->")
    with pytest.raises(dataclasses.FrozenInstanceError):
        sig.connectives = ()
    with pytest.raises(TypeError):
        sig.by_name["K"] = Connective("K", 1, ("+",))
    with pytest.raises(AttributeError):
        sig.by_name.pop("->")
    assert sig.names() == ("|", "&", "->") and sig.get("K") is None
    assert parse_formula("x -> y") == App("->", (PropVar("x"), PropVar("y")))


def test_default_signature_with_extras_is_fresh_and_checked():
    k = Connective("K", 1, ("+",))
    first, second = default_signature((k,)), default_signature((k,))
    assert first is not second and first == second
    assert first.get("K") is k and default_signature().get("K") is None
    assert first.names() == ("|", "&", "->", "K")
    with pytest.raises(LatlogError):
        default_signature((Connective("K", 1, ("+", "+")),))
    with pytest.raises(LatlogError):
        default_signature((Connective("&", 2, ("+", "+")),))
    assert pickle.loads(pickle.dumps(first)) == first
