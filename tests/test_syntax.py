import pytest
from hypothesis import given, strategies as st

from latlog import (
    App,
    Atom,
    Const,
    Func,
    PropVar,
    Quant,
    Var,
    alpha_equal,
    classify_quantifiers,
    parse_formula,
    polarity_of,
    render,
    substitute,
)
from latlog.algebra import Connective, default_signature
from latlog.bundled import bundled_lattice
from latlog.errors import ArityMismatchError, BadPathError, ParseError, UnknownSymbolError
from latlog.propcore import column_of
from latlog.syntax import (
    PredicateLanguage,
    ensure_object_constant,
    free_object_vars,
    inferred_language,
    is_prop_word,
    prop_word_variables,
)

imp = lambda a, b: App("->", (a, b))
x, y, z = PropVar("x"), PropVar("y"), PropVar("z")


# ---------------------------------------------------------------------------
# parsing


def test_parse_witness_formula():
    f = parse_formula("x & (x -> #0) -> (y | (y -> #0))")
    assert f == imp(
        App("&", (x, imp(x, Const("0")))),
        App("|", (y, imp(y, Const("0")))),
    )


def test_parse_quantifier_scope_runs_to_group_end():
    f = parse_formula("exists x. B(x) -> exists y. forall z. C(y,z)")
    # the dot scope swallows the implication, giving one nested-quantifier AST
    assert isinstance(f, Quant) and f.kind == "exists"
    body = f.body
    assert isinstance(body, App) and body.conn == "->"
    succ = body.args[1]
    assert isinstance(succ, Quant) and succ.kind == "exists"
    assert isinstance(succ.body, Quant) and succ.body.kind == "forall"


def test_parse_delimited_quantifier_body():
    f = parse_formula("exists x.(B(x)) -> C")
    assert isinstance(f, App) and f.conn == "->"
    assert f == imp(Quant("exists", "x", Atom("B", (Var("x"),))), Atom("C"))


def test_parse_bare_variable():
    assert parse_formula("x") == x


def test_precedence_and_associativity():
    assert parse_formula("x -> y -> z") == imp(x, imp(y, z))
    assert parse_formula("x | y & z") == App("|", (x, App("&", (y, z))))
    assert parse_formula("x & y | z") == App("|", (App("&", (x, y)), z))


def test_parse_extra_connective_prefix():
    sig = default_signature((Connective("Box_up", 1, ("+",)),))
    f = parse_formula("Box_up(x) -> y", sig)
    assert f == imp(App("Box_up", (x,)), y)
    with pytest.raises(ArityMismatchError):
        parse_formula("Box_up(x, y)", sig)


def test_variable_namespaces_do_not_mix():
    with pytest.raises(ParseError):
        parse_formula("exists x. (x & B(x))")
    with pytest.raises(ParseError):
        parse_formula("forall p. P(p) -> p")


def test_unknown_symbols_rejected_with_language():
    lang = PredicateLanguage({"P": 1}, {"c": 0})
    with pytest.raises(UnknownSymbolError):
        parse_formula("Q(c)", language=lang)
    with pytest.raises(UnknownSymbolError):
        parse_formula("P(f(c))", language=lang)
    with pytest.raises(ArityMismatchError):
        parse_formula("P(c, c)", language=lang)


def test_inference_reads_unbound_term_names_as_constants():
    f = parse_formula("P(c,d,d) -> exists x. P(c,x,d)")
    lang = inferred_language(f)
    assert lang.predicates == {"P": 3}
    assert lang.functions == {"c": 0, "d": 0}
    assert free_object_vars(f) == set()


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("x & (y |)")
    assert "position" in exc.value.message


# ---------------------------------------------------------------------------
# rendering


def test_render_minimal_parens():
    f = imp(x, imp(y, z))
    assert render(f) == "x -> y -> z"
    g = imp(imp(x, y), z)
    assert render(g) == "(x -> y) -> z"


def test_render_quantifier_wrapping():
    f = App("&", (Atom("C"), Quant("exists", "x", Atom("B", (Var("x"),)))))
    assert render(f) == "C & (exists x. B(x))"
    assert parse_formula(render(f)) == f
    g = Quant("exists", "x", imp(imp(Atom("A"), Atom("B")), Atom("C")))
    assert parse_formula(render(g)) == g


# ---------------------------------------------------------------------------
# polarity and quantifier classification


def test_polarity_examples():
    f = imp(x, y)
    assert polarity_of(f, (0,)) == "-"
    assert polarity_of(f, ()) == "+"
    g = imp(imp(x, y), z)
    assert polarity_of(g, (0, 0)) == "+"
    with pytest.raises(BadPathError):
        polarity_of(f, (2,))


def test_double_antecedent_position_is_monotone_on_classical():
    """Oracle for the (-)(-) = + example: on the two-element lattice, raising
    the doubly-negative subformula never lowers ((A -> B) -> C)."""
    lat = bundled_lattice("classical")
    a, b, c = PropVar("a"), PropVar("b"), PropVar("c")
    f_low = imp(imp(App("&", (a, PropVar("a2"))), b), c)   # A = a & a2
    f_high = imp(imp(App("|", (a, PropVar("a2"))), b), c)  # pointwise larger A
    cols_low = column_of(f_low, lat, ("a", "a2", "b", "c"))
    cols_high = column_of(f_high, lat, ("a", "a2", "b", "c"))
    assert all(bool(lat.leq[l, h]) for l, h in zip(cols_low, cols_high))


def test_positive_positions_are_monotone_negative_antitone(rng):
    """Replacing the subformula at a positive position by a pointwise larger
    one never lowers the whole formula's value; dually at negative positions.
    Exhaustive over all valuations of up to three variables."""
    from genutil import random_word
    from latlog.syntax import children

    def rebuild(f, path, replacement):
        if not path:
            return replacement
        kids = list(children(f))
        kids[path[0]] = rebuild(kids[path[0]], path[1:], replacement)
        if isinstance(f, App):
            return App(f.conn, tuple(kids))
        return Quant(f.kind, f.var, kids[0])

    def paths(f, prefix=()):
        yield prefix
        for i, c in enumerate(children(f)):
            yield from paths(c, prefix + (i,))

    variables = ("x", "y", "z")
    for lat_name in ("godel3", "mc"):
        lat = bundled_lattice(lat_name)
        for _ in range(15):
            f = random_word(rng, list(variables), lat, depth=3)
            all_paths = list(paths(f))
            path = all_paths[rng.randrange(len(all_paths))]
            sign = polarity_of(f, path)
            sub = f
            for step in path:
                sub = children(sub)[step]
            bigger = App("|", (sub, random_word(rng, list(variables), lat, depth=1)))
            g = rebuild(f, path, bigger)
            col_f = column_of(f, lat, variables)
            col_g = column_of(g, lat, variables)
            if sign == "+":
                assert all(bool(lat.leq[a, b]) for a, b in zip(col_f, col_g))
            else:
                assert all(bool(lat.leq[b, a]) for a, b in zip(col_f, col_g))


def test_classify_strong_weak():
    f = parse_formula("(exists x. B(x)) -> exists y. forall z. C(y,z)")
    occs = {(o.path, o.quantifier): o.strength for o in classify_quantifiers(f)}
    assert occs[((0,), "exists")] == "strong"   # antecedent position
    assert occs[((1,), "exists")] == "weak"     # succedent position
    assert occs[((1, 0), "forall")] == "strong"


# ---------------------------------------------------------------------------
# substitution


def test_substitute_propositional():
    f = App("&", (x, y))
    assert substitute(f, {"x": y}) == App("&", (y, y))


def test_substitute_capture_avoidance():
    f = Quant("forall", "x", Atom("P", (Var("x"), Var("y"))))
    g = substitute(f, {"y": Func("f", (Var("x"),))})
    assert isinstance(g, Quant)
    assert g.var != "x"
    assert g.body == Atom("P", (Var(g.var), Func("f", (Var("x"),))))


def test_substitute_collapse_word_shape():
    """Collapsing x2 onto x1 produces the (x1 -> x2) & (x2 -> x1) conjunct."""
    from sigma_collapse import collapse_word

    sigma = {"x1": "x1", "x2": "x1"}
    w = collapse_word(sigma, ["x1", "x2"])
    rendered = render(w)
    assert "(x1 -> x2)" in rendered and "(x2 -> x1)" in rendered


def test_substitute_bound_occurrences_untouched():
    f = Quant("forall", "x", Atom("P", (Var("x"),)))
    assert substitute(f, {"x": Func("c", ())}) == f


# ---------------------------------------------------------------------------
# misc helpers


def test_is_prop_word():
    assert is_prop_word(parse_formula("x & #0 -> y"))
    assert not is_prop_word(parse_formula("P(c)"))
    assert not is_prop_word(parse_formula("exists x. B(x)"))


def test_prop_word_variables():
    assert prop_word_variables(parse_formula("x & #0 -> (y | x)")) == {"x", "y"}
    assert prop_word_variables(parse_formula("#0")) == set()
    assert prop_word_variables(parse_formula("x -> P(c)")) is None
    assert prop_word_variables(parse_formula("y | exists x. B(x)")) is None


def test_alpha_equal():
    f = parse_formula("exists x. B(x)")
    g = parse_formula("exists y. B(y)")
    assert alpha_equal(f, g)
    assert not alpha_equal(f, parse_formula("forall y. B(y)"))
    assert not alpha_equal(parse_formula("exists x. exists y. R(x,y)"),
                           parse_formula("exists x. exists y. R(y,x)"))


def test_ensure_object_constant():
    lang = PredicateLanguage({"P": 1}, {})
    lang2, added = ensure_object_constant(lang)
    assert added == "c0"
    assert lang2.functions == {"c0": 0}
    lang3, added3 = ensure_object_constant(lang2)
    assert added3 is None


# ---------------------------------------------------------------------------
# hypothesis round-trip


@st.composite
def prop_words(draw, depth=0):
    if depth >= 4 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "y", "z", "#0", "#1"]))
        return Const(leaf[1:]) if leaf.startswith("#") else PropVar(leaf)
    conn = draw(st.sampled_from(["|", "&", "->"]))
    return App(conn, (draw(prop_words(depth=depth + 1)),
                      draw(prop_words(depth=depth + 1))))


@given(prop_words())
def test_roundtrip_prop_words(f):
    assert parse_formula(render(f)) == f
