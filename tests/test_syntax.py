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
from latlog.errors import (
    ArityMismatchError,
    BadPathError,
    LatlogError,
    ParseError,
    UnknownSymbolError,
)
from latlog.propcore import column_of
from latlog.syntax import (
    PredicateLanguage,
    ensure_object_constant,
    free_object_vars,
    inferred_language,
    prop_word_variables,
)

from genutil import is_prop_word

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


def _random_term(rng, depth):
    if depth <= 0 or rng.random() < 0.6:
        return Var(rng.choice("xyz")) if rng.random() < 0.8 else Func("c", ())
    return Func("f", (_random_term(rng, depth - 1),))


def _random_fo(rng, depth):
    """Random first-order formula over x, y, z (rebound freely), p, q."""
    r = rng.random()
    if depth <= 0 or r < 0.25:
        if rng.random() < 0.3:
            return PropVar(rng.choice("pq"))
        pred = rng.choice("PR")
        return Atom(pred, tuple(_random_term(rng, 2) for _ in range(rng.randint(0, 2))))
    if r < 0.55:
        kind = rng.choice(["forall", "exists"])
        return Quant(kind, rng.choice("xyz"), _random_fo(rng, depth - 1))
    conn = rng.choice(["&", "|", "->"])
    return App(conn, (_random_fo(rng, depth - 1), _random_fo(rng, depth - 1)))


def _random_mapping(rng):
    """Object variables to terms, propositional ones to formulas; now and then
    a value of the wrong kind, which both walks must reject alike."""
    out = {}
    for name in rng.sample("xyzpq", rng.randint(1, 3)):
        term = name in "xyz"
        if rng.random() < 0.05:
            term = not term
        out[name] = _random_term(rng, 2) if term else _random_fo(rng, 2)
    return out


def _outcome(walk, *args):
    try:
        result = walk(*args)
    except LatlogError as exc:
        return "error", str(exc)
    return "ok", render(result)


def test_substitute_matches_recursive_reference():
    import random

    from syntax_reference import reference_substitute

    rng = random.Random(14)
    captures = errors = 0
    for _ in range(1500):
        f, mapping = _random_fo(rng, 5), _random_mapping(rng)
        got = _outcome(substitute, f, mapping)
        assert got == _outcome(reference_substitute, f, mapping), (render(f), mapping)
        errors += got[0] == "error"
        captures += got[0] == "ok" and any(c.isdigit() for c in got[1])
    assert errors and captures  # both the error and the renaming paths were taken


def test_alpha_equal_matches_recursive_reference():
    import random

    from syntax_reference import reference_alpha_equal, reference_substitute

    def rename_bound(f, names):  # each quantifier binds the next name of ``names``
        if isinstance(f, Quant):
            fresh = next(names)
            return Quant(f.kind, fresh,
                         rename_bound(reference_substitute(f.body, {f.var: Var(fresh)}), names))
        if isinstance(f, App):
            return App(f.conn, tuple(rename_bound(a, names) for a in f.args))
        return f

    rng = random.Random(15)
    pool = [_random_fo(rng, 3) for _ in range(100)]
    pool += [rename_bound(f, iter(rng.sample("uvwxyz", 6) * 10)) for f in pool[:40]]
    pool += [parse_formula(t) for t in (
        "forall x. P(x, y)", "forall y. P(y, y)", "forall y. P(y, x)",
        "exists x. exists y. R(x, y)", "exists y. exists x. R(y, x)",
        "exists y. exists x. R(x, y)", "forall x. forall x. P(x)", "forall y. forall x. P(x)",
        "forall x. forall y. P(x)")]
    equal = 0
    for f in pool:
        for g in pool:
            got = alpha_equal(f, g)
            assert got == reference_alpha_equal(f, g), (render(f), render(g))
            equal += got and f != g
    assert equal > 40  # distinct formulas equal up to their bound names


def test_substitute_and_alpha_equal_walk_deep_chains():
    """A 3,001-atom chain, built as the parser and the Herbrand expansion
    build it, and a 3,001-arrow propositional one; the recursive walks
    raised RecursionError on both.  Deep formulas are compared through
    ``render``, since the dataclass ``==`` recurses."""
    text = " -> ".join(["P(c)"] * 3001)
    chain = parse_formula(text)
    assert alpha_equal(chain, parse_formula(text))
    assert not alpha_equal(chain, parse_formula(" -> ".join(["P(c)"] * 3000 + ["P(d)"])))
    assert render(substitute(chain, {"x": Func("d", ())})) == text
    atoms = [Atom("P", (Var("x"),))] * 3000 + [Atom("P", (Func("c", ()),))]
    open_chain = atoms[-1]
    for atom in reversed(atoms[:-1]):
        open_chain = App("->", (atom, open_chain))
    assert render(substitute(open_chain, {"x": Func("c", ())})) == text
    assert not alpha_equal(open_chain, chain)
    bound = Quant("forall", "x", open_chain)
    assert alpha_equal(bound, Quant("forall", "y", substitute(open_chain, {"x": Var("y")})))
    arrows = parse_formula(" -> ".join(["x"] * 3001))
    assert render(substitute(arrows, {"x": parse_formula("y & z")})) == \
        " -> ".join(["y & z"] * 3001)


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
