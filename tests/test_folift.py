import itertools

import pytest

from latlog import (
    App,
    Atom,
    Func,
    Quant,
    Var,
    alpha_equal,
    bundled_lattice,
    parse_formula,
    propcore,
    render,
)
from latlog.errors import (
    LatlogError,
    PropInterpolationFailed,
    SmokeTestFailed,
    StrongQuantifierPresent,
    UninterpretedSymbol,
    UnknownValidity,
)
from latlog.folift import (
    FoBudgets,
    FoStructure,
    PipelineTrace,
    SkolemRecord,
    _smoke_test,
    check_valid_expansion,
    enumerate_closed_terms,
    expand_n,
    find_herbrand_expansion,
    fo_eval,
    fo_interpolate,
    generalize_interpolant,
    skolemize,
)
from latlog.interp import find_prop_interpolant
from latlog.syntax import (
    PredicateLanguage,
    atoms_of,
    classify_quantifiers,
    free_object_vars,
    functions_of,
    predicates_of,
)

from folift_reference import plain_fo_eval, reference_smoke

from genutil import DEEP_SENTENCES, all_unary_structures, join_idx
from property_checks import check_lemma_alpha, check_skolem_witness

imp = lambda a, b: App("->", (a, b))


# ---------------------------------------------------------------------------
# evaluation


def test_fo_eval_singleton_meet(mc):
    for v in range(mc.m):
        s = FoStructure(("d",), {"P": {("d",): v}})
        assert fo_eval(parse_formula("forall x. P(x)"), mc, s) == mc.elements[v]


@pytest.mark.parametrize("text", ["P(c) -> Q(c)", "Q(c) | P(c)", "forall x. Q(x)"])
def test_fo_eval_rejects_a_table_entry_that_is_not_an_element(classical, text):
    """Connectives gather from flattened tables, where an out-of-range value
    would read another entry."""
    s = FoStructure((0,), {"P": {(0,): 0}, "Q": {(0,): 2}}, {"c": {(): 0}})
    with pytest.raises(LatlogError, match="'Q' at \\(0,\\) is 2, not an element index"):
        fo_eval(parse_formula(text), classical, s)


def test_fo_eval_classical_two_points(classical):
    s = FoStructure(("c", "d"), {"P": {("c",): 1, ("d",): 0}})
    assert fo_eval(parse_formula("exists x. P(x)"), classical, s) == "1"
    assert fo_eval(parse_formula("forall x. P(x)"), classical, s) == "0"


def test_fo_eval_mc_join_of_incomparables(mc):
    """Oracle: the join of the two incomparable up-sets is their union w."""
    u1, u2 = mc.index("u1"), mc.index("u2")
    assert mc.elements[join_idx(mc, u1, u2)] == "w"
    s = FoStructure(("c", "d"), {"P": {("c",): u1, ("d",): u2}})
    assert fo_eval(parse_formula("exists x. P(x)"), mc, s) == "w"


def test_fo_eval_uninterpreted(classical):
    s = FoStructure(("c",), {})
    with pytest.raises(UninterpretedSymbol):
        fo_eval(parse_formula("P(c)"), classical, s)


@pytest.mark.parametrize("text, symbol, message", [
    (Atom("P", (Var("x"),)), "x", "object variable 'x' unassigned"),
    (Quant("forall", "y", App("&", (Atom("P", (Var("x"),)), Atom("P", (Var("y"),))))),
     "x", "object variable 'x' unassigned"),
    ("Q(c)", "Q", "predicate 'Q' uninterpreted"),
    ("P(g(c))", "g", "function symbol 'g' uninterpreted"),
    ("forall x. P(f(x))", "f", "function 'f' undefined at ('b',)"),
    ("forall x. R(x, c)", "R", "predicate 'R' undefined at ('b', 'a')"),
])
def test_fo_eval_names_what_it_cannot_interpret(classical, text, symbol, message):
    """A free variable without a value, a symbol without a table, and a
    table without the entry that evaluation reaches."""
    s = FoStructure(("a", "b"), {"P": {("a",): 1, ("b",): 0}, "R": {("a", "a"): 1}},
                    {"c": {(): "a"}, "f": {("a",): "b"}})
    phi = parse_formula(text) if isinstance(text, str) else text
    with pytest.raises(UninterpretedSymbol) as info:
        fo_eval(phi, classical, s)
    assert (info.value.message, info.value.details) == (message, {"symbol": symbol})


def test_fo_eval_needs_a_domain_under_a_quantifier(classical):
    s = FoStructure((), {"P": {}, "D": {(): 0}})
    with pytest.raises(LatlogError, match="^empty domain$") as info:
        fo_eval(parse_formula("forall x. P(x)"), classical, s)
    assert not isinstance(info.value, UninterpretedSymbol)
    assert fo_eval(parse_formula("D -> D"), classical, s) == "1"


# ---------------------------------------------------------------------------
# skolemization


def test_skolemize_strong_forall_in_succedent(mc):
    phi = parse_formula("(exists x. B(x)) -> exists y. forall z. C(y,z)")
    out, record = skolemize(phi, mc)
    assert len(record.entries) == 2
    assert record.family_size == 5
    # antecedent existential became a five-fold join of constants
    ante, succ = out.args
    assert render(ante).count("B(") == 5
    # succedent: the universal became a five-fold meet under the weak exists
    assert isinstance(succ, Quant) and succ.kind == "exists"
    inner = render(succ.body)
    assert inner.count("C(y,") == 5
    entry = record.entries[1]
    assert entry.quantifier == "forall"
    assert entry.arguments == ("y",)
    assert len(entry.functions) == 5
    # no strong quantifiers remain
    assert all(o.strength == "weak" for o in classify_quantifiers(out))


def test_skolemize_conjunction_context(mc):
    phi = parse_formula("(exists x.(B(x) & forall y. C(y))) -> exists x.(A(x) | B(x))")
    out, record = skolemize(phi, mc)
    ante = out.args[0]
    text = render(ante)
    # five copies, each keeping its weak universal
    assert text.count("forall y. C(y)") == 5
    assert len(record.entries) == 1


def test_skolemize_weak_only_is_identity(godel3):
    phi = parse_formula("(forall x. B(x)) -> exists y. B(y)")
    out, record = skolemize(phi, godel3)
    assert out == phi
    assert record.entries == []


def test_skolemize_nested_strong_gets_fresh_families_per_copy(classical):
    # two nested strong existentials in the antecedent: the outer replacement
    # duplicates the inner one, which then gets its own family in each copy
    phi = parse_formula("(exists x. exists y. R(x,y)) -> D")
    out, record = skolemize(phi, classical)
    assert len(record.entries) == 1 + classical.m
    names = [f for e in record.entries for f in e.functions]
    assert len(names) == len(set(names))


# ---------------------------------------------------------------------------
# closed terms


def test_two_constants_enumeration_exhausts():
    lang = PredicateLanguage({}, {"c": 0, "d": 0})
    terms = enumerate_closed_terms(lang, 2)
    assert [str(t) for t in terms] == ["c", "d"]
    assert [str(t) for t in enumerate_closed_terms(lang, 3)] == ["c", "d"]


def test_unary_chain():
    lang = PredicateLanguage({}, {"c": 0, "f": 1})
    terms = enumerate_closed_terms(lang, 4)
    assert [str(t) for t in terms] == ["c", "f(c)", "f(f(c))", "f(f(f(c)))"]


def test_prefix_stability():
    lang = PredicateLanguage({}, {"c": 0, "d": 0, "g": 2})
    for k in range(1, 12):
        shorter = enumerate_closed_terms(lang, k)
        longer = enumerate_closed_terms(lang, k + 1)
        assert longer[:len(shorter)] == shorter


def test_mc_skolem_constants_order():
    lang = PredicateLanguage({}, {f"sk1_{i}": 0 for i in range(1, 6)})
    terms = enumerate_closed_terms(lang, 5)
    assert [str(t) for t in terms] == [f"sk1_{i}" for i in range(1, 6)]


# ---------------------------------------------------------------------------
# expansions


def test_expansion_sequence_matches_worked_example(mc):
    phi = parse_formula("P(c,d,d) -> exists x. P(c,x,d)")
    e1 = expand_n(phi, 1)
    assert e1 == parse_formula("P(c,d,d) -> P(c,c,d)")
    e2 = expand_n(phi, 2)
    assert e2 == parse_formula("P(c,d,d) -> P(c,c,d) | P(c,d,d)")
    assert expand_n(phi, 3) == e2  # only two closed terms exist


def test_expand_quantifier_free_unchanged(godel3):
    phi = parse_formula("P(c) -> P(c) | Q(c)")
    for n in (1, 2, 5):
        assert expand_n(phi, n) == phi


def test_expand_rejects_strong_quantifiers(godel3):
    phi = parse_formula("(exists x. P(x)) -> Q(c)")
    with pytest.raises(StrongQuantifierPresent):
        expand_n(phi, 2)


def test_expand_adds_constant_when_needed(godel3):
    phi = parse_formula("exists x. P(x)")
    e1 = expand_n(phi, 1)
    assert e1 == Atom("P", (Func("c0", ()),))


def test_check_valid_expansion_examples(mc):
    phi = parse_formula("P(c,d,d) -> exists x. P(c,x,d)")
    e1 = expand_n(phi, 1)
    e2 = expand_n(phi, 2)
    c1 = check_valid_expansion(e1, mc)
    assert not c1.valid
    # oracle: the countermodel really separates the two atoms
    assert c1.countermodel is not None
    assert set(c1.countermodel) == {"P(c, d, d)", "P(c, c, d)"}
    assert check_valid_expansion(e2, mc).valid
    assert check_valid_expansion(parse_formula("A(c) -> A(c)"), mc).valid


def test_check_valid_expansion_countermodel_brute_force(mc):
    """Oracle: brute-force a countervaluation of E1 over the two atoms."""
    phi = parse_formula("P(c,d,d) -> P(c,c,d)")
    found = None
    for v1 in range(mc.m):
        for v2 in range(mc.m):
            if not mc.leq[v1, v2]:
                found = (v1, v2)
                break
        if found:
            break
    assert found is not None
    check = check_valid_expansion(phi, mc)
    assert not check.valid
    p1 = mc.index(check.countermodel["P(c, d, d)"])
    p2 = mc.index(check.countermodel["P(c, c, d)"])
    assert not mc.leq[p1, p2]


def test_find_herbrand_expansion(mc):
    phi = parse_formula("P(c,d,d) -> exists x. P(c,x,d)")
    search = find_herbrand_expansion(phi, mc)
    assert search.status == "FOUND"
    assert search.n == 2
    assert search.expansion == parse_formula("P(c,d,d) -> P(c,c,d) | P(c,d,d)")
    assert search.checks == [(1, False), (2, True)]
    assert search.exhausted_at == 2


def test_find_herbrand_unknown_for_invalid(mc):
    phi = parse_formula("P(c) -> exists x. Q(x)")
    search = find_herbrand_expansion(phi, mc, max_n=3)
    assert search.status == "UNKNOWN"


def test_expansion_evaluation_stabilizes(godel3):
    """Term-structure evaluation of the expansions stabilizes at the term
    count: with two constants, E_2 already evaluates like the original."""
    lang = PredicateLanguage({"P": 1}, {"c": 0, "d": 0})
    phi = parse_formula("(forall x. P(x)) -> exists y. P(y)", language=lang)
    e2 = expand_n(phi, 2, language=lang)
    for table in itertools.product(range(godel3.m), repeat=2):
        s = FoStructure(("c", "d"),
                        {"P": {("c",): table[0], ("d",): table[1]}},
                        {"c": {(): "c"}, "d": {(): "d"}})
        # the expansion is ground; evaluate both in the same structure
        assert fo_eval(phi, godel3, s) == fo_eval(e2, godel3, s)


def test_weak_quantifier_round_trip(godel3):
    """forall implies its instances' meet; the instances' join implies exists."""
    for table in itertools.product(range(godel3.m), repeat=2):
        s = FoStructure(("c", "d"),
                        {"P": {("c",): table[0], ("d",): table[1]}},
                        {"c": {(): "c"}, "d": {(): "d"}})
        va = godel3.index(fo_eval(parse_formula("forall x. P(x)"), godel3, s))
        vm = godel3.index(fo_eval(parse_formula("P(c) & P(d)"), godel3, s))
        assert godel3.leq[va, vm] and godel3.leq[vm, va]
        vj = godel3.index(fo_eval(parse_formula("P(c) | P(d)"), godel3, s))
        ve = godel3.index(fo_eval(parse_formula("exists x. P(x)"), godel3, s))
        assert godel3.leq[vj, ve]


# ---------------------------------------------------------------------------
# generalization


def test_generalize_skolem_block(mc):
    ska = parse_formula("B(k1) | B(k2)")
    skb = parse_formula("exists x. A(x) | B(x)")
    istar = parse_formula("B(k1) | B(k2)")
    out, steps = generalize_interpolant(istar, ska, skb)
    assert [s.quantifier for s in steps] == ["exists", "exists"]
    assert [str(s.term) for s in steps] == ["k1", "k2"]
    assert isinstance(out, Quant) and out.kind == "exists"
    assert render(out.body.body) == "B(z1) | B(z2)"


def test_generalize_no_noncommon_symbols_unchanged(classical):
    ska = parse_formula("P(c)")
    skb = parse_formula("P(c) | Q(c)")
    istar = parse_formula("P(c)")
    out, steps = generalize_interpolant(istar, ska, skb)
    assert out == istar and steps == []


def test_generalize_maximal_term_first(classical):
    """f(c) is maximal by inclusion, so it goes first; with a separate bare c
    occurrence the second stage follows.  Both implications survive on the
    two-element domains (oracle check)."""
    ska = parse_formula("forall x. B(x) & D(x)")
    skb = parse_formula("(exists u. B(u)) & exists v. D(v)")
    istar = parse_formula("B(f(c)) & D(c)")
    out, steps = generalize_interpolant(istar, ska, skb)
    assert [str(s.term) for s in steps] == ["f(c)", "c"]
    assert [s.quantifier for s in steps] == ["forall", "forall"]
    assert render(out) == "forall z2. forall z1. B(z1) & D(z2)"
    # oracle: the sandwich survives over all two-point structures
    for structure in all_unary_structures(classical, (0, 1), ["B", "D"]):
        va = classical.index(fo_eval(ska, classical, structure))
        vi = classical.index(fo_eval(out, classical, structure))
        vb = classical.index(fo_eval(skb, classical, structure))
        assert classical.leq[va, vi] and classical.leq[vi, vb]


def test_generalize_single_occurrence_eliminates_in_one_stage(classical):
    ska = parse_formula("forall x. B(x)")
    skb = parse_formula("exists u. B(u)")
    istar = parse_formula("B(f(c))")
    out, steps = generalize_interpolant(istar, ska, skb)
    assert [str(s.term) for s in steps] == ["f(c)"]
    assert render(out) == "forall z1. B(z1)"


def test_generalize_rejects_symbol_marked_noncommon_but_in_both():
    from latlog.errors import SymbolInBoth

    ska = parse_formula("B(c)")
    skb = parse_formula("B(c) | D(c)")
    istar = parse_formula("B(c)")
    with pytest.raises(SymbolInBoth):
        generalize_interpolant(istar, ska, skb, common=set())


# ---------------------------------------------------------------------------
# the pipeline


def test_pipeline_mc_example(mc):
    phi = parse_formula("exists x.(B(x) & forall y. C(y)) -> exists x.(A(x) | B(x))")
    result = fo_interpolate(phi, mc)
    interpolant = result.trace.interpolant
    # shape: five existentials over a disjunction of B at each bound variable
    bound = []
    body = interpolant
    while isinstance(body, Quant):
        assert body.kind == "exists"
        bound.append(body.var)
        body = body.body
    assert len(bound) == 5

    leaves = []

    def collect(f):
        if isinstance(f, App) and f.conn == "|":
            for a in f.args:
                collect(a)
        else:
            leaves.append(f)

    collect(body)
    assert sorted(render(l) for l in leaves) == sorted(f"B({v})" for v in bound)
    assert result.trace.herbrand.n == 5
    assert predicates_of(interpolant) == {"B": 1}
    assert functions_of(interpolant) == {}


def test_pipeline_self_implication_exists(mc):
    phi = parse_formula("(exists x. P(x)) -> exists x. P(x)")
    result = fo_interpolate(phi, mc)
    interpolant = result.trace.interpolant
    # an m-fold existential block over a disjunction of P atoms, semantically
    # the original succedent
    count = 0
    body = interpolant
    while isinstance(body, Quant):
        count += 1
        body = body.body
    assert count == mc.m
    target = parse_formula("exists x. P(x)")
    for dsize in (1, 2):
        for structure in all_unary_structures(mc, tuple(range(dsize)), ["P"]):
            vi = mc.index(fo_eval(interpolant, mc, structure))
            vt = mc.index(fo_eval(target, mc, structure))
            assert vi == vt
    assert result.trace.smoke["structures"] > 0


def test_pipeline_classical_universal_instance(classical):
    phi = parse_formula("(forall x. P(x)) -> P(c)")
    result = fo_interpolate(phi, classical)
    interpolant = result.trace.interpolant
    # c is not in the antecedent, so the elimination turns it universal
    assert alpha_equal(interpolant, parse_formula("forall z. P(z)"))
    for dsize in (1, 2):
        for structure in all_unary_structures(classical, tuple(range(dsize)), ["P"]):
            ext = FoStructure(structure.domain, structure.predicates,
                              {"c": {(): structure.domain[0]}})
            va = classical.index(fo_eval(phi.args[0], classical, ext))
            vi = classical.index(fo_eval(interpolant, classical, ext))
            vb = classical.index(fo_eval(phi.args[1], classical, ext))
            assert classical.leq[va, vi] and classical.leq[vi, vb]


def test_pipeline_weak_only_quantifier_free_interpolant(godel3):
    phi = parse_formula("(forall x. P(x)) & Q(c) -> Q(c) | R(d)")
    result = fo_interpolate(phi, godel3)
    assert result.interpolant == parse_formula("Q(c)")
    assert result.trace.herbrand.n == 1
    assert result.trace.skolemized == phi  # weak quantifiers only


def test_pipeline_rejects_non_implication(mc):
    with pytest.raises(LatlogError):
        fo_interpolate(parse_formula("exists x. B(x)"), mc)


def test_pipeline_unknown_on_invalid_input(mc):
    phi = parse_formula("P(c) -> exists x. Q(x)")
    with pytest.raises(UnknownValidity):
        fo_interpolate(phi, mc, FoBudgets(max_n=3))


def test_pipeline_prop_failure_surfaces(three_01):
    # shared-language-free implication whose only interpolant value is not
    # representable: the propositional stage reports NO and the pipeline
    # propagates it
    phi = parse_formula("P(c) & (P(c) -> #0) -> Q(c) | (Q(c) -> #0)")
    with pytest.raises(PropInterpolationFailed) as exc:
        fo_interpolate(phi, three_01)
    assert exc.value.verdict.status == "NO"


def test_pipeline_interpolant_mentions_only_common_predicates(mc):
    phi = parse_formula("exists x.(B(x) & forall y. C(y)) -> exists x.(A(x) | B(x))")
    result = fo_interpolate(phi, mc)
    a_preds = set(predicates_of(phi.args[0]))
    b_preds = set(predicates_of(phi.args[1]))
    assert set(predicates_of(result.interpolant)) <= (a_preds & b_preds)
    assert not any(f.startswith("sk") for f in functions_of(result.interpolant))


README_SENTENCE = "exists x.(B(x) & forall y. C(y)) -> exists x.(A(x) | B(x))"


def test_pipeline_builds_the_herbrand_grids_once(mc, monkeypatch):
    """On mc the README sentence's valid expansion (n=5) abstracts to 15
    atoms, over the variable cap of 10, so its validity check is factored
    over 5 shared + 5 private variables per side.  The check's envelope
    pair feeds the propositional search, so the factored check runs once,
    not again in ``envelopes``."""
    built = []
    original = propcore._implication_parts

    def counting(a, b, lat, var_cap=None):
        parts = original(a, b, lat, var_cap)
        built.append((len(parts.shared) + len(parts.left), len(parts.shared) + len(parts.right)))
        return parts

    monkeypatch.setattr(propcore, "_implication_parts", counting)
    trace = fo_interpolate(parse_formula(README_SENTENCE), mc).trace
    assert trace.herbrand.check.report.envelopes is not None
    assert built.count((10, 10)) == 1


@pytest.mark.parametrize("name, text", [
    *((name, README_SENTENCE)
      for name in ("mc", "godel3", "lukasiewicz3", "three-0a", "diamond", "classical")),
    ("classical", "(forall x. P(x)) -> P(c)"),
    ("godel3", "(forall x. P(x)) & Q(c) -> Q(c) | R(d)"),
    ("mc", "P(c,d,d) -> exists x. P(c,x,d)"),
])
def test_herbrand_envelopes_give_the_verdict_of_a_fresh_search(name, text):
    """The envelope pair the Herbrand check hands on (when it was factored)
    is the one ``envelopes`` computes for the abstracted sides: the verdict
    and interpolant word equal those of a search that builds its own."""
    lat = bundled_lattice(name)
    trace = fo_interpolate(parse_formula(text), lat).trace
    fresh = find_prop_interpolant(trace.prop_antecedent, trace.prop_succedent, lat)
    assert trace.verdict.status == fresh.status == "YES"
    assert trace.verdict.interpolant_word == fresh.interpolant_word
    assert trace.verdict.lower == fresh.lower and trace.verdict.upper == fresh.upper
    assert (trace.prop_antecedent, trace.prop_succedent) == trace.herbrand.check.word.args
    if trace.herbrand.check.report.envelopes is not None:
        assert trace.verdict.lower is trace.herbrand.check.report.envelopes.lower


def test_expansion_steps_walk_a_deep_chain_without_recursion(mc):
    """Quantifier classification, free variables, expansion and the
    Herbrand search handle a 3,001-atom implication chain."""
    chain = parse_formula(" -> ".join(["P(c)"] * 3001))
    assert classify_quantifiers(chain) == []
    assert free_object_vars(chain) == set()
    assert expand_n(chain, 2) == chain
    assert find_herbrand_expansion(chain, mc).status == "FOUND"


@pytest.mark.parametrize("shape", DEEP_SENTENCES)
def test_library_walks_deep_sentences_without_recursion(mc, shape):
    """Skolemization, evaluation, atom collection and the pipeline answer
    on sentences nested 3,000 levels deep."""
    phi = parse_formula(DEEP_SENTENCES[shape])
    atoms = {"implication-chain": ["P(c)"], "quantifier-chain": ["P(x)", "P(c)"],
             "deep-term": [render(phi.args[0])]}[shape]
    out, record = skolemize(phi, mc)
    assert (render(out), record) == (render(phi), SkolemRecord(family_size=mc.m))
    one = FoStructure((0,), {"P": {(0,): mc.index("u1")}}, {"c": {(): 0}, "f": {(0,): 0}})
    assert fo_eval(phi, mc, one) == "1"
    assert [render(a) for a in atoms_of(phi)] == atoms
    result = fo_interpolate(phi, mc)
    assert result.trace.verdict.status == "YES"


# ---------------------------------------------------------------------------
# property suites


def test_lemma_alpha_contexts():
    check_lemma_alpha()


def test_skolem_witness_realization():
    check_skolem_witness()


def _smoke(lat, a, interpolant, b):
    a, interpolant, b = (parse_formula(t) for t in (a, interpolant, b))
    trace = PipelineTrace(original=imp(a, b))
    _smoke_test(a, interpolant, b, lat, FoBudgets(), trace)
    return trace


def test_smoke_test_counts_every_structure(godel3):
    """Function symbols and object constants are interpreted too: 9
    structures over one element, and over two the 81 tables of P and Q
    times the 8 of f and c."""
    trace = _smoke(godel3, "forall x. P(x)", "P(f(c))", "P(f(c)) | Q(c)")
    assert trace.smoke == {"domains": [1, 2], "structures": 657}


@pytest.mark.parametrize("interpolant, message, domain, predicates, values", [
    ("R(d,c)", "interpolant -> succedent fails on a finite structure", [0, 1],
     {"P": {(0,): 0, (1,): 0}, "R": {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}},
     ("1", "0")),
    ("R(c,d) & P(d)", "antecedent -> interpolant fails on a finite structure", [0, 1],
     {"P": {(0,): 0, (1,): 1}, "R": {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}},
     ("1", "0")),
])
def test_smoke_test_reports_the_first_failing_structure(classical, interpolant, message,
                                                        domain, predicates, values):
    with pytest.raises(SmokeTestFailed) as exc:
        _smoke(classical, "P(c) & R(c,d)", interpolant, "R(c,d) | P(d)")
    assert exc.value.message == message
    assert exc.value.details == {"domain": domain, "predicates": predicates, "values": values}


@pytest.mark.parametrize("name, a, interpolant, b", [
    ("classical", "P(c) & R(c,d)", "R(c,d)", "R(c,d) | P(d)"),
    ("classical", "P(c) & R(c,d)", "R(d,c)", "R(c,d) | P(d)"),
    ("classical", "P(c) & R(c,d)", "R(c,d) & P(d)", "R(c,d) | P(d)"),
    ("godel3", "forall x. P(x)", "P(f(c))", "P(f(c)) | Q(c)"),
    ("godel3", "forall x. P(x)", "P(f(c)) & Q(c)", "P(f(c)) | Q(c)"),
    ("godel3", "forall x. P(x)", "P(f(c)) -> Q(c)", "P(f(c)) | Q(c)"),
    ("mc", "exists x. B(x) & C(c)", "exists x. B(x)", "exists x. A(x) | B(x)"),
    ("mc", "exists x. B(x) & C(c)", "B(c)", "exists x. A(x) | B(x)"),
    # both implications fail on the first failing structure
    ("mc", "(B(c) -> #0) -> #0", "B(c)", "A(c)"),
    ("three-0a", "forall x. (P(x) -> #0)", "P(c) -> #0", "P(c) -> Q(c)"),
    # a binary function symbol: 1 + 64 function-table choices
    ("classical", "P(g(c,d)) & Q(c)", "P(g(c,d))", "P(g(c,d)) | Q(d)"),
    ("classical", "P(g(c,d)) & Q(c)", "P(g(d,c))", "P(g(c,d)) | Q(d)"),
    # the order of the function tables decides which implication fails first
    ("classical", "P(c)", "P(f(c))", "P(c)"),
])
def test_smoke_test_matches_structure_by_structure_reference(name, a, interpolant, b):
    """The broadcast comparison gives the record, or the first failing
    structure, of evaluating every structure in turn."""
    lat = bundled_lattice(name)
    a, interpolant, b = (parse_formula(t) for t in (a, interpolant, b))
    try:
        expected = reference_smoke(a, interpolant, b, lat, FoBudgets())
    except SmokeTestFailed as exc:
        with pytest.raises(SmokeTestFailed) as got:
            _smoke_test(a, interpolant, b, lat, FoBudgets(), PipelineTrace())
        assert (got.value.message, got.value.details) == (exc.message, exc.details)
    else:
        trace = PipelineTrace()
        _smoke_test(a, interpolant, b, lat, FoBudgets(), trace)
        assert trace.smoke == expected


def _random_fo_formula(rng, depth):
    """Random formula over x and y (free or bound, often rebound), P/1, R/2,
    the constant c and the unary function f."""
    def term(d):
        if d > 0 and rng.random() < 0.2:
            return Func("f", (term(d - 1),))
        return rng.choice([Var("x"), Var("y"), Func("c", ())])

    def go(d):
        if d <= 0 or rng.random() < 0.2:
            return (Atom("P", (term(2),)) if rng.random() < 0.5
                    else Atom("R", (term(2), term(2))))
        if rng.random() < 0.4:
            return Quant(rng.choice(["forall", "exists"]), rng.choice("xy"), go(d - 1))
        return App(rng.choice(["&", "|", "->"]), (go(d - 1), go(d - 1)))

    return go(depth)


@pytest.mark.parametrize("name", ["godel3", "mc", "diamond"])
def test_fo_eval_matches_plain_recursion(name, rng):
    lat = bundled_lattice(name)
    for _ in range(60):
        domain = tuple(range(rng.randint(1, 3)))
        structure = FoStructure(
            domain,
            {"P": {(d,): rng.randrange(lat.m) for d in domain},
             "R": {k: rng.randrange(lat.m) for k in itertools.product(domain, repeat=2)}},
            {"c": {(): rng.choice(domain)}, "f": {(d,): rng.choice(domain) for d in domain}},
        )
        phi = _random_fo_formula(rng, 6)
        assignment = {"x": rng.choice(domain), "y": rng.choice(domain)}
        assert (fo_eval(phi, lat, structure, assignment)
                == plain_fo_eval(phi, lat, structure, assignment))


@pytest.mark.parametrize("depth", [20, 200])
def test_fo_eval_on_shadowing_quantifier_chains(godel3, depth):
    """Each quantifier rebinds x, so its body is evaluated once per value of
    x, not once per assignment of every enclosing quantifier."""
    chain = parse_formula("exists x. forall x. " * (depth // 2) + "P(x)")
    mixed = parse_formula("forall x. exists y. " * (depth // 2) + "R(x, y)")
    two = FoStructure((0, 1), {"P": {(0,): 2, (1,): 1},
                               "R": {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 1}})
    assert fo_eval(chain, godel3, two) == godel3.elements[1]  # the meet of P
    # forall x. exists y. R(x, y): the meet over x of the join over y
    assert fo_eval(mixed, godel3, two) == godel3.elements[1]
    one = FoStructure((0,), {"P": {(0,): 1}, "R": {(0, 0): 2}})  # plain recursion is linear
    for phi in (chain, mixed):
        assert fo_eval(phi, godel3, one) == plain_fo_eval(phi, godel3, one)


def test_pipeline_on_a_shadowing_quantifier_chain(classical):
    result = fo_interpolate(parse_formula("(" + "forall x. " * 20 + "P(x)) -> P(c)"), classical)
    assert render(result.interpolant) == "forall z1. P(z1)"
    assert result.trace.smoke == {"domains": [1, 2], "structures": 2 + 8}
