"""Named property suites.

Each check raises AssertionError on failure.  The per-module test files run
them individually and the acceptance suite runs them together under a time
budget.
"""
import functools
import itertools
import random

from latlog import (
    App,
    Atom,
    Func,
    PropVar,
    Quant,
    Var,
    bundled_lattice,
    parse_formula,
    render,
)
from latlog.folift import FoStructure, fo_eval, skolemize
from latlog.propcore import (
    column_of,
    is_valid_implication,
    is_valid_prop,
    representable_closure,
)
from latlog.syntax import conjoin, disjoin, implies, prop_variables

from genutil import all_unary_structures, join_idx, meet_idx, random_valid_pair, random_word
from sigma_collapse import collapse_word, sigma_substitutions

SMALL_LATTICES = ("classical", "classical-01", "godel3", "three-01", "three-0a",
                  "lukasiewicz3")
ALL_LATTICES = SMALL_LATTICES + ("classical-0", "classical-1", "mc", "diamond")


def check_prop_b(seed: int = 20240801, samples: int = 25) -> None:
    """Three validity identities: A -> A; valid B gives A -> B; valid A -> B
    and C -> D give (B -> C) -> (A -> D)."""
    rng = random.Random(seed)
    variables = ["x", "y", "z"]
    for name in ALL_LATTICES:
        lat = bundled_lattice(name)
        for _ in range(samples):
            a = random_word(rng, variables, lat)
            assert is_valid_prop(implies(a, a), lat).valid, (name, render(a))
        hits = 0
        for _ in range(samples * 20):
            b = random_word(rng, variables, lat)
            if not is_valid_prop(b, lat).valid:
                continue
            hits += 1
            a = random_word(rng, variables, lat)
            assert is_valid_prop(implies(a, b), lat).valid, (name, render(a), render(b))
            if hits >= 5:
                break
        hits = 0
        for _ in range(samples * 40):
            a, b = random_valid_pair(rng, lat, ["x"], ["y"], [], depth=2)
            c, d = random_valid_pair(rng, lat, [], ["y"], ["z"], depth=2)
            composite = implies(implies(b, c), implies(a, d))
            assert is_valid_prop(composite, lat).valid, (name, render(composite))
            hits += 1
            if hits >= 5:
                break


#: lattices on which the pairing-word equivalence is a theorem; it needs weak
#: modus ponens (x & (x -> y) below y), which the three-element tables with
#: the middle else-branch refute -- the same failure that drives their
#: non-interpolation witness.  See test_propcore for the pinned counterexample.
PAIRING_LATTICES = ("classical", "classical-0", "classical-1", "classical-01",
                    "godel3", "mc", "diamond")


def check_prop_two(samples: int = 12, seed: int = 20240801) -> None:
    """Conjoining the pairing word makes a formula interchangeable with its
    primed copy: both sides evaluate identically under every valuation
    (exhaustive for two variable pairs)."""
    rng = random.Random(seed)
    for name in PAIRING_LATTICES:
        lat = bundled_lattice(name)
        base = ["x1", "x2"]
        primed = ["p1", "p2"]
        pairing = conjoin([
            App("&", (implies(PropVar(x), PropVar(p)), implies(PropVar(p), PropVar(x))))
            for x, p in zip(base, primed)
        ])
        var_list = tuple(base + primed)
        from latlog.syntax import substitute
        for _ in range(samples):
            a = random_word(rng, base, lat, depth=3)
            a_primed = substitute(a, {x: PropVar(p) for x, p in zip(base, primed)})
            left = App("&", (a, pairing))
            right = App("&", (a_primed, pairing))
            col_l = column_of(left, lat, var_list)
            col_r = column_of(right, lat, var_list)
            assert (col_l == col_r).all(), (name, render(a))


def _context_battery():
    hole = "HOLE"
    texts = [
        "exists x. P(x) & {h}",
        "forall x. {h} -> Q(x)",
        "({h} -> exists x. Q(x)) -> forall x. P(x)",
        "{h} | forall x. (P(x) -> Q(x))",
        "({h} -> (exists y. Q(y))) -> {h2}",
    ]
    return hole, texts


def check_lemma_alpha(seed: int = 20240801) -> None:
    """Context monotonicity: on every small structure where A evaluates below
    B, a positive context preserves the order and a negative context flips it.
    Checked pointwise, which implies the validity statement."""
    lat = bundled_lattice("godel3")
    mc = bundled_lattice("mc")
    pairs = [
        (parse_formula("forall x. P(x)"), parse_formula("exists x. P(x)")),
        (parse_formula("P(c) & Q(c)"), parse_formula("P(c)")),
        (parse_formula("exists x. P(x) & Q(x)"), parse_formula("exists x. P(x)")),
    ]
    contexts = [
        ("+", lambda h: App("&", (h, parse_formula("exists y. Q(y)")))),
        ("+", lambda h: Quant("exists", "w", App("|", (Atom("P", (Var("w"),)), h)))),
        ("-", lambda h: implies(h, parse_formula("forall y. Q(y)"))),
        ("+", lambda h: implies(parse_formula("forall y. Q(y)"), h)),
        ("-", lambda h: implies(App("|", (h, parse_formula("P(c)"))),
                                parse_formula("Q(c)"))),
    ]
    for lattice in (lat, mc):
        structures = list(all_unary_structures(lattice, (0, 1), ["P", "Q"]))
        for a, b in pairs:
            for sign, ctx in contexts:
                ca, cb = ctx(a), ctx(b)
                for s in structures:
                    s2 = FoStructure(s.domain, s.predicates, {"c": {(): 0}})
                    va = lattice.index(fo_eval(a, lattice, s2))
                    vb = lattice.index(fo_eval(b, lattice, s2))
                    if not lattice.leq[va, vb]:
                        continue
                    vca = lattice.index(fo_eval(ca, lattice, s2))
                    vcb = lattice.index(fo_eval(cb, lattice, s2))
                    if sign == "+":
                        assert lattice.leq[vca, vcb], (render(ca), render(cb))
                    else:
                        assert lattice.leq[vcb, vca], (render(ca), render(cb))


def check_lemmas_123(seed: int = 20240801, rounds: int = 6) -> None:
    """Variable-collapse soundness on lattices with at most three elements:
    for a valid a -> b, the join of the left-collapsed copies still implies b
    and is implied by a; dually for right collapses with meets; and a implies
    the join over collapse substitutions of (a-collapsed and pairing word)."""
    rng = random.Random(seed)
    for name in ("classical", "classical-01", "godel3", "three-01", "lukasiewicz3"):
        lat = bundled_lattice(name)
        n = lat.m
        for _ in range(rounds):
            a, b = random_valid_pair(rng, lat, ["u", "v"], ["s"], ["w"], depth=2)
            from latlog.syntax import substitute

            left = sorted(prop_variables(a) - prop_variables(b))
            if left:
                sigmas = sigma_substitutions(left, n)
                joined = disjoin([
                    substitute(a, {x: PropVar(s[x]) for x in left}) for s in sigmas
                ])
                assert is_valid_implication(joined, b, lat).valid, (name, render(a), render(b))
                assert is_valid_implication(a, joined, lat).valid, (name, render(a))
            right = sorted(prop_variables(b) - prop_variables(a))
            if right:
                sigmas = sigma_substitutions(right, n)
                met = conjoin([
                    substitute(b, {x: PropVar(s[x]) for x in right}) for s in sigmas
                ])
                assert is_valid_implication(a, met, lat).valid, (name, render(b))
                assert is_valid_implication(met, b, lat).valid, (name, render(b))
            shared = sorted(prop_variables(a) & prop_variables(b))
            if shared:
                sigmas = sigma_substitutions(shared, n)
                pieces = [
                    App("&", (substitute(a, {x: PropVar(s[x]) for x in shared}),
                              collapse_word(s, shared)))
                    for s in sigmas
                ]
                assert is_valid_implication(a, disjoin(pieces), lat).valid, (name, render(a))


def check_skolem_witness() -> None:
    """Witness realization: over domains of at most |L| elements, some at most
    |L| elements realize the join (meet) of any value family; and pointwise,
    the skolemized sentence never evaluates below the original, so a
    countermodel of the skolemized form is a countermodel of the original."""
    def fold(vals, op):
        acc = vals[0]
        for v in vals[1:]:
            acc = op(acc, v)
        return acc

    def realizable(lat, values, op, target):
        bound = min(lat.m, len(values))
        for k in range(1, bound + 1):
            for subset in itertools.combinations(values, k):
                if fold(subset, op) == target:
                    return True
        return False

    for name in ("classical", "godel3", "mc"):
        lat = bundled_lattice(name)
        m = lat.m
        for dsize in range(1, m + 1):
            for values in itertools.product(range(m), repeat=dsize):
                for op in (functools.partial(join_idx, lat), functools.partial(meet_idx, lat)):
                    assert realizable(lat, values, op, fold(values, op)), (name, values)

    # pointwise skolemization soundness, contrapositive form: any extension of
    # a structure to the witness symbols values the skolemized sentence at or
    # above the original, so a countermodel of sk(phi) is one of phi
    phi = parse_formula("(exists x. B(x)) -> exists y. forall z. C(y,z)")
    for name in ("classical", "godel3", "mc"):
        lat = bundled_lattice(name)
        sk, record = skolemize(phi, lat)
        domain = (0, 1)
        const_fam = record.entries[0].functions  # 0-ary family from the antecedent
        func_fam = record.entries[1].functions  # unary family from the succedent
        c_choices = list(itertools.product(domain, repeat=len(const_fam)))
        f_choices = list(itertools.product(domain, repeat=len(func_fam) * len(domain)))
        c_sample = c_choices[:: max(1, len(c_choices) // 4)]
        f_sample = f_choices[:: max(1, len(f_choices) // 4)]
        c_tables = list(itertools.product(range(lat.m), repeat=len(domain) ** 2))
        for structure in all_unary_structures(lat, domain, ["B"]):
            for ct in c_tables[:: max(1, len(c_tables) // 8)]:
                preds = dict(structure.predicates)
                preds["C"] = dict(zip(itertools.product(domain, repeat=2), ct))
                base = FoStructure(domain, preds)
                orig = lat.index(fo_eval(phi, lat, base))
                realized = []
                for c_choice in c_sample:
                    for f_choice in f_sample:
                        funcs = {nm: {(): c_choice[i]} for i, nm in enumerate(const_fam)}
                        it = iter(f_choice)
                        for nm in func_fam:
                            funcs[nm] = {(d,): next(it) for d in domain}
                        ext = FoStructure(domain, preds, funcs)
                        got = lat.index(fo_eval(sk, lat, ext))
                        assert lat.leq[orig, got], (name, orig, got)
                        realized.append(got)


def check_value_column_witnesses() -> None:
    """Every closure column's witness word re-evaluates to the stored values."""
    for name in ("classical-01", "godel3", "three-0a", "lukasiewicz3"):
        lat = bundled_lattice(name)
        clo = representable_closure(lat, ("x",))
        for col in clo.columns:
            again = column_of(col.witness, lat, col.var_list)
            assert (again == col.values).all(), (name, col.word)
        clo2 = representable_closure(lat, ("x", "y"),
                                     budget=_small_budget())
        for col in clo2.columns:
            again = column_of(col.witness, lat, col.var_list)
            assert (again == col.values).all(), (name, col.word)


def _small_budget():
    from latlog.propcore import ClosureBudget
    return ClosureBudget(max_columns=400, max_apps_per_level=500_000)


def check_roundtrip(seed: int = 20240801, samples: int = 120) -> None:
    """parse(render(f)) reproduces f exactly, for propositional words and for
    first-order sentences."""
    rng = random.Random(seed)
    lat = bundled_lattice("three-01")
    for _ in range(samples):
        f = random_word(rng, ["x", "y", "z"], lat, depth=4)
        assert parse_formula(render(f), lat.signature) == f, render(f)
    from latlog.syntax import PredicateLanguage

    lang = PredicateLanguage({"P": 1, "Q": 2}, {"c": 0, "f": 1})

    def sentence(d, bound):
        choice = rng.random()
        if d <= 0 or (choice < 0.3 and bound):
            if bound and rng.random() < 0.7:
                v = rng.choice(bound)
                if rng.random() < 0.5:
                    return Atom("P", (Var(v),))
                return Atom("Q", (Var(v), Func("f", (Func("c", ()),))))
            return Atom("P", (Func("c", ()),))
        if choice < 0.55:
            v = f"v{len(bound)}"
            kind = rng.choice(["forall", "exists"])
            return Quant(kind, v, sentence(d - 1, bound + [v]))
        conn = rng.choice(["|", "&", "->"])
        return App(conn, (sentence(d - 1, bound), sentence(d - 1, bound)))

    for _ in range(samples // 2):
        f = sentence(3, [])
        assert parse_formula(render(f), lat.signature, lang) == f, render(f)


ALL_SUITES = (
    ("prop_b identities", check_prop_b),
    ("pairing-word equivalence", check_prop_two),
    ("context monotonicity", check_lemma_alpha),
    ("variable-collapse soundness", check_lemmas_123),
    ("skolem witness realization", check_skolem_witness),
    ("column witness re-evaluation", check_value_column_witnesses),
    ("parse/render round-trip", check_roundtrip),
)
