"""Seeded random generators shared by the property suites, the deep
sentences that the first-order tests share, and lookups by element name or
index that only tests need."""
import itertools
import random

from latlog import App, Const, PropVar, kripke_frame, upset_lattice
from latlog.algebra import IMP, JOIN, MEET
from latlog.folift import FoStructure
from latlog.syntax import prop_word_variables

# valid sentences nested about 3,000 levels deep, one per kind of node
_DEEP_TERM = "P(" + "f(" * 3000 + "c" + ")" * 3000 + ")"
DEEP_SENTENCES = {
    "implication-chain": " -> ".join(["P(c)"] * 3001),
    "deep-term": f"{_DEEP_TERM} -> {_DEEP_TERM}",
    "quantifier-chain": "(" + "forall x. " * 3000 + "P(x)) -> P(c)",
}


def leq_names(lat, a: str, b: str) -> bool:
    """a <= b in the lattice order, for elements given by name."""
    return bool(lat.leq[lat.index(a), lat.index(b)])


def join_idx(lat, a: int, b: int) -> int:
    return int(lat.tables[JOIN][a, b])


def meet_idx(lat, a: int, b: int) -> int:
    return int(lat.tables[MEET][a, b])


def imp_idx(lat, a: int, b: int) -> int:
    return int(lat.tables[IMP][a, b])


def is_prop_word(f) -> bool:
    """True when the formula contains no atoms, terms or quantifiers."""
    return prop_word_variables(f) is not None


def random_word(rng: random.Random, variables, lat, depth: int = 3,
                allow_constants: bool = True):
    """Random propositional word over the lattice's binary connectives."""
    consts = list(lat.constants) if allow_constants else []

    def go(d):
        leaves = [lambda: PropVar(rng.choice(variables))]
        if consts:
            leaves.append(lambda: Const(rng.choice(consts)))
        if d <= 0 or rng.random() < 0.25:
            return rng.choice(leaves)()
        conn = rng.choice(["|", "&", "->"])
        return App(conn, (go(d - 1), go(d - 1)))

    return go(depth)


def random_signature_word(rng: random.Random, variables, lat, depth: int = 3):
    """Random propositional word over every connective of the lattice's
    signature, nullary and unary ones among them, and its constants."""
    conns = lat.signature.connectives
    consts = list(lat.constants)

    def go(d):
        if d <= 0 or rng.random() < 0.25:
            if consts and rng.random() < 0.2:
                return Const(rng.choice(consts))
            return PropVar(rng.choice(variables))
        conn = rng.choice(conns)
        return App(conn.name, tuple(go(d - 1) for _ in range(conn.arity)))

    return go(depth)


def random_upset_lattice(rng: random.Random):
    """The up-set lattice of a random partial order on one to four worlds,
    with the Goedel or the Heyting implication: from 2 elements (one world)
    to 16 (four incomparable ones)."""
    worlds = [f"w{i}" for i in range(rng.randint(1, 4))]
    pairs = [(a, b) for i, a in enumerate(worlds) for b in worlds[i + 1:]
             if rng.random() < 0.3]
    return upset_lattice(kripke_frame(worlds, pairs), rng.choice(("godel", "heyting")))


def random_valid_pair(rng, lat, left, shared, right, depth=3, max_tries=4000,
                      allow_constants=True):
    """Random (a, b) with a over left+shared, b over shared+right and a -> b
    valid; generate-and-filter under a fixed seed."""
    from latlog.propcore import is_valid_implication

    for _ in range(max_tries):
        a = random_word(rng, left + shared, lat, depth, allow_constants)
        b = random_word(rng, shared + right, lat, depth, allow_constants)
        if is_valid_implication(a, b, lat).valid:
            return a, b
    raise AssertionError("no valid implication found within the try budget")


def all_unary_structures(lat, domain, pred_names):
    """Every structure interpreting the given unary predicates over the domain."""
    tables = list(itertools.product(range(lat.m), repeat=len(domain)))
    for combo in itertools.product(tables, repeat=len(pred_names)):
        preds = {
            name: dict(zip([(d,) for d in domain], values))
            for name, values in zip(pred_names, combo)
        }
        yield FoStructure(tuple(domain), preds)
