"""The factored implication check holds each private variable of one sign at
an end of the order instead of giving it a grid axis.  These tests compare
it with the unfolded reference in ``implication_reference.py``: the same
verdict, envelopes, countervaluation and count of valuations checked."""
import random

import numpy as np
import pytest

from latlog import (
    BUNDLED,
    App,
    Const,
    PropVar,
    RawConnective,
    RawLattice,
    bundled_lattice,
    parse_formula,
    propcore,
    validate_lattice,
)
from latlog.errors import ArityMismatchError, NotValidError, UnknownSymbolError
from latlog.folift import (
    _expand_with_terms,
    abstract_ground_atoms,
    find_herbrand_expansion,
    skolemize,
)
from latlog.propcore import (
    NEG,
    POS,
    _variable_signs,
    envelopes,
    is_valid_implication,
    is_valid_prop,
)

from genutil import random_valid_pair, random_word
from implication_reference import reference_implication

README_SENTENCE = "exists x.(B(x) & forall y. C(y)) -> exists x.(A(x) | B(x))"


def assert_matches_reference(a, b, lat, var_cap=None) -> bool:
    """Compare every output of the folded check with the reference; returns
    the verdict."""
    valid, lower, upper, counter, checked = reference_implication(a, b, lat, var_cap)
    parts = propcore._implication_parts(a, b, lat, var_cap)
    assert np.array_equal(parts.lower, lower) and np.array_equal(parts.upper, upper)
    report = is_valid_implication(a, b, lat, var_cap)
    assert (report.valid, report.countervaluation, report.checked) == (valid, counter, checked)
    if valid:
        env = envelopes(a, b, lat, var_cap)
        assert np.array_equal(env.lower.values, lower)
        assert np.array_equal(env.upper.values, upper)
        assert np.array_equal(report.envelopes.lower.values, lower)
    else:
        with pytest.raises(NotValidError) as exc:
            envelopes(a, b, lat, var_cap)
        assert exc.value.details["countervaluation"] == counter
    return valid


def random_signature_word(rng, variables, lat, depth):
    """Random word over every connective of the lattice's signature."""
    conns = lat.signature.connectives
    consts = list(lat.constants)

    def go(d):
        if d <= 0 or rng.random() < 0.25:
            if consts and rng.random() < 0.15:
                return Const(rng.choice(consts))
            return PropVar(rng.choice(variables))
        c = rng.choice(conns)
        return App(c.name, tuple(go(d - 1) for _ in range(c.arity)))

    return go(depth)


SPLITS = [  # (left, shared, right) variables
    (["p", "q"], ["s"], ["u", "v"]),
    (["p", "q", "r"], ["s", "t"], ["u"]),
    (["p"], [], ["u", "v"]),
    ([], ["s", "t"], ["u", "v"]),
]


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_folded_check_matches_reference_on_bundled_lattices(name):
    lat = bundled_lattice(name)
    rng = random.Random(f"fold-{name}")
    verdicts = []
    for left, shared, right in SPLITS:
        for _ in range(3):
            a, b = random_valid_pair(rng, lat, left, shared, right, depth=3)
            assert assert_matches_reference(a, b, lat)
        for _ in range(8):
            a = random_word(rng, left + shared, lat, 3)
            b = random_word(rng, shared + right, lat, 3)
            verdicts.append(assert_matches_reference(a, b, lat))
    assert not all(verdicts)


def _inline_lattice():
    """The three-element chain with the Goedel implication, an antitone
    negation ``N``, a ternary ``T`` of polarity +-+ (x & N(y) | z) and a
    nullary ``Mid``."""
    elements = ["0", "h", "1"]
    neg = [2, 1, 0]
    ternary = [elements[max(min(x, neg[y]), z)]
               for x in range(3) for y in range(3) for z in range(3)]
    raw = RawLattice(
        elements=elements,
        covers=[("0", "h"), ("h", "1")],
        connectives=[
            RawConnective("->", ("-", "+"), ["1", "1", "1", "0", "1", "1", "0", "h", "1"]),
            RawConnective("N", ("-",), [elements[v] for v in neg]),
            RawConnective("T", ("+", "-", "+"), ternary),
            RawConnective("Mid", (), ["h"]),
        ],
        constants={"0": "0"},
    )
    return validate_lattice(raw)


def test_folded_check_matches_reference_with_antitone_and_ternary_connectives():
    lat = _inline_lattice()
    rng = random.Random("fold-inline")
    verdicts, kinds = [], set()
    for left, shared, right in SPLITS:
        for _ in range(25):
            a = random_signature_word(rng, left + shared, lat, 3)
            b = random_signature_word(rng, shared + right, lat, 3)
            verdicts.append(assert_matches_reference(a, b, lat))
            sa = _variable_signs(a, lat)
            kinds.update(sa[v] for v in left if v in sa)
    assert True in verdicts and False in verdicts
    assert kinds == {POS, NEG, POS | NEG}  # held at top, held at bottom, folded


@pytest.mark.parametrize("text, signs", [
    ("(p -> q) -> p & N(q)", {"p": POS, "q": NEG}),
    ("T(p, q, N(r)) & (q -> r)", {"p": POS, "q": NEG, "r": POS | NEG}),
    ("N(N(p)) | T(Mid(), p, p)", {"p": POS | NEG}),
    ("#0 -> T(N(p), N(p), q)", {"p": POS | NEG, "q": POS}),
])
def test_variable_signs(text, signs):
    lat = _inline_lattice()
    assert _variable_signs(parse_formula(text, lat.signature), lat) == signs


@pytest.mark.parametrize("bad, error", [
    (App("->", (PropVar("p"),)), ArityMismatchError),
    (App("&", (PropVar("p"), PropVar("s"), PropVar("p"))), ArityMismatchError),
    (App("Down", (PropVar("p"),)), UnknownSymbolError),
])
def test_ill_formed_application_raises_in_both_checks(godel3, bad, error):
    """A word built in code may apply a connective to the wrong number of
    arguments, or one outside the signature.  The folded check and the
    unfolded reference both raise the same error for it."""
    a = App("&", (bad, PropVar("s")))
    with pytest.raises(error) as folded:
        is_valid_implication(a, PropVar("s"), godel3)
    with pytest.raises(error) as unfolded:
        reference_implication(a, PropVar("s"), godel3, None)
    assert str(folded.value) == str(unfolded.value)


@pytest.mark.parametrize("name", ["godel3", "mc", "three-0a", "diamond", "lukasiewicz3"])
@pytest.mark.parametrize("a, b", [
    ("((s -> p) -> p) & s", "(r -> s) & (s -> q)"),
    ("((p -> p) -> s) & p", "s | (r -> (r & q))"),
    ("(p -> s) & (p | q)", "(s -> u) -> (u & s | u)"),
    ("(q -> p) & (p -> q) & s", "((u -> s) -> u) | s"),
])
def test_folded_check_matches_reference_with_mixed_private_variables(name, a, b):
    lat = bundled_lattice(name)
    a, b = parse_formula(a), parse_formula(b)
    signs = _variable_signs(a, lat) | _variable_signs(b, lat)
    assert POS | NEG in {signs[v] for v in ("p", "u", "r") if v in signs}
    assert_matches_reference(a, b, lat)


def test_readme_expansions_match_reference(mc):
    """The Herbrand checks of the README sentence on mc, n = 1..5: invalid
    below 5, then valid and factored over 5 shared and 5 private variables a
    side."""
    sk, _ = skolemize(parse_formula(README_SENTENCE), mc)
    search = find_herbrand_expansion(sk, mc)
    assert search.n == 5 and search.check.report.method == "factored"
    verdicts = []
    for n in range(1, 6):
        word, _ = abstract_ground_atoms(_expand_with_terms(sk, search.terms[:n]))
        verdicts.append(assert_matches_reference(*word.args, mc))
    assert verdicts == [False] * 4 + [True]


def test_readme_check_builds_no_grid_wider_than_one_side(mc, monkeypatch):
    """The valid n=5 check holds the private variables at ends of the order,
    so no column it evaluates spans more than the 5 shared variables."""
    sk, _ = skolemize(parse_formula(README_SENTENCE), mc)
    word = find_herbrand_expansion(sk, mc).check.word
    sizes = []
    original = propcore.column_of

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(propcore, "column_of", recording)
    report = is_valid_prop(word, mc)
    assert report.valid and report.method == "factored"
    assert report.checked == 2 * 5 ** 10
    assert len(sizes) == 2 and max(sizes) <= 5 ** 5
