"""On a grid of more than PACKED_CELLS cells, ``is_valid_prop`` holds every
variable of one sign at the end of the order where the meet over it is
reached, and a failing word is searched slice by slice of its first
variable; ``_broadcast_column`` evaluates each distinct subword once.  These
tests compare both with the whole-grid reference in
``validity_reference.py``: the same verdict, countervaluation, count of
valuations checked, method and error class."""
import random

import numpy as np
import pytest

from latlog import (
    BUNDLED,
    App,
    Atom,
    Const,
    PropVar,
    RawConnective,
    RawLattice,
    bundled_lattice,
    parse_formula,
    propcore,
    validate_lattice,
)
from latlog.errors import LatlogError
from latlog.propcore import (
    NEG,
    PACKED_CELLS,
    POS,
    _broadcast_column,
    _decode_valuation,
    _variable_signs,
    eval_prop,
    is_valid_prop,
)
from latlog.syntax import prop_word_variables

from genutil import random_signature_word, random_upset_lattice, random_word
from validity_reference import reference_column, reference_validity


def modal_lattice():
    """godel3 with a unary and a nullary connective."""
    return validate_lattice(RawLattice(
        elements=["0", "h", "1"],
        covers=[("0", "h"), ("h", "1")],
        connectives=[
            RawConnective("->", ("-", "+"), ["1", "1", "1", "0", "1", "1", "0", "h", "1"]),
            RawConnective("Box_up", ("+",), ["0", "h", "h"]),
            RawConnective("Mid", (), ["h"]),
        ],
        constants={"0": "0"},
    ))


def lattices():
    rng = random.Random(11)
    out = [(name, bundled_lattice(name)) for name in BUNDLED]
    out += [(f"upset-{k}", random_upset_lattice(rng)) for k in range(4)]
    return out + [("modal", modal_lattice())]


LATTICES = lattices()


def sizes(m: int) -> list[int]:
    """The variable count of the largest grid below PACKED_CELLS cells and
    the next two, up to 16 times PACKED_CELLS: on two or four elements the
    second grid has PACKED_CELLS cells."""
    n = 1
    while m ** (n + 1) < PACKED_CELLS:
        n += 1
    return [k for k in (n, n + 1, n + 2) if m ** k <= PACKED_CELLS * 16]


def variables(n: int) -> tuple[str, ...]:
    return tuple(f"x{k}" for k in range(n))


def spanning(rng, word, names, conns=("&", "|", "->")):
    """``word`` joined with each of ``names`` it lacks, by a random binary
    connective on a random side, so that every name occurs."""
    have = prop_word_variables(word)
    for v in names:
        if v not in have:
            pair = (word, PropVar(v)) if rng.random() < 0.5 else (PropVar(v), word)
            word = App(rng.choice(conns), pair)
    return word


def monotone_word(rng, names, depth):
    """Random word over meets and joins alone, in which every variable is
    positive."""
    if depth <= 0 or rng.random() < 0.25:
        return PropVar(rng.choice(names))
    return App(rng.choice(("&", "|")), (monotone_word(rng, names, depth - 1),
                                        monotone_word(rng, names, depth - 1)))


def assert_matches_reference(phi, lat, var_cap=None):
    """Compare every output of ``is_valid_prop`` with the reference; returns
    its report, or None when both raise the same error."""
    try:
        want = reference_validity(phi, lat, var_cap)
    except LatlogError as exc:
        with pytest.raises(LatlogError) as got:
            is_valid_prop(phi, lat, var_cap)
        assert type(got.value) is type(exc) and got.value.message == exc.message
        return None
    got = is_valid_prop(phi, lat, var_cap)
    assert (got.valid, got.countervaluation, got.variables, got.checked, got.method) == \
        (want.valid, want.countervaluation, want.variables, want.checked, want.method)
    return got


@pytest.mark.parametrize("name,lat", LATTICES, ids=[name for name, _ in LATTICES])
def test_random_words_match_the_whole_grid(name, lat):
    rng = random.Random(f"grid-{name}")
    verdicts = set()
    for n in sizes(lat.m):
        names = variables(n)
        cap = max(n, 10)
        for _ in range(6):
            for word in (random_word(rng, names, lat, 4),
                         random_signature_word(rng, names, lat, 4)):
                report = assert_matches_reference(spanning(rng, word, names), lat, cap)
                verdicts.add(report.valid)
        for _ in range(3):  # valid words of the shapes (v & w) -> v and w -> (w | v)
            v = spanning(rng, random_word(rng, names, lat, 3), names)
            w = random_signature_word(rng, names, lat, 3)
            for word in (App("->", (App("&", (v, w)), v)), App("->", (w, App("|", (w, v))))):
                assert assert_matches_reference(word, lat, cap).valid
    assert False in verdicts


@pytest.mark.parametrize("name,lat", LATTICES, ids=[name for name, _ in LATTICES])
def test_sign_classes_match_the_whole_grid(name, lat):
    """Words whose variables all have one sign, all are mixed, or that have
    no variable; and variable-free words with constants or nullary
    connectives."""
    rng = random.Random(f"signs-{name}")
    n = sizes(lat.m)[-1]
    names = variables(n)
    half = n // 2
    lattice_ops = ("&", "|")
    for _ in range(4):
        up = spanning(rng, monotone_word(rng, names, 3), names, lattice_ops)
        assert set(_variable_signs(up, lat).values()) == {POS}
        left = spanning(rng, PropVar(names[0]), names[:half], lattice_ops)
        right = spanning(rng, PropVar(names[half]), names[half:], lattice_ops)
        split = App("->", (left, right))  # names[:half] NEG, the rest POS
        assert set(_variable_signs(split, lat).values()) == {NEG, POS}
        mixed = App("->", (spanning(rng, PropVar(names[-1]), names, lattice_ops),
                           spanning(rng, PropVar(names[0]), names, lattice_ops)))
        assert set(_variable_signs(mixed, lat).values()) == {POS | NEG}
        for word in (up, split, mixed):
            assert_matches_reference(word, lat, max(n, 10))
    closed = [Const(c) for c in lat.constants]
    closed += [App(c.name, ()) for c in lat.signature.connectives if c.arity == 0]
    for leaf in closed:
        for word in (leaf, App("->", (leaf, leaf)), App("|", (leaf, App("->", (leaf, leaf))))):
            assert_matches_reference(word, lat)


# a word in x1 whose value is above every element but the top, and is not
# always the top: x0 -> (c | detector) then fails only where x0 is the top,
# the last element, so the first countervaluation lies in the last slice
DETECTORS = {
    "classical": "x1",
    "classical-0": "x1",
    "godel3": "x1 | (x1 -> #0)",
    "lukasiewicz3": "x1 | (x1 -> #0)",
    "three-01": "x1 | (x1 -> #0)",
    "three-0a": "x1 | (x1 -> #0)",
    "mc": "(x1 -> x2) | (x2 -> x1)",
    "modal": "x1 | (x1 -> #0)",
}


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_first_countervaluation_in_the_last_slice(name):
    lat = dict(LATTICES)[name]
    rng = random.Random(f"last-{name}")
    n = sizes(lat.m)[-1]
    names = variables(n)
    assert lat.m ** n > PACKED_CELLS and lat.top == lat.m - 1
    detector = parse_formula(DETECTORS[name], lat.signature)
    found = 0
    for _ in range(8):
        c = spanning(rng, random_word(rng, names[2:], lat, 3), names[2:])
        word = App("->", (PropVar("x0"), App("|", (c, detector))))
        report = assert_matches_reference(word, lat, max(n, 10))
        if not report.valid:
            assert report.countervaluation["x0"] == lat.elements[-1]
            found += 1
    assert found


@pytest.mark.parametrize("name", ["classical", "mc", "modal"])
def test_ill_formed_words_raise_the_reference_error(name):
    """The sign walk visits nodes in another order than evaluation does:
    ``#zz & Foo(x0)`` meets the undeclared constant first in fold's order and
    the unknown connective first on the sign walk's stack."""
    lat = dict(LATTICES)[name]
    for n in sizes(lat.m):
        names = variables(n)
        big = spanning(random.Random(n), PropVar(names[0]), names)
        words = [
            App("&", (App("&", (Const("zz"), App("Foo", (PropVar("x0"),)))), big)),
            App("|", (big, App("Foo", (PropVar("x1"), Const("zz"))))),
            App("->", (big, App("&", (PropVar("x0"),)))),
            App("->", (App("&", (big, Const("zz"))), App("|", (PropVar("x0"),)))),
            App("->", (big, Atom("P", ()))),
        ]
        for word in words:
            assert assert_matches_reference(word, lat, max(n, 10)) is None


W = "((x & y) | (z -> x))"


def test_repeated_subword_is_evaluated_once(monkeypatch, mc):
    phi = parse_formula(f"{W} -> ({W} | v)", mc.signature)
    calls = []
    apply = propcore.apply_connective
    monkeypatch.setattr(propcore, "apply_connective",
                        lambda flat, m, args: calls.append(flat) or apply(flat, m, args))
    names = ("v", "x", "y", "z")
    col = _broadcast_column(phi, mc, names, None)
    # x & y, z -> x, their join, the join with v and the implication
    assert len(calls) == 5
    assert len(col) == mc.m ** len(names)
    for index, value in enumerate(col):
        assert mc.elements[value] == eval_prop(phi, mc, _decode_valuation(index, names, mc))


def test_a_deep_word_evaluates(classical, mc):
    chain = parse_formula(" -> ".join(["x"] * 1501), classical.signature)  # 3,001 nodes
    assert np.array_equal(_broadcast_column(chain, classical, ("x",), None),
                          reference_column(chain, classical, ("x",)))
    assert is_valid_prop(chain, classical).valid
    mixed = parse_formula(" -> ".join(["x", "y", "z", "v", "w"] * 300 + ["x"]), mc.signature)
    names = ("v", "w", "x", "y", "z")
    assert mc.m ** len(names) > PACKED_CELLS
    assert np.array_equal(_broadcast_column(mixed, mc, names, None),
                          reference_column(mixed, mc, names))
    assert_matches_reference(mixed, mc)
