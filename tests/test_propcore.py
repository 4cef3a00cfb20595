import pytest

from latlog import (
    App,
    Const,
    PropVar,
    parse_formula,
    render,
)
from latlog.errors import (
    BudgetExceeded,
    LatlogError,
    NotValidError,
    UnboundVariable,
    UndeclaredConstant,
)
from latlog.propcore import (
    ClosureBudget,
    column_of,
    constant_values,
    envelopes,
    eval_prop,
    is_valid_implication,
    is_valid_prop,
    representable_closure,
)

from genutil import imp_idx, meet_idx
from property_checks import check_prop_b, check_prop_two, check_value_column_witnesses


# ---------------------------------------------------------------------------
# evaluation


def test_eval_godel_implication(godel3):
    assert eval_prop(parse_formula("x -> y"), godel3, {"x": "1", "y": "h"}) == "h"


def test_eval_identity_on_every_element(three_01):
    for v in three_01.elements:
        assert eval_prop(PropVar("x"), three_01, {"x": v}) == v


def test_witness_column_oracle(three_01):
    """Oracle: evaluate x & (x -> #0) per valuation straight off the tables."""
    f = parse_formula("x & (x -> #0)")
    expected = []
    for v in three_01.elements:
        vi = three_01.index(v)
        imp = imp_idx(three_01, vi, three_01.constants["0"])
        expected.append(three_01.elements[meet_idx(three_01, vi, imp)])
    assert expected == ["0", "a", "0"]
    col = column_of(f, three_01, ("x",))
    assert [three_01.elements[int(i)] for i in col] == expected


def test_eval_errors(three_01):
    with pytest.raises(UnboundVariable):
        eval_prop(PropVar("x"), three_01, {})
    with pytest.raises(UndeclaredConstant):
        eval_prop(Const("q"), three_01, {})


# ---------------------------------------------------------------------------
# validity


def test_x_implies_x_valid_on_every_bundled_lattice():
    from latlog.bundled import BUNDLED, bundled_lattice

    f = parse_formula("x -> x")
    for name in BUNDLED:
        assert is_valid_prop(f, bundled_lattice(name)).valid, name


def test_witness_formula_valid_on_three(three_01):
    f = parse_formula("x & (x -> #0) -> (y | (y -> #0))")
    assert is_valid_prop(f, three_01).valid


def test_classical_countervaluation(classical):
    report = is_valid_prop(parse_formula("x -> y"), classical)
    assert not report.valid
    assert report.countervaluation == {"x": "1", "y": "0"}


def test_validity_budget(classical):
    f = parse_formula(" & ".join(f"v{i}" for i in range(12)))
    with pytest.raises(BudgetExceeded):
        is_valid_prop(f, classical, var_cap=10)


@pytest.mark.parametrize("text", [
    " & ".join(f"v{i}" for i in range(11)) + " & P(c)",
    "(" + " | ".join(f"v{i}" for i in range(11)) + ") -> exists x. Q(x)",
])
def test_non_word_is_rejected_before_the_variable_cap(classical, text):
    """A formula with atoms or quantifiers is not a propositional word, and
    says so, even when its 11 variables are past the cap of 10."""
    f = parse_formula(text)
    with pytest.raises(LatlogError) as exc:
        is_valid_prop(f, classical)
    assert type(exc.value) is LatlogError
    assert exc.value.message == f"not a propositional word: {render(f)}"


def test_factored_implication_matches_grid(three_01, rng):
    """Oracle: the shared-variable factorisation agrees with the plain sweep."""
    from genutil import random_word

    for _ in range(40):
        a = random_word(rng, ["x", "s"], three_01, depth=3)
        b = random_word(rng, ["s", "z"], three_01, depth=3)
        whole = App("->", (a, b))
        assert is_valid_implication(a, b, three_01).valid == is_valid_prop(whole, three_01).valid


# ---------------------------------------------------------------------------
# representable closure


def test_zero_variable_closure_trace(luka3):
    clo = representable_closure(luka3, ())
    assert clo.complete
    assert clo.cumulative == [1, 2]
    assert sorted(c.value_names(luka3) for c in clo.columns) == [("0",), ("1",)]


def test_one_variable_closure_implication_only(luka3):
    clo = representable_closure(luka3, ("x",), connectives=("->",))
    assert clo.complete
    assert clo.cumulative == [2, 4, 6, 9, 11, 12]
    assert len(clo.columns) == 12
    got = {c.value_names(luka3) for c in clo.columns}
    expected = {
        (f0, fh, f1)
        for f0 in ("0", "1") for fh in ("0", "h", "1") for f1 in ("0", "1")
    }
    assert got == expected


def test_one_variable_closure_full_signature_same_set(luka3):
    clo = representable_closure(luka3, ("x",))
    assert clo.complete and len(clo.columns) == 12


def test_classical_unary_closure_is_all_four_functions(classical_01):
    """Oracle: enumerate the four unary Boolean functions directly."""
    clo = representable_closure(classical_01, ("x",))
    got = {c.value_names(classical_01) for c in clo.columns}
    assert got == {("0", "1"), ("1", "0"), ("0", "0"), ("1", "1")}


def test_closure_level_cap_marks_incomplete(luka3):
    clo = representable_closure(luka3, ("x",), budget=ClosureBudget(max_levels=1),
                                connectives=("->",))
    assert not clo.complete
    assert clo.cumulative == [2, 4]
    assert clo.budget_note


def test_closure_with_unary_and_nullary_connectives():
    """Extra connectives of arity one and zero join the closure like any
    other: the unary table at level 1, the nullary value as a constant."""
    from latlog import RawConnective, RawLattice, validate_lattice

    raw = RawLattice(
        elements=["0", "h", "1"],
        covers=[("0", "h"), ("h", "1")],
        connectives=[
            RawConnective("->", ("-", "+"),
                          ["1", "1", "1", "0", "1", "1", "0", "h", "1"]),
            RawConnective("Box_up", ("+",), ["0", "h", "h"]),
            RawConnective("Mid", (), ["h"]),
        ],
    )
    lat = validate_lattice(raw)
    clo = representable_closure(lat, ("x",), connectives=("Box_up", "Mid"))
    got = {c.value_names(lat): c.word for c in clo.columns}
    assert got[("h", "h", "h")] == "Mid()"
    assert got[("0", "h", "h")] == "Box_up(x)"
    assert clo.complete
    from latlog import parse_formula
    for col in clo.columns:
        assert parse_formula(col.word, lat.signature) == col.witness


def test_closure_monotone_and_stable(godel3):
    clo = representable_closure(godel3, ("x",))
    assert all(b >= a for a, b in zip(clo.cumulative, clo.cumulative[1:]))
    # fixpoint reached: growing one more level adds nothing
    again = representable_closure(godel3, ("x",),
                                  budget=ClosureBudget(max_levels=len(clo.added) + 3))
    assert len(again.columns) == len(clo.columns)


def test_witnesses_reevaluate():
    check_value_column_witnesses()


# ---------------------------------------------------------------------------
# constant values


def test_constant_values_three_01(three_01):
    values = constant_values(three_01)
    assert set(values) == {"0", "1"}


def test_constant_values_three_0a(three_0a):
    values = constant_values(three_0a)
    assert set(values) == {"0", "a", "1"}
    assert render(values["1"]) == "#0 -> #0"


def test_constant_values_no_constants(classical):
    assert constant_values(classical) == {}


def test_constant_values_are_built_once_per_lattice(monkeypatch):
    """The closed words' closure is grown on the first call only, and each
    call hands out a dict of its own, which the caller may change."""
    from latlog import propcore
    from latlog.bundled import bundled_lattice

    grown = []
    closure = propcore.representable_closure
    monkeypatch.setattr(propcore, "representable_closure",
                        lambda lat, var_list: grown.append(lat) or closure(lat, var_list))
    lat = bundled_lattice("three-0a")
    first = constant_values(lat)
    first.clear()
    second = constant_values(lat)
    assert set(second) == {"0", "a", "1"} and second is not constant_values(lat)
    assert grown == [lat]
    assert set(constant_values(bundled_lattice("three-0a"))) == set(second)
    assert len(grown) == 2


# ---------------------------------------------------------------------------
# envelopes


def test_envelopes_witness_pair(three_01):
    env = envelopes(parse_formula("x & (x -> #0)"),
                    parse_formula("y | (y -> #0)"), three_01)
    assert env.shared == ()
    assert env.lower.value_names(three_01) == ("a",)
    assert env.upper.value_names(three_01) == ("a",)


def test_envelopes_classical_oracle(classical):
    """Oracle: brute-force the envelopes of x & y -> y | z over all eight
    valuations: both come out as the shared variable itself."""
    a = parse_formula("x & y")
    b = parse_formula("y | z")
    lower_expected, upper_expected = [], []
    for yv in (0, 1):
        lo = max(min(xv, yv) for xv in (0, 1))
        hi = min(max(yv, zv) for zv in (0, 1))
        lower_expected.append(lo)
        upper_expected.append(hi)
    assert lower_expected == [0, 1] and upper_expected == [0, 1]
    env = envelopes(a, b, classical)
    assert env.shared == ("y",)
    assert list(env.lower.values) == lower_expected
    assert list(env.upper.values) == upper_expected


def test_envelopes_identity(three_01):
    env = envelopes(PropVar("x"), PropVar("x"), three_01)
    assert list(env.lower.values) == [0, 1, 2]
    assert list(env.upper.values) == [0, 1, 2]


def test_envelopes_require_validity(classical):
    with pytest.raises(NotValidError):
        envelopes(PropVar("x"), PropVar("y"), classical)


def test_envelope_sandwich_property(godel3, rng):
    """For random valid implications, the antecedent stays below the lower
    envelope and the upper envelope below the succedent, at every valuation."""
    from genutil import random_valid_pair
    from latlog.syntax import prop_variables

    m = godel3.m
    for _ in range(10):
        a, b = random_valid_pair(rng, godel3, ["u"], ["s"], ["w"], depth=2)
        env = envelopes(a, b, godel3)
        shared = env.shared
        left = tuple(sorted(prop_variables(a) - set(shared)))
        right = tuple(sorted(prop_variables(b) - set(shared)))
        acol = column_of(a, godel3, shared + left).reshape(m ** len(shared), -1)
        for si in range(m ** len(shared)):
            for val in acol[si]:
                assert godel3.leq[val, env.lower.values[si]]
        bcol = column_of(b, godel3, shared + right).reshape(m ** len(shared), -1)
        for si in range(m ** len(shared)):
            for val in bcol[si]:
                assert godel3.leq[env.upper.values[si], val]


# ---------------------------------------------------------------------------
# the named property suites


def test_prop_b_identities():
    check_prop_b()


def test_pairing_word_equivalence():
    check_prop_two()


def test_pairing_word_counterexample_on_three_01(three_01, luka3):
    """The pairing-word equivalence needs weak modus ponens and provably fails
    on the three-element tables whose else-branch returns the middle value:
    with x = a and x' = 0 the guard evaluates to a, and a & a differs from
    0 & a.  Frozen from the hand computation."""
    guard = parse_formula("(x -> p) & (p -> x)")
    left = App("&", (PropVar("x"), guard))
    right = App("&", (PropVar("p"), guard))
    assert eval_prop(left, three_01, {"x": "a", "p": "0"}) == "a"
    assert eval_prop(right, three_01, {"x": "a", "p": "0"}) == "0"
    assert eval_prop(left, luka3, {"x": "h", "p": "0"}) == "h"
    assert eval_prop(right, luka3, {"x": "h", "p": "0"}) == "0"
