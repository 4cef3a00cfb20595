import itertools

import pytest

from latlog import (
    PropVar,
    parse_formula,
    render,
)
from latlog import interp
from latlog.bundled import bundled_lattice
from latlog.errors import LatlogError, NotValidError, PreconditionFailed
from latlog.interp import (
    constructive_interpolant_all_constants,
    decide_interpolation,
    envelope_violation,
    find_prop_interpolant,
    recheck_no_certificate,
    spectrum,
)
from latlog.propcore import (
    ClosureBudget,
    ClosureState,
    closure_ladder,
    column_of,
    envelopes,
    eval_prop,
    is_valid_implication,
    representable_closure,
)

from genutil import leq_names, random_valid_pair, random_word
from property_checks import check_lemmas_123
from sigma_collapse import collapse_word, merge_interpolants_sigma, sigma_key, sigma_substitutions


# ---------------------------------------------------------------------------
# find_prop_interpolant


def test_no_interpolant_on_three_01(three_01):
    a = parse_formula("x & (x -> #0)")
    b = parse_formula("y | (y -> #0)")
    v = find_prop_interpolant(a, b, three_01)
    assert v.status == "NO"
    assert v.lower.value_names(three_01) == ("a",)
    assert v.upper.value_names(three_01) == ("a",)
    assert sorted(c.value_names(three_01) for c in v.closure_columns) == [("0",), ("1",)]
    assert v.closure_complete
    assert recheck_no_certificate(v, three_01)


def test_same_pair_interpolates_on_three_0a(three_0a):
    a = parse_formula("x & (x -> #0)")
    b = parse_formula("y | (y -> #0)")
    v = find_prop_interpolant(a, b, three_0a)
    assert v.status == "YES"
    # the only value between the envelopes is a, so the interpolant denotes it
    assert eval_prop(v.interpolant, three_0a, {}) == "a"


def test_trivial_shared_variable(three_01):
    v = find_prop_interpolant(PropVar("x"), PropVar("x"), three_01)
    assert v.status == "YES"
    assert v.interpolant == PropVar("x")


def test_interpolate_requires_valid_implication(classical):
    with pytest.raises(NotValidError):
        find_prop_interpolant(PropVar("x"), PropVar("y"), classical)


def test_classical_small_interpolant(classical_01):
    v = find_prop_interpolant(parse_formula("x & y"), parse_formula("y | z"), classical_01)
    assert v.status == "YES"
    assert v.interpolant == PropVar("y")


def test_unknown_on_budget(mc):
    a = parse_formula("(b1 & c1) | (b2 & c1) | (b3 & c1) | (b4 & c1) | (b5 & c1)")
    b = parse_formula("(a1 | b1) | (a2 | b2) | (a3 | b3) | (a4 | b4) | (a5 | b5)")
    v = find_prop_interpolant(a, b, mc, budget=ClosureBudget(max_columns=20))
    assert v.status == "UNKNOWN"
    assert v.budget_note


def test_mc_propositional_interpolant(mc):
    a = parse_formula("(b1 & c1) | (b2 & c1) | (b3 & c1) | (b4 & c1) | (b5 & c1)")
    b = parse_formula("(a1 | b1) | (a2 | b2) | (a3 | b3) | (a4 | b4) | (a5 | b5)")
    v = find_prop_interpolant(a, b, mc)
    assert v.status == "YES"
    assert v.shared == ("b1", "b2", "b3", "b4", "b5")
    # the interpolant is the join of the shared atoms
    col = column_of(v.interpolant, mc, v.shared)
    want = column_of(parse_formula("b1 | b2 | b3 | b4 | b5"), mc, v.shared)
    assert (col == want).all()


# ---------------------------------------------------------------------------
# re-verification of a YES from the envelopes


@pytest.mark.parametrize("name", ["classical-1", "godel3", "lukasiewicz3", "three-0a",
                                  "diamond", "mc"])
def test_envelope_check_agrees_with_both_implications(name, rng):
    """A word over the shared variables lies between the envelopes exactly
    when a -> I and I -> b are both valid: on seeded valid pairs, for random
    shared words (most of them no interpolant) and the interpolant found."""
    lat = bundled_lattice(name)
    outcomes = set()
    pairs = 0
    while pairs < 5:
        a, b = random_valid_pair(rng, lat, ["x1"], ["y1", "y2"], ["z1"])
        env = envelopes(a, b, lat)
        if not env.shared:
            continue
        pairs += 1
        words = [random_word(rng, list(env.shared), lat, depth=3) for _ in range(12)]
        verdict = find_prop_interpolant(a, b, lat)
        if verdict.status == "YES":
            words.append(verdict.interpolant)
        for w in words:
            valid = (is_valid_implication(a, w, lat).valid
                     and is_valid_implication(w, b, lat).valid)
            bad = envelope_violation(w, env, lat)
            assert (bad is None) == valid, (render(a), render(w), render(b))
            if bad is not None:
                assert set(bad) == set(env.shared)
            outcomes.add(valid)
    assert outcomes == {True, False}


def _corrupt_values(monkeypatch, ladder, env):
    """Store the lower envelope as the values of the first closure column."""
    values = ladder.values.copy()
    values[0] = env.lower.values
    monkeypatch.setattr(ladder, "values", values)


def _corrupt_witnesses(monkeypatch, ladder, env):
    """Give every closure column the witness of the first one."""
    first = ladder.witness(0)
    monkeypatch.setattr(ladder, "witness", lambda i: first)


def _corrupt_scan(monkeypatch, ladder, env):
    """Let the next search scan level 1 as the first one did, and hand back
    the scan's column with the witness of another column."""
    monkeypatch.setattr(ladder, "scanned_level", 0)
    original = ClosureState.stream_scan

    def scan(self, lower, upper):
        found = original(self, lower, upper)
        return found and (found[0], found[1], self.witness(0))

    monkeypatch.setattr(ClosureState, "stream_scan", scan)


@pytest.mark.parametrize("corrupt", [_corrupt_values, _corrupt_witnesses, _corrupt_scan])
def test_yes_whose_word_leaves_the_envelopes_is_a_bug(corrupt, monkeypatch):
    """The only interpolant, y1 & y2, lies on level 1 of the lattice's
    shared closure, which the first search scans with ``stream_scan``.  When
    the values of a level-0 column, the witnesses of the kept columns or the
    witness the scan hands back are corrupted, the stored values say a
    column fits while its word does not, and the re-verification evaluates
    the word.  The lattice is the test's own, as its closure is corrupted."""
    three_0a = bundled_lattice("three-0a")
    a, b = parse_formula("x & y1 & y2"), parse_formula("y1 & y2 | z")
    assert find_prop_interpolant(a, b, three_0a).interpolant_word == "y1 & y2"
    env = envelopes(a, b, three_0a)
    corrupt(monkeypatch, closure_ladder(three_0a, env.shared), env)
    with pytest.raises(LatlogError, match="this is a bug") as info:
        find_prop_interpolant(a, b, three_0a)
    assert set(info.value.details["countervaluation"]) == set(env.shared)


# ---------------------------------------------------------------------------
# constructive interpolant


def test_constructive_classical_oracle(classical_01):
    """Oracle: verify both implications by brute force over all valuations."""
    a = parse_formula("x & y")
    b = PropVar("y")
    interpolant = constructive_interpolant_all_constants(a, b, classical_01)
    assert render(interpolant) == "#0 & y | #1 & y"
    for xv in ("0", "1"):
        for yv in ("0", "1"):
            va = eval_prop(a, classical_01, {"x": xv, "y": yv})
            vi = eval_prop(interpolant, classical_01, {"y": yv})
            vb = eval_prop(b, classical_01, {"y": yv})
            assert leq_names(classical_01, va, vi) and leq_names(classical_01, vi, vb)


def test_constructive_closed_antecedent(three_0a):
    a = parse_formula("#a")
    b = parse_formula("y | (y -> #0)")
    assert constructive_interpolant_all_constants(a, b, three_0a) == a


def test_constructive_three_0a_witness_pair(three_0a):
    a = parse_formula("x & (x -> #0)")
    b = parse_formula("y | (y -> #0)")
    interpolant = constructive_interpolant_all_constants(a, b, three_0a)
    assert is_valid_implication(a, interpolant, three_0a).valid
    assert is_valid_implication(interpolant, b, three_0a).valid


def test_constructive_interpolant_of_a_deep_chain(classical_01):
    """The private variable of a 3,001-arrow chain is replaced by each
    constant word; the recursive substitution raised RecursionError here."""
    chain = " -> ".join(["x"] * 3001)
    a = parse_formula(f"({chain}) & y")
    interpolant = constructive_interpolant_all_constants(a, PropVar("y"), classical_01)
    assert render(interpolant) == " | ".join(
        f"({chain.replace('x', c)}) & y" for c in ("#0", "#1"))


def test_constructive_requires_all_values(three_01):
    with pytest.raises(PreconditionFailed):
        constructive_interpolant_all_constants(
            parse_formula("x & y"), PropVar("y"), three_01)


# ---------------------------------------------------------------------------
# sigma substitutions and merging


def test_sigma_substitutions_shapes():
    assert sigma_substitutions(["x"], 3) == [{"x": "x"}]
    two = sigma_substitutions(["x1", "x2"], 2)
    assert {tuple(sorted(s.items())) for s in two} == {
        (("x1", "x1"), ("x2", "x1")),
        (("x1", "x1"), ("x2", "x2")),
    }
    # with n = 1 only the total collapse remains
    assert sigma_substitutions(["x1", "x2"], 1) == [{"x1": "x1", "x2": "x1"}]


def test_merge_single_variable_shape(classical_01):
    interpolants = {("x",): PropVar("x")}
    merged = merge_interpolants_sigma(interpolants, ["x"], 2)
    assert render(merged) == "x & ((x -> x) & (x -> x))"


def test_merge_two_variables_interpolates(classical_01):
    """Oracle: brute-force sandwich check of the merged interpolant for
    a = y1 & y2, b = y1 | y2 with per-substitution interpolants."""
    a = parse_formula("y1 & y2")
    b = parse_formula("y1 | y2")
    variables = ["y1", "y2"]
    interpolants = {}
    for sigma in sigma_substitutions(variables, 2):
        a_sigma = parse_formula(f"{sigma['y1']} & {sigma['y2']}")
        b_sigma = parse_formula(f"{sigma['y1']} | {sigma['y2']}")
        v = find_prop_interpolant(a_sigma, b_sigma, classical_01)
        assert v.status == "YES"
        interpolants[sigma_key(sigma, variables)] = v.interpolant
    merged = merge_interpolants_sigma(interpolants, variables, 2)
    assert is_valid_implication(a, merged, classical_01).valid
    assert is_valid_implication(merged, b, classical_01).valid


def test_merge_two_variables_interpolates_on_godel3(godel3):
    """Same merge check on a three-valued chain where the pairing word is a
    congruence guard."""
    a = parse_formula("y1 & y2")
    b = parse_formula("y1 | (y2 -> y2)")
    variables = ["y1", "y2"]
    interpolants = {}
    for sigma in sigma_substitutions(variables, godel3.m):
        a_sigma = parse_formula(f"{sigma['y1']} & {sigma['y2']}")
        b_sigma = parse_formula(f"{sigma['y1']} | ({sigma['y2']} -> {sigma['y2']})")
        v = find_prop_interpolant(a_sigma, b_sigma, godel3)
        assert v.status == "YES"
        interpolants[sigma_key(sigma, variables)] = v.interpolant
    merged = merge_interpolants_sigma(interpolants, variables, godel3.m)
    assert is_valid_implication(a, merged, godel3).valid
    assert is_valid_implication(merged, b, godel3).valid


def test_collapse_word_contains_both_directions():
    sigma = {"x1": "x1", "x2": "x1"}
    w = render(collapse_word(sigma, ["x1", "x2"]))
    assert "(x1 -> x2)" in w and "(x2 -> x1)" in w


# ---------------------------------------------------------------------------
# decide_interpolation


def test_decide_no_constants_quick_path(classical):
    report = decide_interpolation(classical)
    assert report.status == "NO"
    assert report.path == "no_constant_values"
    a, b = report.witness_pair
    assert render(a) == "x" and render(b) == "y -> y"


def test_decide_all_values_quick_path(three_0a, classical_01):
    for lat in (three_0a, classical_01):
        report = decide_interpolation(lat)
        assert report.status == "YES"
        assert report.path == "all_values_representable"
        assert report.sample_interpolant is not None


def test_decide_three_01_finds_the_witness_pair(three_01):
    report = decide_interpolation(three_01)
    assert report.status == "NO"
    assert report.path == "enumeration"
    a, b = report.witness_pair
    # the witness pair denotes the same one-variable functions as the
    # canonical non-interpolating implication, up to variable naming
    acol = column_of(a, three_01, tuple(sorted({v for v in ("x1",) })))
    want_a = column_of(parse_formula("x1 & (x1 -> #0)"), three_01, ("x1",))
    assert (acol == want_a).all()
    bcol = column_of(b, three_01, ("z1",))
    want_b = column_of(parse_formula("z1 | (z1 -> #0)"), three_01, ("z1",))
    assert (bcol == want_b).all()
    assert report.pair_verdict.closure_complete


def test_decide_grows_each_variable_list_once(three_01, luka3, monkeypatch):
    """Closures are grown only for the witness of the failing bucket, here
    (1, 0, 1): the shared, left and right lists, each once."""
    grown = []

    def counting(lat, var_list, *args, **kwargs):
        grown.append(tuple(var_list))
        return representable_closure(lat, var_list, *args, **kwargs)

    monkeypatch.setattr(interp, "representable_closure", counting)
    for lat in (three_01, luka3):
        grown.clear()
        assert decide_interpolation(lat).status == "NO"
        assert grown == [(), ("x1",), ("z1",)]


def test_decide_bounded_unknown_on_classical_1(classical_1):
    report = decide_interpolation(classical_1, k=1)
    assert report.status == "UNKNOWN"
    assert not report.complete


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_classical(classical):
    report = spectrum(classical, k=1)
    assert report.entry(()) == "NO"
    assert report.entry(("0",)) == "YES"
    assert report.entry(("0", "1")) == "YES"
    assert report.entry(("1",)) in ("YES", "UNKNOWN")


def test_spectrum_monotone_sanity(classical):
    report = spectrum(classical, k=1)
    for small, big in itertools.combinations(report.entries, 2):
        lo, hi = (small, big) if small <= big else (big, small)
        if lo <= hi and report.entries[lo] == "YES":
            assert report.entries[hi] != "NO"


def test_spectrum_godel3_half_entry(godel3):
    report = spectrum(godel3, k=1, subsets=[("h",)])
    assert report.entry(("h",)) == "YES"
    assert report.reports[frozenset({"h"})].path == "all_values_representable"


def test_spectrum_full_set_always_yes(diamond):
    report = spectrum(diamond, k=1, subsets=[tuple(diamond.elements)])
    assert report.entry(diamond.elements) == "YES"


# ---------------------------------------------------------------------------
# the lemma suites


def test_variable_collapse_soundness():
    check_lemmas_123()
