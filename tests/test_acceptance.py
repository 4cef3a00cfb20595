"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting the stated bound."""
import functools
import random
import time
from contextlib import contextmanager

from latlog import (
    App,
    Quant,
    bundled_lattice,
    parse_formula,
    render,
)
from latlog.folift import find_herbrand_expansion, fo_interpolate
from latlog.interp import (
    constructive_interpolant_all_constants,
    decide_interpolation,
    find_prop_interpolant,
)
from latlog.propcore import (
    eval_prop,
    is_valid_implication,
    is_valid_prop,
    representable_closure,
)
from latlog.syntax import prop_variables

import property_checks
from genutil import leq_names, random_word


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL - {description} "
              f"({time.perf_counter() - start:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"CRITERION {number}: PASS - {description} ({elapsed:.2f} s)")
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f} s, limit {limit_s}"


def test_criterion_1_non_interpolation_witness():
    with criterion(1, "non-interpolation witness on the three-element chain", 1.0):
        lat = bundled_lattice("three-01")
        a = parse_formula("x & (x -> #0)")
        b = parse_formula("y | (y -> #0)")
        verdict = find_prop_interpolant(a, b, lat)
        assert verdict.status == "NO"
        assert verdict.lower.value_names(lat) == ("a",)
        assert verdict.upper.value_names(lat) == ("a",)
        assert verdict.closure_complete
        assert sorted(c.value_names(lat) for c in verdict.closure_columns) == [
            ("0",), ("1",)]


def test_criterion_2_mc_first_order_pipeline():
    with criterion(2, "first-order pipeline on the five-element up-set lattice", 30.0):
        lat = bundled_lattice("mc")
        phi = parse_formula(
            "exists x.(B(x) & forall y. C(y)) -> exists x.(A(x) | B(x))")
        result = fo_interpolate(phi, lat)
        trace = result.trace

        # step 1: the skolemized antecedent is a five-fold join of
        # B(constant) & (forall y. C(y)); the succedent keeps its weak exists
        sk_a, sk_b = trace.skolemized.args
        disjuncts = []

        def split_or(f):
            if isinstance(f, App) and f.conn == "|":
                for x in f.args:
                    split_or(x)
            else:
                disjuncts.append(f)

        split_or(sk_a)
        assert len(disjuncts) == 5
        consts = []
        for d in disjuncts:
            assert isinstance(d, App) and d.conn == "&"
            atom, kept = d.args
            assert render(kept) == "forall y. C(y)"
            consts.append(atom.args[0].name)
        assert len(set(consts)) == 5
        assert isinstance(sk_b, Quant) and sk_b.kind == "exists"

        # step 2: the expansion stabilizes at n = 5
        assert trace.herbrand.n == 5

        # step 3: the propositional interpolant is the join of the five
        # shared ground atoms
        ground = trace.ground_interpolant
        leaves = []
        split = []

        def split_or2(f, acc):
            if isinstance(f, App) and f.conn == "|":
                for x in f.args:
                    split_or2(x, acc)
            else:
                acc.append(f)

        split_or2(ground, leaves)
        assert sorted(render(l) for l in leaves) == sorted(f"B({c})" for c in consts)

        # steps 4-5: generalization eliminates the five constants by
        # existentials; the interpolant is the existential block over the join
        assert [s.quantifier for s in trace.generalization] == ["exists"] * 5
        bound = []
        body = result.interpolant
        while isinstance(body, Quant):
            assert body.kind == "exists"
            bound.append(body.var)
            body = body.body
        assert len(bound) == 5
        split_or2(body, split)
        assert sorted(render(l) for l in split) == sorted(f"B({v})" for v in bound)
        assert trace.smoke["structures"] > 0


def test_criterion_3_herbrand_example():
    with criterion(3, "expansion search on P(c,d,d) -> exists x. P(c,x,d)", 1.0):
        lat = bundled_lattice("mc")
        phi = parse_formula("P(c,d,d) -> exists x. P(c,x,d)")
        search = find_herbrand_expansion(phi, lat)
        assert search.status == "FOUND"
        assert search.n == 2
        assert search.expansion == parse_formula(
            "P(c,d,d) -> P(c,c,d) | P(c,d,d)")
        from latlog.folift import expand_n
        assert expand_n(phi, 3) == search.expansion  # E_3 equals E_2


def test_criterion_4_closure_trace():
    with criterion(4, "closure traces on the three-valued chain", 1.0):
        lat = bundled_lattice("lukasiewicz3")
        clo0 = representable_closure(lat, ())
        assert clo0.cumulative == [1, 2]
        assert sorted(c.value_names(lat) for c in clo0.columns) == [("0",), ("1",)]
        clo1 = representable_closure(lat, ("x",), connectives=("->",))
        assert clo1.complete
        assert len(clo1.columns) == 12
        assert clo1.cumulative == [2, 4, 6, 9, 11, 12]
        got = {c.value_names(lat) for c in clo1.columns}
        assert got == {(f0, fh, f1) for f0 in ("0", "1")
                       for fh in ("0", "h", "1") for f1 in ("0", "1")}


def test_criterion_5_residuation():
    with criterion(5, "residuation refutation on the diamond", 1.0):
        from latlog.algebra import derive_residuum

        lat = bundled_lattice("diamond")
        report = derive_residuum(lat)
        assert not report.residuated
        assert report.failing_pair == ("u1", "u2")
        assert [c.candidate for c in report.cases] == ["0", "u1", "u2", "1"]
        assert all(c.detail for c in report.cases)


def test_criterion_6_quick_decision_paths():
    with criterion(6, "quick decision paths", 3.0):
        t0 = time.perf_counter()
        report = decide_interpolation(bundled_lattice("classical"))
        assert report.status == "NO"
        assert report.path == "no_constant_values"
        assert render(report.witness_pair[0]) == "x"
        assert render(report.witness_pair[1]) == "y -> y"
        assert time.perf_counter() - t0 < 1.0

        for name in ("three-0a", "classical-01"):
            t0 = time.perf_counter()
            lat = bundled_lattice(name)
            report = decide_interpolation(lat)
            assert report.status == "YES"
            assert report.path == "all_values_representable"
            # a constructive interpolant for the witness pair passes the
            # brute-force sandwich check
            a = parse_formula("x & (x -> #0)")
            b = parse_formula("y | (y -> #0)")
            interpolant = constructive_interpolant_all_constants(a, b, lat)
            vars_a = sorted(prop_variables(a) | prop_variables(interpolant))
            import itertools
            for combo in itertools.product(lat.elements, repeat=2):
                v = dict(zip(["x", "y"], combo))
                va = eval_prop(a, lat, v)
                vi = eval_prop(interpolant, lat, v)
                vb = eval_prop(b, lat, v)
                assert leq_names(lat, va, vi) and leq_names(lat, vi, vb)
            assert time.perf_counter() - t0 < 1.0


def test_criterion_7_random_valid_implications_top_fragment():
    with criterion(7, "200 random valid implications over the join of "
                      "one-constant classical logic", 60.0):
        lat = bundled_lattice("classical-1")
        rng = random.Random(20240801)
        found = 0
        attempts = 0
        while found < 200:
            attempts += 1
            assert attempts < 40000, "generator budget exhausted"
            a = random_word(rng, ["x1", "x2", "y1", "y2"], lat, depth=3)
            b = random_word(rng, ["y1", "y2", "z1", "z2"], lat, depth=3)
            shared = prop_variables(a) & prop_variables(b)
            if len(shared) > 2:
                continue
            if not is_valid_implication(a, b, lat).valid:
                continue
            found += 1
            verdict = find_prop_interpolant(a, b, lat)
            assert verdict.status == "YES", (render(a), render(b))
            i = verdict.interpolant
            assert is_valid_implication(a, i, lat).valid
            assert is_valid_implication(i, b, lat).valid
            assert prop_variables(i) <= shared


def test_criterion_8_property_suites():
    with criterion(8, "property suites", 300.0):
        for name, suite in property_checks.ALL_SUITES:
            t0 = time.perf_counter()
            suite()
            print(f"  suite {name}: ok ({time.perf_counter() - t0:.2f} s)")


def test_criterion_9_mc_spot_checks():
    with criterion(9, "spot checks on the five-element up-set lattice", 1.0):
        lat = bundled_lattice("mc")  # loading runs the full validation sweep
        assert is_valid_prop(parse_formula("x -> x"), lat).valid
        leq = functools.partial(leq_names, lat)
        assert leq("0", "u1") and leq("0", "u2")
        assert leq("u1", "w") and leq("u2", "w") and leq("w", "1")
        assert not leq("u1", "u2") and not leq("u2", "u1")
        assert not leq("1", "w")
        assert lat.elements[lat.top] == "1"
