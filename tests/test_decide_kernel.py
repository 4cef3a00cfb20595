"""Differential and known-answer tests of ``decide_interpolation``'s
relational bucket test against the pair-at-a-time reference in
``decide_reference.py``."""
import json
from pathlib import Path

import numpy as np
import pytest

from latlog import relations, render
from latlog.bundled import BUNDLED, bundled_lattice
from latlog.interp import (
    DecideBudget,
    _envelope_rows,
    _first_failing_pair,
    _left_vars,
    _right_vars,
    _shared_vars,
    decide_interpolation,
    find_prop_interpolant,
)
from latlog.propcore import ClosureBudget, _fold_axis, column_of, representable_closure
from latlog.relations import (
    _points,
    binary_invariants,
    first_failing_upper,
    fold_points,
    point_solutions,
)
from latlog.syntax import parse_formula

from decide_reference import reference_decide

NO_WITNESS = "(x1 -> #0) & x1 ; (z1 -> #0) | z1"
NO_WITNESS_POSITION = 2  # (bucket, U) tests on three-01 up to its NO witness
MC_WITNESS = "(x1 & y1 -> #0) & x1 ; (y1 -> z1) | (z1 -> #0)"
ORACLES = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "expected.json")
                     .read_text())["oracles"]


def _summary(report):
    pair = report.witness_pair
    return (report.status, report.path, report.complete,
            None if pair is None else " ; ".join(render(f) for f in pair))


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_decide_matches_reference_on_bundled_lattices(name):
    """Same status and witness wherever the reference decides; where it
    stops UNKNOWN, an answer the literature allows."""
    lat = bundled_lattice(name)
    for k in (1, 2):
        got = decide_interpolation(lat, k=k)
        # enough pairs for mc's witness at k = 2, the 109,304th pair
        want = reference_decide(lat, k=k, budget=DecideBudget(max_pairs=120_000))
        if want.status != "UNKNOWN":
            assert _summary(got) == _summary(want), (name, k)
        elif name in ORACLES:
            assert got.status in ORACLES[name]["allowed"], (name, k)


def test_pair_budget_at_the_witness_position():
    lat = bundled_lattice("three-01")
    report = decide_interpolation(lat, budget=DecideBudget(max_pairs=NO_WITNESS_POSITION))
    assert report.status == "NO" and report.pairs_checked == NO_WITNESS_POSITION
    assert report.bucket == (1, 0, 1)
    report = decide_interpolation(lat, budget=DecideBudget(max_pairs=NO_WITNESS_POSITION - 1))
    assert report.status == "UNKNOWN" and report.path == "budget"
    assert report.pairs_checked == NO_WITNESS_POSITION - 1
    assert report.bucket == (1, 0, 1)
    assert report.notes[-1] == f"budget of {NO_WITNESS_POSITION - 1} (bucket, U) tests exhausted"


@pytest.mark.parametrize("name", ["three-01", "lukasiewicz3"])
def test_decide_no_witness(name):
    report = decide_interpolation(bundled_lattice(name))
    assert _summary(report)[:2] == ("NO", "enumeration")
    assert report.pairs_checked == NO_WITNESS_POSITION
    assert _summary(report)[3] == NO_WITNESS
    assert report.pair_verdict.closure_complete


def test_decide_known_answers():
    assert decide_interpolation(bundled_lattice("three-0a")).status == "YES"
    assert decide_interpolation(bundled_lattice("godel3"), k=1).status != "NO"
    budget = DecideBudget(max_pairs=20_000, closure=ClosureBudget(
        max_columns=3000, max_apps_per_level=100_000))
    report = decide_interpolation(bundled_lattice("classical-1"), budget=budget)
    assert report.status in ("YES", "UNKNOWN")


def test_classical_1_has_interpolation():
    """Post's clone T1: every lower envelope preserves 1, so it is
    representable; all 88 upper-envelope candidates of k = m = 2 pass."""
    report = decide_interpolation(bundled_lattice("classical-1"))
    assert (report.status, report.path, report.complete) == ("YES", "enumeration", True)
    assert report.pairs_checked == 88


def test_mc_lacks_interpolation():
    mc = bundled_lattice("mc")
    report = decide_interpolation(mc)
    assert _summary(report) == ("NO", "enumeration", True, MC_WITNESS)
    assert report.bucket == (1, 1, 1)
    a, b = report.witness_pair
    verdict = find_prop_interpolant(a, b, mc)
    assert verdict.status == "NO" and verdict.closure_complete


def test_godel3_stops_at_the_first_bucket_it_cannot_enumerate():
    report = decide_interpolation(bundled_lattice("godel3"))
    assert report.status == "UNKNOWN" and report.bucket == (1, 3, 1)
    assert "3^27 upper-envelope candidates" in report.notes[-1]


def test_value_level_certificate_without_closure_words():
    """A closure budget too small for mc's shared closure leaves no words;
    the NO then carries U, L_U and the pair of points L_U violates."""
    mc = bundled_lattice("mc")
    budget = DecideBudget(closure=ClosureBudget(max_columns=4, max_apps_per_level=500_000))
    report = decide_interpolation(mc, budget=budget)
    assert report.status == "NO" and report.witness_pair is None
    assert report.bucket == (1, 1, 1)
    cert = report.certificate
    upper, lower = cert.upper.values, cert.lower.values
    assert mc.leq[lower, upper].all()
    p, q = (sum(mc.index(v[y]) * mc.m ** (len(cert.shared) - 1 - i)
                for i, y in enumerate(cert.shared)) for v in cert.points)
    assert (mc.elements[lower[p]], mc.elements[lower[q]]) not in cert.relation
    assert not binary_invariants(mc).is_representable(lower, len(cert.shared))
    # L_U is below U and no column of the complete shared closure equals it
    shared = representable_closure(mc, cert.shared)
    assert shared.complete
    assert all((c.values != lower).any() for c in shared.columns)


def test_is_representable_agrees_with_the_closure_on_every_function():
    cases = [(name, 0) for name in sorted(BUNDLED)] + [(name, 1) for name in sorted(BUNDLED)]
    cases += [("classical-1", 2), ("godel3", 2)]
    for name, n in cases:
        lat = bundled_lattice(name)
        m = lat.m
        idx = np.arange(m ** (m ** n))
        every = np.stack([(idx // m ** (m ** n - 1 - j)) % m for j in range(m ** n)], axis=1)
        closure = representable_closure(lat, tuple(f"v{i + 1}" for i in range(n)))
        assert closure.complete, (name, n)
        members = {c.values.tobytes() for c in closure.columns}
        want = np.array([row.astype(np.uint8).tobytes() in members for row in every])
        got = binary_invariants(lat).is_representable(every, n)
        assert (got == want).all(), (name, n)


@pytest.mark.parametrize("name", ["lukasiewicz3", "three-01"])
def test_two_variable_count_on_quasi_primal_chains(name):
    """The functions preserving {0, 1}: 2^4 * 3^5 = 3,888 (Pixley 1971)."""
    lat = bundled_lattice(name)
    idx = np.arange(3 ** 9)
    every = np.stack([(idx // 3 ** (8 - j)) % 3 for j in range(9)], axis=1)
    assert int(binary_invariants(lat).is_representable(every, 2).sum()) == 3888


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_every_closure_column_preserves_the_relations(name):
    lat = bundled_lattice(name)
    inv = binary_invariants(lat)
    for var_list in ((), ("x",), ("x", "y")):
        closure = representable_closure(lat, var_list, budget=ClosureBudget(max_columns=3000))
        values = np.stack([c.values for c in closure.columns]) if closure.columns else None
        if values is not None:
            assert inv.is_representable(values, len(var_list)).all(), (name, var_list)


def test_binary_invariants_map_masks_to_subuniverses():
    """On three-01 the pair (0, 1) generates, with the constants' pairs
    (0, 0) and (1, 1), the pairs (0, 1), (1, 0) by implication and the
    diagonal {0, 1}; a is never reached."""
    lat = bundled_lattice("three-01")
    inv = binary_invariants(lat)
    zero, one = lat.index("0"), lat.index("1")
    rel = inv[1 << (zero * lat.m + one)]
    pairs = {(lat.elements[a], lat.elements[b]) for a, b in np.argwhere(rel)}
    assert pairs == {("0", "0"), ("1", "1"), ("0", "1"), ("1", "0")}
    assert inv.is_representable(column_of(parse_formula("x & (x -> #0)"), lat, ("x",)), 1)
    assert not inv.is_representable(np.full(3, lat.index("a"), dtype=np.uint8), 1)


def test_unavailable_relations_stop_at_the_first_bucket(monkeypatch):
    """A lattice whose subuniverse generation would be too large stops
    UNKNOWN at the first bucket that needs it, naming that bucket."""
    monkeypatch.setattr(relations, "MAX_RELATION_CELLS", 8)
    report = decide_interpolation(bundled_lattice("three-01"))
    assert (report.status, report.complete, report.bucket) == ("UNKNOWN", False, (1, 0, 1))
    assert "too large" in report.notes[-1]


@pytest.mark.parametrize("name, bucket", [
    ("godel3", (1, 1, 1)), ("godel3", (2, 0, 2)), ("godel3", (1, 0, 2)), ("mc", (1, 0, 1)),
    ("classical-1", (2, 1, 1)), ("classical-1", (1, 2, 1)), ("three-01", (1, 0, 1)),
    ("lukasiewicz3", (1, 0, 1)),
])
def test_relational_bucket_test_matches_complete_closures(name, bucket):
    """On buckets whose closures complete: the relational E_U test accepts
    exactly the upper envelopes of the right-side closure, L_U is the
    greatest left-side envelope below U, and the bucket fails exactly when
    the closures hold a failing pair."""
    lat = bundled_lattice(name)
    inv = binary_invariants(lat)
    l, s, r = bucket
    m, S = lat.m, lat.m ** s
    shared = tuple(_shared_vars(s))
    a_clo = representable_closure(lat, tuple(_left_vars(l)) + shared)
    b_clo = representable_closure(lat, shared + tuple(_right_vars(r)))
    s_clo = representable_closure(lat, shared)
    assert a_clo.complete and b_clo.complete and s_clo.complete
    lows = _envelope_rows(a_clo.columns, (m ** l, S), lat.flat("|"), m, fold_first=True)
    ups = _envelope_rows(b_clo.columns, (S, m ** r), lat.flat("&"), m, fold_first=False)
    every = _points(m, S)
    least = fold_points(point_solutions(inv, l, s, r, left=False), every, inv.join, m)
    closed = (_fold_axis(least.reshape(len(every), S, m ** r), inv.meet, m + 1) == every).all(1)
    assert {u.tobytes() for u in every[closed]} == {u.tobytes() for u in ups}
    greatest = fold_points(point_solutions(inv, l, s, r, left=True), every, inv.meet, m)
    lower = _fold_axis(greatest.reshape(len(every), m ** l, S).swapaxes(1, 2), inv.join, m + 1)
    for u, lu in zip(every[closed], lower[closed]):
        below = lows[lat.leq[lows, u].all(axis=1)]
        if (lu == m).any():  # the sentinel: no lower envelope lies below U
            assert len(below) == 0
        else:
            assert lu.tobytes() in {x.tobytes() for x in below}
            assert lat.leq[below, lu].all()
    pair = _first_failing_pair(lows, ups, np.stack([c.values for c in s_clo.columns]), lat.leq)
    hit = first_failing_upper(inv, l, s, r, every, closed=False)
    assert (pair is None) == (hit is None)
