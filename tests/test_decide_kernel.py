"""Differential and known-answer tests of ``decide_interpolation``'s
per-bucket evaluation against the pair-at-a-time reference in
``decide_reference.py``."""
import pytest

from latlog import render
from latlog.bundled import BUNDLED, bundled_lattice
from latlog.interp import DecideBudget, decide_interpolation
from latlog.propcore import ClosureBudget

from decide_reference import reference_decide

NO_WITNESS = "(x1 -> #0) & x1 ; (z1 -> #0) | z1"
NO_WITNESS_POSITION = 8859  # pairs enumerated on three-01 up to its NO witness


def _summary(report):
    pair = report.witness_pair
    return (report.status, report.path, report.pairs_checked, report.complete,
            None if pair is None else " ; ".join(render(f) for f in pair), report.notes)


def _same_as_reference(name, k, max_pairs):
    lat = bundled_lattice(name)
    got = decide_interpolation(lat, k=k, budget=DecideBudget(max_pairs=max_pairs))
    want = reference_decide(lat, k=k, budget=DecideBudget(max_pairs=max_pairs))
    assert _summary(got) == _summary(want), (name, k, max_pairs)
    return got


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_decide_matches_reference_on_bundled_lattices(name):
    for k in (1, 2):
        for max_pairs in (50, 1000, 20_000):
            _same_as_reference(name, k, max_pairs)


def test_pair_budget_at_the_witness_position():
    report = _same_as_reference("three-01", None, NO_WITNESS_POSITION)
    assert report.status == "NO" and report.pairs_checked == NO_WITNESS_POSITION
    report = _same_as_reference("three-01", None, NO_WITNESS_POSITION - 1)
    assert report.status == "UNKNOWN" and report.path == "budget"
    assert report.pairs_checked == NO_WITNESS_POSITION - 1
    assert report.notes[-1] == f"pair budget {NO_WITNESS_POSITION - 1} exhausted"


@pytest.mark.parametrize("name", ["three-01", "lukasiewicz3"])
def test_decide_no_witness(name):
    report = decide_interpolation(bundled_lattice(name))
    assert _summary(report)[:3] == ("NO", "enumeration", NO_WITNESS_POSITION)
    assert _summary(report)[4] == NO_WITNESS
    assert report.pair_verdict.closure_complete


def test_decide_known_answers():
    assert decide_interpolation(bundled_lattice("three-0a")).status == "YES"
    assert decide_interpolation(bundled_lattice("godel3"), k=1).status != "NO"
    budget = DecideBudget(max_pairs=20_000, closure=ClosureBudget(
        max_columns=3000, max_apps_per_level=100_000))
    report = decide_interpolation(bundled_lattice("classical-1"), budget=budget)
    assert report.status in ("YES", "UNKNOWN")
