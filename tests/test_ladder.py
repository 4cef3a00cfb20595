"""The shared closure ladder: each lattice keeps the small levels of its
closures and every interpolant search over the same shared variables walks
them.  A verdict must not depend on which queries, under which budgets,
grew the ladder before it."""
import dataclasses
import itertools
import random

import pytest

from latlog import App, PropVar, fo_interpolate, parse_formula, render
from latlog.bundled import BUNDLED, bundled_lattice
from latlog import propcore
from latlog.interp import find_prop_interpolant, spectrum
from latlog.propcore import (
    BLOCK_CELLS,
    ClosureBudget,
    ValueColumn,
    closure_ladder,
    envelopes,
    representable_closure,
)

from closure_reference import ReferenceClosure
from genutil import random_valid_pair, random_word

BUDGETS = [
    ClosureBudget(),
    ClosureBudget(max_levels=0),
    ClosureBudget(max_levels=1),
    ClosureBudget(max_levels=2),
    ClosureBudget(max_columns=3),
    ClosureBudget(max_columns=20),
    ClosureBudget(max_apps_per_level=10),
    ClosureBudget(max_apps_per_level=100),
]
REFERENCE_APPS = 3000  # the largest level the slow reference grows


def _unary_nullary_lattice():
    """A three-element chain with a unary and a nullary connective: level 1
    applies the nullary one, later levels do not."""
    from latlog import RawConnective, RawLattice, validate_lattice

    return validate_lattice(RawLattice(
        elements=["0", "h", "1"],
        covers=[("0", "h"), ("h", "1")],
        connectives=[
            RawConnective("->", ("-", "+"), ["1", "1", "1", "0", "1", "1", "0", "h", "1"]),
            RawConnective("Box_up", ("+",), ["0", "h", "h"]),
            RawConnective("Mid", (), ["h"]),
        ],
    ))


LATTICES = {name: (lambda name=name: bundled_lattice(name)) for name in BUNDLED}
LATTICES["unary-nullary"] = _unary_nullary_lattice


def _normal(value):
    """A verdict field in a form == compares exactly: a column becomes all
    of its fields, its values as bytes."""
    if isinstance(value, ValueColumn):
        return (value.var_list, value.values.dtype, value.values.tobytes(), value.witness,
                value.word, value.level)
    if isinstance(value, list):
        return [_normal(v) for v in value]
    return value


def _fields(verdict):
    return {f.name: _normal(getattr(verdict, f.name)) for f in dataclasses.fields(verdict)}


def _queries(lat, rng):
    """x -> (y -> y), whose shared closure is the closed words, and, for 0,
    1 and 2 shared variables, seeded valid pairs and pairs S & P -> S | Q,
    whose interpolants lie as deep as the shared word S."""
    pairs = [(PropVar("x"), App("->", (PropVar("y"), PropVar("y"))))]
    for shared in ([], ["y1"], ["y1", "y2"]):
        found = []
        while len(found) < 2:
            a, b = random_valid_pair(rng, lat, ["x1"], shared, ["z1"])
            if len(envelopes(a, b, lat).shared) == len(shared):
                found.append((a, b))
        while shared and len(found) < 4:
            s = random_word(rng, shared, lat, depth=3)
            if len(shared) == len(set(shared) & {v for v in shared if v in render(s)}):
                found.append((App("&", (s, random_word(rng, ["x1"], lat, depth=2))),
                              App("|", (s, random_word(rng, ["z1"], lat, depth=2)))))
        pairs += found
    return [(a, b, envelopes(a, b, lat)) for a, b in pairs]


def _reference_walk(ref, budget, bounds):
    """The level loop on the reference closure ``ref``, grown here as far as
    the loop needs: (index of the first column inside ``bounds``, or None,
    levels walked, budget note), or None where that needs a level of more
    than REFERENCE_APPS applications.  Each level k >= 1 is grown and
    scanned, then the budget is checked: levels grown before it, its
    applications, and the columns it would add.  Without bounds no level
    is scanned."""
    leq = ref.lat.leq
    k = 0
    while True:
        if len(ref.added) == k:
            frontier = ref.level_starts[-2] if k > 1 else 0
            if sum(len(ref.cols) ** c.arity - (k > 1) * frontier ** c.arity
                   for c in ref.conns) > REFERENCE_APPS:
                return None
            ref.grow()
        start, stop = ref.level_starts[k], ref.level_starts[k + 1]
        if bounds is not None:
            lower, upper = bounds
            for i in range(start, stop):
                if leq[lower, ref.cols[i]].all() and leq[ref.cols[i], upper].all():
                    return i, max(k, 1), None
        if k:
            note = None
            if budget.max_levels is not None and k - 1 >= budget.max_levels:
                note = f"level budget {budget.max_levels} reached"
            elif ref.apps[k] > budget.max_apps_per_level:
                note = (f"next level needs {ref.apps[k]} applications, "
                        f"budget is {budget.max_apps_per_level}")
            elif ref.added[k] > max(0, budget.max_columns - start):
                note = (f"column budget {budget.max_columns} exceeded at "
                        f"{max(start, budget.max_columns) + 1} columns")
            if note is not None or not ref.added[k]:
                return None, k, note
        k += 1


def _reference_verdict(ref, env, budget):
    """The verdict fields the level loop gives on the reference closure
    ``ref`` between the envelopes of ``env``, or None (see
    ``_reference_walk``)."""
    walk = _reference_walk(ref, budget, (env.lower.values, env.upper.values))
    if walk is None:
        return None
    hit, levels, note = walk
    cumulative = list(itertools.accumulate(ref.added[:levels]))
    if hit is not None:
        return dict(status="YES", interpolant_word=ref.words[hit], closure_columns=None,
                    closure_complete=False, budget_note=None, closure_cumulative=cumulative)
    stop = ref.level_starts[levels]
    return dict(status="UNKNOWN" if note else "NO", interpolant_word=None,
                closure_columns=[(w, v.tobytes(), level) for w, v, level in
                                 zip(ref.words[:stop], ref.cols, ref.levels)],
                closure_complete=note is None, budget_note=note,
                closure_cumulative=cumulative)


def _against_reference(verdict, want):
    got = _fields(verdict)
    assert got["status"] == want["status"]
    assert got["interpolant_word"] == want["interpolant_word"]
    if verdict.interpolant is not None:
        assert render(verdict.interpolant) == verdict.interpolant_word
    columns = verdict.closure_columns
    assert (None if columns is None else [(c.word, c.values.tobytes(), c.level)
                                          for c in columns]) == want["closure_columns"]
    for name in ("closure_complete", "closure_cumulative", "budget_note"):
        assert got[name] == want[name], name


@pytest.mark.parametrize("block_cells", [BLOCK_CELLS, 64])
@pytest.mark.parametrize("name", sorted(LATTICES))
def test_shared_ladder_matches_fresh_lattices_and_the_reference(name, block_cells, rng,
                                                                monkeypatch):
    """Every budget is sent before and after a default-budget query of the
    same pair has grown the ladder, in shuffled orders, to one lattice
    object.  Each verdict equals, field by field, the verdict on a fresh
    lattice and the reference level loop on the reference closure.  With
    64-cell blocks the ladders stop low and searches go on past them.
    ``representable_closure``, the loop's other caller, is held to the
    reference loop without bounds under every budget, over each shared
    variable list."""
    monkeypatch.setattr(propcore, "BLOCK_CELLS", block_cells)
    build = LATTICES[name]
    lat = build()
    queries = _queries(lat, rng)
    assert {len(env.shared) for _, _, env in queries} == {0, 1, 2}
    fresh, references, checked = {}, {}, 0
    order = random.Random(name)
    for q, (a, b, env) in enumerate(queries):
        budgets = list(enumerate(BUDGETS))
        sends = order.sample(budgets, len(budgets)) + [(0, BUDGETS[0])]
        sends += order.sample(budgets, len(budgets))
        for i, budget in sends:
            got = _fields(find_prop_interpolant(a, b, lat, budget=budget))
            if (q, i) not in fresh:
                fresh[(q, i)] = _fields(find_prop_interpolant(a, b, build(), budget=budget))
            assert got == fresh[(q, i)], (render(a), render(b), budget)
        for budget in BUDGETS:
            ref = references.setdefault(env.shared, ReferenceClosure(lat, env.shared))
            want = _reference_verdict(ref, env, budget)
            if want is not None:
                _against_reference(find_prop_interpolant(a, b, lat, budget=budget), want)
                checked += 1
    assert checked >= len(queries) * len(BUDGETS) // 2, checked
    closures_checked = set()
    for shared, ref in references.items():
        for i, budget in enumerate(BUDGETS):
            walk = _reference_walk(ref, budget, None)
            if walk is None:
                continue
            _, levels, note = walk
            closure = representable_closure(lat, shared, budget)
            assert closure.added == ref.added[:levels]
            assert closure.cumulative == list(itertools.accumulate(ref.added[:levels]))
            assert (closure.budget_note, closure.complete) == (note, note is None)
            assert [c.word for c in closure.columns] == ref.words[:ref.level_starts[levels]]
            closures_checked.add(i)
    assert closures_checked == set(range(len(BUDGETS)))


def _ladders(lat):
    return lat.derived.get("closure_ladders", {}).values()


def _check_ladder_sizes(lat):
    """Every level a ladder holds past level 0 fits one block, so the
    columns before its top level, whose applications include every pair of
    them, and its top level each hold at most BLOCK_CELLS cells."""
    for ladder in _ladders(lat):
        for level in range(1, len(ladder.added)):
            assert ladder.app_count(level) * ladder.N <= BLOCK_CELLS
        assert (ladder.total - ladder.added[0]) * ladder.N <= 2 * BLOCK_CELLS


def test_readme_query_keeps_only_small_levels():
    """The mc README sentence's 5-atom closure has 3,125 cells a column; its
    level 1 is larger than a block, so the ladder keeps level 0 only."""
    lat = bundled_lattice("mc")
    sentence = parse_formula("exists x.(B(x) & forall y. C(y)) -> exists x.(A(x) | B(x))")
    fo_interpolate(sentence, lat)
    ladders = list(_ladders(lat))
    assert [ladder.N for ladder in ladders] == [5 ** 5]
    assert len(ladders[0].added) == 1
    _check_ladder_sizes(lat)


def test_ladders_stay_within_a_block_over_a_stream_of_queries():
    """1,500 queries S & P -> S | Q, valid on every lattice, with shared
    words S up to depth 4 over at most two variables, on every bundled
    lattice in turn."""
    rng = random.Random(20240801)
    lattices = [bundled_lattice(name) for name in BUNDLED]
    for _ in range(150):
        for lat in lattices:
            shared = rng.sample(["y1", "y2"], rng.randint(0, 2)) or ["y1"]
            s = random_word(rng, shared, lat, depth=rng.randint(0, 4))
            a = App("&", (s, random_word(rng, ["x1", "x2"], lat, depth=2)))
            b = App("|", (s, random_word(rng, ["z1", "z2"], lat, depth=2)))
            verdict = find_prop_interpolant(a, b, lat)
            assert verdict.status == "YES"
    for lat in lattices:
        assert list(_ladders(lat))
        _check_ladder_sizes(lat)


def test_extended_lattices_keep_their_own_ladders():
    """A lattice extended by constants has its own ladders, whose level 0
    holds the new constants; building and querying it, or a spectrum, leaves
    the parent's ladders as they were."""
    lat = bundled_lattice("classical")
    a, b = parse_formula("x & y"), parse_formula("y | z")
    assert find_prop_interpolant(a, b, lat).interpolant_word == "y"
    before = {key: (ladder, ladder.total) for key, ladder in
              lat.derived["closure_ladders"].items()}
    extended = lat.with_constants({"one": "1"})
    assert "closure_ladders" not in extended.derived
    assert find_prop_interpolant(a, b, extended).interpolant_word == "y"
    assert closure_ladder(extended, ("y",)).words[:2] == ["y", "#one"]
    assert closure_ladder(lat, ("y",)).words[:1] == ["y"]
    report = spectrum(lat, subsets=[(), ("1",)])
    assert report.entry(()) == "NO"
    assert {key: (ladder, ladder.total) for key, ladder in
            lat.derived["closure_ladders"].items()} == before


def test_only_shared_closure_values_are_read_only():
    """The columns of a NO grown on the lattice's shared closure are
    read-only views of it, so no caller can change the next verdict's;
    ``representable_closure`` grows its own closure, whose values stay
    writable."""
    lat = bundled_lattice("three-01")
    a, b = parse_formula("x & (x -> #0)"), parse_formula("y | (y -> #0)")
    verdict = find_prop_interpolant(a, b, lat)
    assert verdict.status == "NO"
    want = _fields(verdict)
    column = verdict.closure_columns[0]
    with pytest.raises(ValueError):
        column.values[:] = 0
    assert _fields(find_prop_interpolant(a, b, lat)) == want
    closure = representable_closure(lat, ())
    assert closure.complete and all(c.values.flags.writeable for c in closure.columns)
    closure.columns[0].values[:] = 1 - closure.columns[0].values
    assert _fields(find_prop_interpolant(a, b, lat)) == want


def test_a_level_is_kept_from_its_second_search():
    """A lone search costs what it would on a closure of its own: the first
    search to reach a level the ladder lacks scans it without growing it,
    and grows it only when no column there fits.  The second search to reach
    the level grows it, and both give the same verdict."""
    lat = bundled_lattice("three-0a")
    a, b = parse_formula("x & y1 & y2"), parse_formula("y1 & y2 | z")
    ladder = closure_ladder(lat, ("y1", "y2"))
    first = _fields(find_prop_interpolant(a, b, lat))
    assert first["interpolant_word"] == "y1 & y2" and len(ladder.added) == 1
    assert _fields(find_prop_interpolant(a, b, lat)) == first
    assert len(ladder.added) == 2
    lat = bundled_lattice("three-01")
    no = find_prop_interpolant(parse_formula("x & (x -> #0)"), parse_formula("y | (y -> #0)"), lat)
    assert no.status == "NO" and closure_ladder(lat, ()).added[-1] == 0
