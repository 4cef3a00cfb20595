"""Differential tests of the closure kernel against the slow reference in
``closure_reference.py``."""
import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from latlog import (
    App,
    Atom,
    Const,
    PropVar,
    RawConnective,
    RawLattice,
    parse_formula,
    propcore,
    validate_lattice,
)
from latlog.algebra import JOIN, MEET
from latlog.bundled import BUNDLED, bundled_lattice
from latlog.errors import BudgetExceeded, LatlogError
from latlog.propcore import (
    BLOCK_CELLS,
    PACKED_CELLS,
    TRANSLATE_CELLS,
    ClosureBudget,
    ClosureState,
    _blocks,
    _decode_valuation,
    _fold_axis,
    _probe_fits,
    apply_connective,
    apply_packed,
    closure_ladder,
    column_of,
    envelopes,
    eval_prop,
    representable_closure,
)
from latlog.relations import binary_invariants
from latlog.syntax import nodes, prop_variables, render

from closure_reference import reference_closure
from genutil import random_signature_word, random_upset_lattice, random_valid_pair

CHAIN3 = dict(elements=["0", "h", "1"], covers=[("0", "h"), ("h", "1")])
GODEL_IMP = ["1", "1", "1", "0", "1", "1", "0", "h", "1"]


def _lattice(*extras):
    raw = RawLattice(**CHAIN3, connectives=[RawConnective("->", ("-", "+"), GODEL_IMP),
                                            *extras])
    return validate_lattice(raw)


def _median_lattice():
    order = {"0": 0, "h": 1, "1": 2}
    names = ["0", "h", "1"]
    values = [names[sorted((order[a], order[b], order[c]))[1]]
              for a in names for b in names for c in names]
    return _lattice(RawConnective("Med", ("+", "+", "+"), values))


def _two_ternary_lattice():
    """The median and a second ternary connective, x & (y | z)."""
    order = {"0": 0, "h": 1, "1": 2}
    names = ["0", "h", "1"]
    triples = list(itertools.product(names, repeat=3))
    med = [names[sorted((order[a], order[b], order[c]))[1]] for a, b, c in triples]
    lim = [names[min(order[a], max(order[b], order[c]))] for a, b, c in triples]
    return _lattice(RawConnective("Med", ("+", "+", "+"), med),
                    RawConnective("Lim", ("+", "+", "+"), lim))


def _two_unary_lattice():
    """Two unary connectives, one monotone and one antitone."""
    return _lattice(RawConnective("Box_up", ("+",), ["0", "h", "h"]),
                    RawConnective("Neg", ("-",), ["1", "h", "0"]))


def _summary(clo):
    return ([c.word for c in clo.columns], [c.level for c in clo.columns],
            clo.cumulative, clo.complete)


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("var_list", [(), ("x",)])
def test_closure_matches_reference_on_bundled_lattices(name, var_list):
    lat = bundled_lattice(name)
    assert _summary(representable_closure(lat, var_list)) == reference_closure(lat, var_list)


@pytest.mark.parametrize("name, cap", [("godel3", 2), ("three-01", 2), ("classical-01", 2),
                                       ("godel3", None)])
def test_two_variable_closure_matches_reference(name, cap):
    lat = bundled_lattice(name)
    got = representable_closure(lat, ("x", "y"), budget=ClosureBudget(max_levels=cap))
    assert _summary(got) == _bundled_reference(name, ("x", "y"), cap)


@functools.lru_cache(maxsize=None)
def _bundled_reference(name, var_list, cap):
    """The reference closure of a bundled lattice, computed once per run."""
    return reference_closure(bundled_lattice(name), var_list, level_cap=cap)


@pytest.mark.parametrize("m, width, narrow", [
    (1, 64, True), (1, 65, True), (2, 64, True), (2, 65, False), (3, 40, True), (3, 41, False),
    (5, 27, True), (5, 28, False), (5, 9, True), (16, 16, True), (16, 17, False),
])
def test_row_keys_are_equal_exactly_for_equal_rows(m, width, narrow):
    """Random rows with repeats and with rows one entry apart, the changed
    entry first, last or anywhere: keys are equal exactly when rows are, and
    keys sort as the rows do, lexicographically.  The uint64 format holds
    while m ** width <= 2 ** 64."""
    rng = np.random.default_rng(m * 1000 + width)
    base = rng.integers(0, m, (30, width), dtype=np.uint8)
    near = base[rng.integers(0, 30, 60)]
    pos = rng.choice([0, width - 1, int(rng.integers(width))], 60)
    near[np.arange(60), pos] = (near[np.arange(60), pos] + 1) % m
    rows = np.concatenate([base, base[rng.integers(0, 30, 30)], near,
                           np.zeros((1, width), np.uint8), np.full((1, width), m - 1, np.uint8)])
    rows = rows[rng.permutation(len(rows))]
    keys = propcore.row_keys(rows, m)
    assert keys.shape == (len(rows),)
    assert (keys.dtype == np.uint64) == narrow
    same_rows = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
    assert np.array_equal(keys[:, None] == keys[None, :], same_rows)
    if m > 1:
        assert not same_rows.all()
    order = np.lexsort(rows.T[::-1])
    assert np.array_equal(rows[keys.argsort(kind="stable")], rows[order])
    if narrow:  # the largest row reads m ** width - 1, exact in uint64
        assert int(keys.max()) == m ** width - 1


@pytest.mark.parametrize("cap", [1, 2])
def test_wide_key_closure_matches_reference(cap):
    """godel3 over four variables: 81 cells a column, 3**81 > 2**64, so the
    closure sorts and deduplicates its columns by void keys."""
    lat = bundled_lattice("godel3")
    var_list = ("w", "x", "y", "z")
    assert propcore.row_keys(np.zeros((1, lat.m ** 4), np.uint8), lat.m).dtype.kind == "V"
    got = representable_closure(lat, var_list, budget=ClosureBudget(max_levels=cap))
    assert _summary(got) == reference_closure(lat, var_list, level_cap=cap)


@pytest.mark.parametrize("lat, connectives", [
    (_lattice(RawConnective("Box_up", ("+",), ["0", "h", "h"])), None),
    (_lattice(RawConnective("Mid", (), ["h"])), None),
    (_lattice(RawConnective("Box_up", ("+",), ["0", "h", "h"]),
              RawConnective("Mid", (), ["h"])), ("Box_up", "Mid")),
    (_median_lattice(), None),
    (_median_lattice(), ("Med",)),
    (_two_unary_lattice(), None),
    (_two_unary_lattice(), ("Box_up", "Neg")),
    (_two_unary_lattice(), ("Neg", "->")),
    (_two_ternary_lattice(), None),
    (_two_ternary_lattice(), ("Lim", "Med")),
    (_two_ternary_lattice(), ("Lim", "&")),
], ids=["unary", "nullary", "unary-nullary-only", "ternary", "ternary-only", "two-unary",
        "two-unary-only", "unary-binary-only", "two-ternary", "two-ternary-only",
        "ternary-binary-only"])
@pytest.mark.parametrize("var_list", [(), ("x",), ("x", "y")])
def test_extra_connectives_match_reference(lat, connectives, var_list):
    cap = 2 if len(var_list) == 2 else None
    got = representable_closure(lat, var_list, budget=ClosureBudget(max_levels=cap),
                                connectives=connectives)
    assert _summary(got) == reference_closure(lat, var_list, cap, connectives)


@pytest.mark.parametrize("var_list, cap", [((), None), (("x",), 2)])
def test_closure_on_a_stack_past_256_entries_matches_reference(var_list, cap):
    """Blocks that mix the eight binary connectives of ``_stack8`` gather
    from 288 stacked entries through a widened index."""
    lat = _stack8()
    got = representable_closure(lat, var_list, budget=ClosureBudget(max_levels=cap))
    assert _summary(got) == reference_closure(lat, var_list, level_cap=cap)


def test_stack8_connectives_commute_as_their_tables_say():
    """``Sum`` commutes and is not idempotent, ``Tie``, ``&`` and ``|``
    commute and are idempotent, and ``->``, ``P1``, ``P2`` and ``Dif`` do
    not commute."""
    binary = ClosureState(_stack8(), ()).stacks[-1]
    assert dict(zip(binary.names, binary.gaps.tolist())) == {
        "&": 1, "|": 1, "->": -1, "P1": -1, "P2": -1, "Sum": 0, "Dif": -1, "Tie": 1}


@pytest.mark.parametrize("var_list, cap", [(("x",), 3), (("x", "y"), 2)])
def test_unordered_pairs_on_stack8_match_reference(var_list, cap, monkeypatch):
    """With blocks of one application every level of more than one takes
    each unordered pair of a commuting connective once, a triangle with
    its diagonal for ``Sum`` and without for ``Tie``; the closure equals the
    reference, which evaluates every ordered pair."""
    monkeypatch.setattr(propcore, "BLOCK_CELLS", 1)
    monkeypatch.setattr(propcore, "MIN_BLOCK_APPS", 1)
    lat = _stack8()
    got = representable_closure(lat, var_list, budget=ClosureBudget(max_levels=cap))
    assert _summary(got) == reference_closure(lat, var_list, level_cap=cap)


def test_mc_level_two_grow_evaluates_each_unordered_pair_once():
    """Level 2 of mc over five variables: 8,004 ordered applications, of
    which the kernel evaluates 5,290: ``&`` and ``|`` take the 6 x 46
    older-newest rectangle and the 46 * 45 / 2 newest pairs, ``->`` all
    52 ** 2 - 6 ** 2."""
    state = ClosureState(bundled_lattice("mc"), ("a", "b", "c", "d", "e"))
    state.grow()
    evaluated = []
    kernel = state._eval

    def counting(stack, rows, tup):
        evaluated.append(len(tup))
        return kernel(stack, rows, tup)

    state._eval = counting
    assert state.app_count(2) == 8004
    state.grow()
    assert sum(evaluated) == 2 * (6 * 46 + 46 * 45 // 2) + 52 ** 2 - 6 ** 2 == 5290
    assert state.added == [6, 46, 3050]


@pytest.mark.parametrize("lat", [
    _lattice(RawConnective("Box_up", ("+",), ["0", "h", "h"])),
    _lattice(RawConnective("Mid", (), ["h"])),
    _median_lattice(),
], ids=["unary", "nullary", "ternary"])
@pytest.mark.parametrize("n", [0, 1])
def test_relations_decide_membership_with_extra_connectives(lat, n):
    """The binary invariants see unary, nullary and ternary connectives:
    a function over n variables is representable exactly when the complete
    closure holds it."""
    m = lat.m
    idx = np.arange(m ** (m ** n))
    every = np.stack([(idx // m ** (m ** n - 1 - j)) % m for j in range(m ** n)], axis=1)
    closure = representable_closure(lat, tuple(f"v{i + 1}" for i in range(n)))
    assert closure.complete
    members = {c.values.tobytes() for c in closure.columns}
    want = np.array([row.astype(np.uint8).tobytes() in members for row in every])
    assert (binary_invariants(lat).is_representable(every, n) == want).all()


@pytest.mark.parametrize("block_cells", [BLOCK_CELLS, 64])
@pytest.mark.parametrize("name, var_list, columns, past", [
    ("three-01", ("z1", "z2", "z3"), 3000, 3001),
    ("godel3", ("x", "y"), 100, 101),
    ("three-01", ("z1", "z2", "z3"), 2, 6),  # level 0 already holds 5 columns
])
def test_column_budget_holds_inside_a_level(name, var_list, columns, past, block_cells,
                                            monkeypatch):
    """A level that would cross the column budget is dropped before it is
    committed: the closure stays a prefix of the canonical order.  The note
    counts the columns up to the level's first new column past the budget,
    so it does not depend on where blocks end."""
    monkeypatch.setattr(propcore, "BLOCK_CELLS", block_cells)
    monkeypatch.setattr(propcore, "MIN_BLOCK_APPS", 1)
    lat = bundled_lattice(name)
    got = representable_closure(lat, var_list, budget=ClosureBudget(columns, None, 500_000))
    assert not got.complete and len(got.columns) <= max(columns, got.cumulative[0])
    assert got.budget_note == f"column budget {columns} exceeded at {past} columns"
    levels = len(got.cumulative) - 1
    prefix = representable_closure(lat, var_list, budget=ClosureBudget(max_levels=levels))
    assert [c.word for c in got.columns] == [c.word for c in prefix.columns]


def _first_new_fit(state, lower, upper):
    leq = state.lat.leq
    start = state.total
    state.grow()
    for i in range(start, state.total):
        if leq[lower, state.values[i]].all() and leq[state.values[i], upper].all():
            return state.values[i], state.words[i]
    return None


@pytest.mark.parametrize("name", ["godel3", "three-01", "three-0a", "diamond", "median",
                                  "two-ternary", "two-unary"])
def test_stream_scan_equals_growing_one_level(name):
    """At each of the first three levels, scanning the next level without
    materialising it finds the same column and word as growing it."""
    built = {"median": _median_lattice, "two-ternary": _two_ternary_lattice,
             "two-unary": _two_unary_lattice}
    lat = built[name]() if name in built else bundled_lattice(name)
    rng = random.Random(20240801)
    hits = set()
    for _ in range(8):
        a, b = random_valid_pair(rng, lat, ["u"], ["s", "t"], ["w"], depth=4)
        env = envelopes(a, b, lat)
        lower, upper = env.lower.values, env.upper.values
        state = ClosureState(lat, env.shared)
        for level in range(1, 4):
            if state.added[-1] == 0:
                break
            scanned = state.stream_scan(lower, upper)
            grown = _first_new_fit(state, lower, upper)
            if grown is None:
                assert scanned is None
                continue
            assert scanned is not None
            assert scanned[1] == grown[1]
            assert np.array_equal(scanned[0], grown[0])
            hits.add(level)
    assert len(hits) >= 2, hits


def _scan_counting(state, lower, upper):
    """``stream_scan``'s result and the number of applications it evaluated
    over the full width."""
    evaluated = []
    kernel = state._candidates

    def counting(blocks, inside=None, **options):
        def tally():
            for stack, tup in blocks:
                evaluated.append(len(tup))
                yield stack, tup
        return kernel(tally(), inside, **options)

    state._candidates = counting
    try:
        return state.stream_scan(lower, upper), sum(evaluated)
    finally:
        del state._candidates


@pytest.mark.parametrize("name, shared", [("mc", ("s", "t", "v")),
                                          ("diamond", ("p", "q", "s", "t"))])
def test_screened_scan_equals_growing_one_level(name, shared, monkeypatch):
    """On grids wider than SCREEN_WIDTH the screen runs.  The scan finds the
    same column and word as growing the level and as the unscreened scan, and
    the screen keeps some applications from the full-width evaluation."""
    lat = bundled_lattice(name)
    rng = random.Random(20240801)
    pairs, hits, dropped = 0, 0, 0
    while pairs < 4:
        a, b = random_valid_pair(rng, lat, ["u"], list(shared), ["w"], depth=4)
        env = envelopes(a, b, lat)
        if env.shared != shared:
            continue
        pairs += 1
        lower, upper = env.lower.values, env.upper.values
        state = ClosureState(lat, env.shared)
        assert state.N > propcore.SCREEN_WIDTH
        for level in (1, 2):
            scanned, full = _scan_counting(state, lower, upper)
            with monkeypatch.context() as patch:
                patch.setattr(propcore, "SCREEN_WIDTH", state.N)
                unscreened, unscreened_full = _scan_counting(state, lower, upper)
            dropped += unscreened_full - full
            assert full <= unscreened_full
            grown = _first_new_fit(state, lower, upper)
            if grown is None:
                assert scanned is None and unscreened is None
                continue
            hits += 1
            for got in (scanned, unscreened):
                assert got is not None
                assert got[1] == grown[1]
                assert np.array_equal(got[0], grown[0])
    assert hits >= 4, hits
    assert dropped > 0


def test_survivor_budget_counts_probe_group_survivors(monkeypatch):
    """MAX_SURVIVORS bounds the applications left after the probe groups:
    on mc over three shared variables (N = 125, so the screen runs), the
    second level's scan keeps 65 of its 1,152 applications."""
    lat = bundled_lattice("mc")
    env = envelopes(parse_formula("s & (u -> t) & v"), parse_formula("s | t & (w -> v)"), lat)
    state = ClosureState(lat, env.shared)
    state.grow()
    assert state.N == 125 and state.app_count(len(state.added)) == 1152
    monkeypatch.setattr(propcore, "MAX_SURVIVORS", 64)
    with pytest.raises(BudgetExceeded) as exc:
        state.stream_scan(env.lower.values, env.upper.values)
    assert exc.value.details == {"survivors": 65}
    monkeypatch.setattr(propcore, "MAX_SURVIVORS", 65)
    assert state.stream_scan(env.lower.values, env.upper.values)[1] == "s | t & v"


def test_survivor_budget_counts_ordered_applications(monkeypatch):
    """The scan above evaluates fewer applications than the 65 ordered ones
    it counts, as ``&`` and ``|`` take each unordered pair once; a budget
    between the two counts still stops it at 65."""
    lat = bundled_lattice("mc")
    env = envelopes(parse_formula("s & (u -> t) & v"), parse_formula("s | t & (w -> v)"), lat)
    state = ClosureState(lat, env.shared)
    state.grow()
    monkeypatch.setattr(propcore, "MIN_BLOCK_APPS", 1)
    monkeypatch.setattr(propcore, "BLOCK_CELLS", 1)  # every scan takes unordered pairs
    monkeypatch.setattr(propcore, "SCREEN_WIDTH", state.N)  # no screen: count them all
    found, evaluated = _scan_counting(state, env.lower.values, env.upper.values)
    assert found[1] == "s | t & v" and evaluated < 64
    monkeypatch.setattr(propcore, "MAX_SURVIVORS", 64)
    with pytest.raises(BudgetExceeded) as exc:
        state.stream_scan(env.lower.values, env.upper.values)
    assert exc.value.details == {"survivors": 65}


def test_repeated_variable_is_rejected():
    lat = bundled_lattice("mc")
    for build in (ClosureState, representable_closure):
        with pytest.raises(LatlogError) as exc:
            build(lat, ("x", "y", "x"))
        assert exc.value.message == "variable 'x' listed twice"


@pytest.mark.parametrize("block_cells", [BLOCK_CELLS, 20])
def test_grow_breaks_equal_length_ties_like_the_reference(block_cells, monkeypatch):
    """Applications of one column often tie at the shortest length (x & y and
    y & x); the least word wins whether the tied applications share a block
    or, with tiny blocks, fall in different ones."""
    monkeypatch.setattr(propcore, "BLOCK_CELLS", block_cells)
    monkeypatch.setattr(propcore, "MIN_BLOCK_APPS", 1)
    lat = bundled_lattice("godel3")
    x_and_y, y_and_x = (column_of(parse_formula(t), lat, ("x", "y")) for t in ("x & y", "y & x"))
    assert np.array_equal(x_and_y, y_and_x)
    got = representable_closure(lat, ("x", "y"), budget=ClosureBudget(max_levels=3))
    assert _summary(got) == reference_closure(lat, ("x", "y"), level_cap=3)
    assert "x & y" in [c.word for c in got.columns]


def _owns_its_memory(values):
    """Values that are no view of an evaluation block: an array of their own,
    or one over the column's own N-byte key (a wide column's only copy)."""
    base = values.base
    return base is None or isinstance(base, bytes) and len(base) == values.nbytes


@pytest.mark.parametrize("name, var_list, word", [("mc", ("s", "t", "v"), "s | t & v"),
                                                  ("godel3", ("s", "t"), "(s -> t) -> s")])
def test_committed_and_found_values_own_their_memory(name, var_list, word):
    """No kept row is a view of its evaluation block, which would keep the
    whole block alive: a new column's values are copied out of the block
    (uint64 keys, godel3 over two variables) or read from its bytes key
    (void keys, mc over three variables)."""
    lat = bundled_lattice(name)
    state = ClosureState(lat, var_list)
    committed = []
    commit = state._commit

    def spy(entries):
        entries = list(entries)
        committed.extend(e[2] for e in entries)
        return commit(entries)

    state._commit = spy
    for _ in range(2):
        state.grow()
    assert len(committed) == state.total - state.added[0]  # levels 1 and 2
    assert all(_owns_its_memory(values) for values in committed)
    found = ClosureState(lat, var_list)
    found.grow()
    target = column_of(parse_formula(word), lat, var_list)  # a level-2 column
    values, got, _ = found.stream_scan(target, target)
    assert got == word and _owns_its_memory(values)


def _random_closure_case(seed):
    """An up-set lattice of a random order, 2 to 16 elements, and as many of
    three variables as keep every column key a uint64 numeral."""
    lat = random_upset_lattice(random.Random(seed))
    n = 3
    while lat.m ** (lat.m ** n) > 2 ** 64:
        n -= 1
    return lat, ("x", "y", "z")[:n]


@pytest.mark.parametrize("seed", range(16))
def test_random_lattice_closure_matches_reference(seed):
    """Random up-set lattices to level 3 (level 2 over three variables,
    where the reference takes seconds a level beyond)."""
    lat, var_list = _random_closure_case(seed)
    cap = 3 if len(var_list) < 3 else 2
    assert propcore.row_keys(np.zeros((1, lat.m ** len(var_list)), np.uint8),
                             lat.m).dtype == np.uint64
    got = representable_closure(lat, var_list, budget=ClosureBudget(max_levels=cap))
    assert _summary(got) == reference_closure(lat, var_list, level_cap=cap)


@pytest.mark.parametrize("seed", range(16))
def test_random_lattice_closure_with_unordered_pairs_matches_reference(seed, monkeypatch):
    """The same closures with blocks of one application, so that every level
    of more than one takes each unordered pair of ``&`` and ``|`` once
    (left to themselves, only seeds 1 and 3 do, at level 3)."""
    monkeypatch.setattr(propcore, "BLOCK_CELLS", 1)
    monkeypatch.setattr(propcore, "MIN_BLOCK_APPS", 1)
    lat, var_list = _random_closure_case(seed)
    cap = 3 if len(var_list) < 3 else 2
    got = representable_closure(lat, var_list, budget=ClosureBudget(max_levels=cap))
    assert _summary(got) == reference_closure(lat, var_list, level_cap=cap)


def _table_keyed(lat, var_list):
    """Whether a closure over ``var_list`` finds its known columns by table
    lookup: its keys are uint64 numerals below m ** N <= BLOCK_CELLS."""
    N = lat.m ** len(var_list)
    keys = propcore.row_keys(np.zeros((1, N), np.uint8), lat.m)
    return keys.dtype == np.uint64 and lat.m ** N <= BLOCK_CELLS


def test_random_lattices_reach_both_sides_of_the_table_line():
    """The random closures above find known columns by table lookup on some
    seeds and by sorted keys on others."""
    sides = [_table_keyed(*_random_closure_case(seed)) for seed in range(16)]
    assert any(sides) and not all(sides)


@pytest.mark.parametrize("name, var_list, cap, table", [
    ("godel3", ("x", "y"), None, True),  # 3 ** 9 = 19,683 keys
    ("classical", ("x", "y", "z", "w"), 2, True),  # 2 ** 16 keys, exactly BLOCK_CELLS
    ("diamond", ("x", "y"), 3, False),  # 4 ** 16 keys, sorted
])
def test_closure_matches_reference_on_both_sides_of_the_table_line(name, var_list, cap, table):
    lat = bundled_lattice(name)
    assert _table_keyed(lat, var_list) == table
    got = representable_closure(lat, var_list, budget=ClosureBudget(max_levels=cap))
    assert _summary(got) == _bundled_reference(name, var_list, cap)


def test_table_keyed_grow_stops_past_max_new():
    """On godel3 over x, y, level 3 adds 91 columns to 39: ``grow(50)``
    returns 51 and commits nothing, and ``grow()`` then adds the 91."""
    lat = bundled_lattice("godel3")
    assert _table_keyed(lat, ("x", "y"))
    state = ClosureState(lat, ("x", "y"))
    state.grow()
    state.grow()
    words = list(state.words)
    assert state.grow(50) == 51
    assert state.words == words and state.total == 39
    assert state.grow() == 91


def test_table_keyed_closure_stops_at_the_application_budget():
    """lukasiewicz3 over x, y keeps its 3,025 columns and the note of the
    level it cannot afford."""
    lat = bundled_lattice("lukasiewicz3")
    assert _table_keyed(lat, ("x", "y"))
    got = representable_closure(lat, ("x", "y"))
    assert not got.complete and len(got.columns) == 3025
    assert got.budget_note == "next level needs 26320887 applications, budget is 4000000"


def test_stream_scan_on_a_table_keyed_ladder_equals_grow_then_scan_existing():
    """At each level of the godel3 ladder over x, y, scanning the next level
    ungrown finds what growing a copy and scanning its new rows finds: for
    bounds equal to a new column, between the meet and the join of two new
    columns, and equal to a column the closure already holds."""
    lat = bundled_lattice("godel3")
    var_list = ("x", "y")
    assert _table_keyed(lat, var_list)
    ladder = closure_ladder(lat, var_list)
    meet, join = lat.tables[MEET], lat.tables[JOIN]
    rng = random.Random(22)
    hits = 0
    while ladder.app_count(len(ladder.added)) * ladder.N <= BLOCK_CELLS:
        grown = ladder.copy()
        start = grown.total
        grown.grow()
        new = grown.values[start:]
        bounds = [(ladder.values[-1], ladder.values[-1])]
        for _ in range(6):
            a, b = new[rng.randrange(len(new))], new[rng.randrange(len(new))]
            bounds += [(a, a), (meet[a, b], join[a, b])]
        for lower, upper in bounds:
            scanned = ladder.stream_scan(lower, upper)
            hit = grown.scan_existing(lower, upper, start)
            if hit is None:
                assert scanned is None
                continue
            hits += 1
            assert scanned[1] == grown.words[hit]
            assert np.array_equal(scanned[0], grown.values[hit])
        ladder.grow()
    assert len(ladder.added) == 4 and hits >= 18




def test_wide_level_peak_stays_below_three_levels():
    """Level 2 of mc over five variables adds 3,050 columns of 3,125 cells,
    9.5 MB.  A new wide column is held once until its level commits, as its
    bytes key, so the traced peak of the grow above the state stays below
    2.8 times the level (it was 3.2 times with a second copy per column)."""
    state = ClosureState(bundled_lattice("mc"), ("a", "b", "c", "d", "e"))
    state.grow()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state.grow()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    level = state.added[-1] * state.N
    assert state.added == [6, 46, 3050]
    assert peak - before < 2.8 * level


MC_XYZ = ("x", "y", "z")


@functools.lru_cache(maxsize=1)
def _mc_xyz_reference():
    """The reference closure of mc over x, y, z to level 2."""
    return reference_closure(bundled_lattice("mc"), MC_XYZ, level_cap=2)


def test_void_key_closure_matches_reference():
    """mc over three variables: 125 cells a column, 5 ** 125 > 2 ** 64, so
    the closure compares its columns as void keys; level 2 holds 298."""
    lat = bundled_lattice("mc")
    assert propcore.row_keys(np.zeros((1, 125), np.uint8), lat.m).dtype.kind == "V"
    got = representable_closure(lat, MC_XYZ, budget=ClosureBudget(max_levels=2))
    assert got.cumulative[-1] == 298
    assert _summary(got) == _mc_xyz_reference()


def test_column_budget_stop_leaves_the_reference_prefix():
    """Level 3 of mc over x, y, z crosses the default column budget.
    ``grow(max_new)`` stops at the first new column past ``max_new`` and
    commits nothing, and the closure stays the reference's level 2."""
    lat = bundled_lattice("mc")
    words, levels, cumulative, _ = _mc_xyz_reference()
    state = ClosureState(lat, MC_XYZ)
    state.grow()
    state.grow()
    room = ClosureBudget().max_columns - state.total
    assert state.grow(room) == room + 1
    assert (state.words, state.levels, state.total) == (words, levels, 298)
    got = representable_closure(lat, MC_XYZ, budget=ClosureBudget(max_levels=3))
    assert got.budget_note == "column budget 20000 exceeded at 20001 columns"
    assert not got.complete
    assert _summary(got)[:3] == (words, levels, cumulative)


@pytest.mark.parametrize("name, var_list", [("godel3", ("x", "y")), ("mc", ("s", "t")),
                                            ("classical-1", ("x", "y", "z"))])
def test_witnesses_built_on_demand_match_words_and_values(name, var_list):
    """Every column's witness, built from its parent links, renders as its
    word and evaluates to its values: on the shared ladder and on a copy
    grown one level past it.  The copy builds its witnesses first, and the
    ladder's stay unbuilt, as the two keep their own."""
    lat = bundled_lattice(name)
    ladder = closure_ladder(lat, var_list)
    while ladder.added[-1] and ladder.app_count(len(ladder.added)) * ladder.N <= BLOCK_CELLS:
        ladder.grow()
    assert len(ladder.added) >= 3
    grown = ladder.copy()
    grown.grow()
    assert grown.total > ladder.total
    for state in (grown, ladder):
        if state is ladder:
            assert all(w is None for w in ladder.wits[ladder.added[0]:])
        for i in range(state.total):
            witness = state.witness(i)
            assert render(witness) == state.words[i]
            assert np.array_equal(column_of(witness, lat, var_list), state.values[i])


def test_closure_result_builds_witnesses_when_read():
    """A closure result builds no witness until one is read; a column's
    witness is then its state's, rendering as its word."""
    lat = bundled_lattice("godel3")
    state = ClosureState(lat, ("x", "y"))
    state.grow()
    state.grow()
    result = state.result(True, None, 3)
    seeds = state.added[0]
    assert len(result.columns) == state.total == 39
    assert all(w is None for w in state.wits[seeds:])
    column = result.columns[30]
    assert render(column.witness) == column.word
    assert column.witness is state.wits[30]
    assert sum(w is None for w in state.wits[seeds:]) > 0


def _reference_blocks(members, first, count, cells, gap=None):
    """Each box enumerated on its own with itertools.product, a triangle
    (``gap`` at least 0) as the product of its leading positions and its
    pairs (i, j), j - i >= gap, by j then i; cut into pieces of a block's
    tuples, BLOCK_CELLS cells but at least MIN_BLOCK_APPS tuples;
    consecutive pieces share a block while they fit."""
    step = max(propcore.MIN_BLOCK_APPS, propcore.BLOCK_CELLS // cells)
    blocks, pending = [], []
    gaps = [-1] * len(first) if gap is None else gap.tolist()
    for f, c, g in zip(first.tolist(), count.tolist(), gaps):
        ranges = [members[k][a:a + n].tolist() for k, (a, n) in enumerate(zip(f, c))]
        if g < 0:
            box = list(itertools.product(*ranges))
        else:
            pairs = [(ranges[-2][i], ranges[-1][j]) for j in range(c[-1]) for i in range(j - g + 1)]
            box = [h + p for h in itertools.product(*ranges[:-2]) for p in pairs]
        for start in range(0, len(box), step):
            piece = box[start:start + step]
            if len(pending) + len(piece) > step:
                blocks.append(pending)
                pending = []
            pending = pending + piece
    return blocks + [pending] if pending else blocks


@pytest.mark.parametrize("block_cells", [BLOCK_CELLS, 64, 7])
def test_blocks_match_per_box_enumeration(block_cells, monkeypatch):
    """Boxes of up to 3 positions, empty ones among them, each position
    drawing from its own members, cut into the same blocks as a per-box
    enumeration.  At the real BLOCK_CELLS a block of 3,125-cell tuples
    holds MIN_BLOCK_APPS of them; the smaller sizes go without that floor,
    down to blocks of one tuple."""
    monkeypatch.setattr(propcore, "BLOCK_CELLS", block_cells)
    if block_cells != BLOCK_CELLS:
        monkeypatch.setattr(propcore, "MIN_BLOCK_APPS", 1)
    rng = random.Random(block_cells)
    for _ in range(300):
        arity, n = rng.randint(0, 3), rng.randint(0, 7)
        members = [np.array(rng.sample(range(100), 60)) for _ in range(arity)]
        first = np.array([[rng.randint(0, 30) for _ in range(arity)] for _ in range(n)],
                         dtype=np.intp).reshape(n, arity)
        count = np.array([[rng.choice([0, 1, 2, 5, 9, 30]) for _ in range(arity)]
                          for _ in range(n)], dtype=np.intp).reshape(n, arity)
        cells = rng.choice([1, 3, 9, 64, 3125])
        got = [b.tolist() for b in _blocks(members, first, count, cells)]
        want = _reference_blocks(members, first, count, cells)
        assert got == [[list(t) for t in b] for b in want]


@pytest.mark.parametrize("block_cells", [BLOCK_CELLS, 64, 7])
def test_triangle_blocks_match_per_box_enumeration(block_cells, monkeypatch):
    """Boxes whose last two positions draw the same entries, some of them
    triangles of gap 0 or 1 (empty ones and ones of one pair among them),
    among product boxes, cut into the same blocks as a per-box
    enumeration."""
    monkeypatch.setattr(propcore, "BLOCK_CELLS", block_cells)
    if block_cells != BLOCK_CELLS:
        monkeypatch.setattr(propcore, "MIN_BLOCK_APPS", 1)
    rng = random.Random(block_cells + 1)
    for _ in range(300):
        arity, n = rng.randint(2, 3), rng.randint(0, 7)
        members = [np.array(rng.sample(range(100), 60)) for _ in range(arity - 1)]
        members.append(members[-1])
        first = np.array([[rng.randint(0, 30) for _ in range(arity)] for _ in range(n)],
                         dtype=np.intp).reshape(n, arity)
        count = np.array([[rng.choice([0, 1, 2, 5, 9, 30]) for _ in range(arity)]
                          for _ in range(n)], dtype=np.intp).reshape(n, arity)
        gap = np.array([rng.choice([-1, 0, 1]) for _ in range(n)], dtype=np.intp)
        first[gap >= 0, -1] = first[gap >= 0, -2]
        count[gap >= 0, -1] = count[gap >= 0, -2]
        cells = rng.choice([1, 3, 9, 64, 3125])
        got = [b.tolist() for b in _blocks(members, first, count, cells, gap)]
        want = _reference_blocks(members, first, count, cells, gap)
        assert got == [[list(t) for t in b] for b in want]


def _kernel_probe_fits(flat, m, reps, allowed, arity):
    """The probe filter the fit tables replace: every tuple of
    representatives evaluated by the kernel at each probe, then checked
    against the bounds there."""
    tuples = list(itertools.product(range(len(reps)), repeat=arity))
    tuples = np.array(tuples, dtype=np.intp).reshape(len(tuples), arity)
    values = np.broadcast_to(apply_connective(flat, m, reps[tuples.T]),
                             (len(tuples), reps.shape[1]))
    return tuples[allowed[np.arange(reps.shape[1]), values].all(axis=1)]


def _stack8():
    """A 6-chain with eight binary connectives: their stacked table has 288
    entries, more than a uint8 index reaches, though 6 ** 3 = 216 is not."""
    names = [f"e{i}" for i in range(6)]
    pairs = list(itertools.product(range(6), repeat=2))
    ops = {"P1": lambda a, b: a, "P2": lambda a, b: b, "Sum": lambda a, b: min(a + b, 5),
           "Dif": lambda a, b: max(a - b, 0), "Tie": lambda a, b: (a + b) // 2}
    polarity = {"P1": ("+", "+"), "P2": ("+", "+"), "Sum": ("+", "+"), "Dif": ("+", "-"),
                "Tie": ("+", "+")}
    extras = [RawConnective(k, polarity[k], [names[f(a, b)] for a, b in pairs])
              for k, f in ops.items()]
    return _chain(6, *extras)


PROBE_LATTICES = {
    "unary": lambda: _lattice(RawConnective("Box_up", ("+",), ["0", "h", "h"])),
    "nullary": lambda: _lattice(RawConnective("Mid", (), ["h"])),
    "ternary": _median_lattice,
    "median7": lambda: _median_chain(7),  # 343 table entries: a widened ternary index
    "stack8": _stack8,
}


@pytest.mark.parametrize("name", [*BUNDLED, *PROBE_LATTICES])
def test_fit_table_probe_filter_matches_the_kernel_filter(name, monkeypatch):
    """Applications to tuples of probe-group representatives that fit at
    every probe, from per-probe fit tables of each arity's stacked table,
    equal the kernel's evaluate-then-check filter run connective by
    connective: with one gather for all probes (few applications), a gather
    per probe (at least TRANSLATE_CELLS applications), and blocks of nine
    applications, small enough that every argument position is
    enumerated."""
    lat = PROBE_LATTICES[name]() if name in PROBE_LATTICES else bundled_lattice(name)
    m, leq = lat.m, lat.leq
    rng = np.random.default_rng(len(name))
    # the whole lattice at most probes, a random interval at three of them
    lower, upper = np.full(propcore.PROBES, lat.bottom), np.full(propcore.PROBES, lat.top)
    pairs = np.argwhere(leq)  # (lower, upper) with lower <= upper
    lower[:3], upper[:3] = pairs[rng.integers(0, len(pairs), 3)].T
    allowed = leq[lower] & leq[:, upper].T  # [probe, value]
    hits = 0
    for stack in ClosureState(lat, ()).stacks:
        fit = allowed[:, stack.flat].view(np.uint8)
        sizes = {0: [1], 1: [5, TRANSLATE_CELLS + 3], 2: [7, 35], 3: [4, 12]}[stack.arity]
        for R in sizes:
            reps = rng.integers(0, m, (R, propcore.PROBES)).astype(np.uint8)
            want = np.concatenate([
                np.insert(_kernel_probe_fits(lat.flat(c), m, reps, allowed, stack.arity), 0, i,
                          axis=1)
                for i, c in enumerate(stack.names)])
            for block_cells in (BLOCK_CELLS, 9):
                with monkeypatch.context() as patch:
                    patch.setattr(propcore, "BLOCK_CELLS", block_cells)
                    got = _probe_fits(fit, m, reps, stack.arity)
                assert got.dtype == np.intp and got.shape == (len(want), 1 + stack.arity)
                assert np.array_equal(got, want), (stack.names, R, block_cells)
            hits += len(want)
    assert hits > 0


# ---------------------------------------------------------------------------
# index width: uint8 while m ** arity <= 256, widened beyond


def _chain(k, *extras):
    """A k-element chain with the Goedel implication, a nullary connective
    ``Mid`` and the constant ``#0``."""
    names = [f"e{i}" for i in range(k)]
    imp = [names[-1] if i <= j else names[j] for i in range(k) for j in range(k)]
    raw = RawLattice(elements=names, covers=list(zip(names, names[1:])),
                     connectives=[RawConnective("->", ("-", "+"), imp),
                                  RawConnective("Mid", (), [names[k // 2]]), *extras],
                     constants={"0": names[0]})
    return validate_lattice(raw)


def _median_chain(k):
    """A k-chain with a ternary median ``Med`` (k**3 table entries)."""
    names = [f"e{i}" for i in range(k)]
    med = [names[sorted(t)[1]] for t in itertools.product(range(k), repeat=3)]
    return _chain(k, RawConnective("Med", ("+", "+", "+"), med))


WIDTH_CASES = {
    # 16 * 16 = 256 table entries: the largest binary index is 255, still uint8
    "chain16": (lambda: _chain(16), ["x -> y", "(x -> y) -> z", "x -> Mid()",
                                     "(z -> #0) -> Mid()", "Mid()", "#0"]),
    # 17 * 17 = 289 entries: the binary index widens
    "chain17": (lambda: _chain(17), ["x -> y", "(x -> y) -> z", "x -> Mid()",
                                     "(z -> #0) -> Mid()", "Mid()", "#0"]),
    # 7 ** 3 = 343 entries: the ternary index widens, the binary one does not
    "median7": (lambda: _median_chain(7), ["Med(x, y, z)", "Med(x, Med(y, z, x), z -> y)",
                                           "Med(#0, x, Mid())", "Med(x, y, x) -> y"]),
}


@pytest.mark.parametrize("case", WIDTH_CASES)
@pytest.mark.parametrize("var_list", [("x", "y"), ("x", "y", "z")])
def test_column_of_matches_eval_prop_across_index_widths(case, var_list):
    build, words = WIDTH_CASES[case]
    lat = build()
    for text in words:
        phi = parse_formula(text, lat.signature)
        if not prop_variables(phi) <= set(var_list):
            continue
        col = column_of(phi, lat, var_list)
        assert col.dtype == np.uint8
        expected = [lat.index(eval_prop(phi, lat, dict(zip(var_list, vals))))
                    for vals in itertools.product(lat.elements, repeat=len(var_list))]
        assert col.tolist() == expected, text


@pytest.mark.parametrize("name", [*BUNDLED, "chain16", "chain17"])
def test_fold_axis_matches_sequential_reduction(name):
    lat = WIDTH_CASES[name][0]() if name in WIDTH_CASES else bundled_lattice(name)
    rng = np.random.default_rng(20240801)
    # halves fold against each other and odd tails are carried, which for a
    # join or a meet equals the left-to-right reduction, also on a
    # non-contiguous grid like the transposed views some callers fold
    for shape in [(5, 1), (3, 2), (3, 3), (7, 13), (2, 3, 16), (2, 5 ** 5)]:
        grid = rng.integers(0, lat.m, size=shape).astype(np.uint8)
        for conn in (JOIN, MEET):
            got = _fold_axis(grid, lat.flat(conn), lat.m)
            assert got.dtype == np.uint8
            table = lat.tables[conn]
            expected = functools.reduce(lambda acc, k: table[acc, grid[..., k]],
                                        range(1, shape[-1]), grid[..., 0])
            assert np.array_equal(got, expected), (shape, conn)
            strided = _fold_axis(np.asfortranarray(grid), lat.flat(conn), lat.m)
            assert np.array_equal(strided, expected), (shape, conn)


# ---------------------------------------------------------------------------
# the gather in apply_connective against plain fancy indexing


def _plain(flat, m, args):
    """flat[idx] with the table index computed in intp."""
    idx = np.zeros((), dtype=np.intp)
    for a in args:
        idx = idx * m + np.asarray(a, dtype=np.intp)
    return flat[idx]


SIZES = [1, 16, TRANSLATE_CELLS - 1, TRANSLATE_CELLS, TRANSLATE_CELLS + 1,
         BLOCK_CELLS - 1, BLOCK_CELLS, BLOCK_CELLS + 1, 3 * BLOCK_CELLS + 7]


def _check_gather(flat, m, args):
    """``apply_connective`` gives a fresh writable uint8 array equal to plain
    indexing, in the broadcast shape of ``args``."""
    want = _plain(flat, m, args)
    before = [a.copy() for a in args]
    got = apply_connective(flat, m, args)
    assert isinstance(got, np.ndarray) and got.dtype == np.uint8 and got.flags.writeable
    assert got.shape == np.broadcast_shapes(*(a.shape for a in args))
    assert np.array_equal(got, want)
    got[...] = 0  # writable in fact, and sharing no memory with an argument
    assert all(np.array_equal(a, b) for a, b in zip(args, before))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("m, arity", [(5, 2), (5, 4), (17, 2), (3, 1), (16, 2)])
def test_apply_connective_matches_fancy_indexing(size, m, arity):
    """uint8 indices (5 ** 2, 16 ** 2 = 256 and 3 entries), widened ones
    (5 ** 4 = 625 and 17 ** 2 = 289 entries) and a unary gather, on both
    sides of the translate crossover and of the block size."""
    rng = np.random.default_rng(size + m + arity)
    flat = rng.integers(0, m, m ** arity).astype(np.uint8)
    _check_gather(flat, m, [rng.integers(0, m, size).astype(np.uint8) for _ in range(arity)])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("m, arity, count", [(6, 2, 8), (4, 2, 16), (5, 2, 3), (3, 0, 4),
                                             (2, 3, 32), (2, 3, 33), (256, 1, 1)])
def test_apply_connective_matches_fancy_indexing_on_stacked_tables(size, m, arity, count):
    """Tables of ``count`` connectives stacked, the connective's position
    leading the arguments, as the closure applies them.  Eight binary tables
    over 6 elements have 288 entries, though 6 ** 3 = 216: the index must
    widen, or it wraps in uint8.  Sixteen over 4 elements and 32 ternary
    ones over 2 have exactly 256 entries and stay uint8; a 256-element
    lattice's one unary table leads with position 0, which numpy will not
    multiply by 256 in uint8."""
    rng = np.random.default_rng(size + m + arity + count)
    flat = rng.integers(0, m, count * m ** arity).astype(np.uint8)
    lead = rng.integers(0, count, (size, 1)).astype(np.uint8)
    args = [rng.integers(0, m, (size, 3)).astype(np.uint8) for _ in range(arity)]
    _check_gather(flat, m, [lead] + args)


@pytest.mark.parametrize("size", [16, TRANSLATE_CELLS, BLOCK_CELLS + 1])
def test_apply_connective_unary_gather_from_strided_views(size):
    """A unary connective gathers with its argument as the index, which may
    be a view with steps, a transposed or a reversed one."""
    rng = np.random.default_rng(size)
    flat = rng.integers(0, 7, 7).astype(np.uint8)
    wide = rng.integers(0, 7, (2 * size, 3)).astype(np.uint8)
    for view in (wide[::2, 1], wide[:size].T, wide[1::2][::-1]):
        _check_gather(flat, 7, [view])


@pytest.mark.parametrize("m, arity", [(5, 2), (5, 4)])
@pytest.mark.parametrize("depth", [1, 300])
def test_apply_connective_broadcasts_n_dimensional_arguments(m, arity, depth):
    """Arguments of different shapes broadcast, as in ``column_of``, to
    7 * 11 * depth * 5 cells (385 and 115,500), also from non-contiguous
    views."""
    rng = np.random.default_rng(m * arity * depth)
    flat = rng.integers(0, m, m ** arity).astype(np.uint8)
    shapes = [(7, 1, depth, 1), (1, 11, 1, 5), (7, 1, 1, 5), (1, 11, depth, 1)][:arity]
    args = [rng.integers(0, m, s).astype(np.uint8) for s in shapes]
    for case in (args, [a.swapaxes(0, 2) for a in args]):
        _check_gather(flat, m, case)


def test_apply_connective_on_a_scalar_and_nullary():
    flat = np.arange(5, dtype=np.uint8)[::-1].copy()
    scalar = apply_connective(flat, 5, [np.full((), 3, dtype=np.uint8)])
    assert scalar.shape == () and scalar == flat[3]
    assert apply_connective(flat[:1], 5, []) == flat[0]


@pytest.mark.parametrize("m, arity", [(5, 2), (16, 2), (17, 2), (7, 3)])
def test_apply_connective_on_0d_indices(m, arity):
    """0-d arguments, as fixed variables and constants are in ``column_of``,
    give a 0-d uint8 value; a 0-d array must not reach ``bytearray``, which
    reads it as a length."""
    flat = (np.arange(m ** arity)[::-1] % m).astype(np.uint8)
    args = [np.full((), m - 1 - k, dtype=np.uint8) for k in range(arity)]
    got = apply_connective(flat, m, args)
    assert np.ndim(got) == 0 and got.dtype == np.uint8
    assert got == _plain(flat, m, args)


# ---------------------------------------------------------------------------
# packed columns: column_of on at most PACKED_CELLS cells against the
# broadcast grid, eval_prop and plain fancy indexing


def _up_chain(k):
    """A k-chain with a unary ``Up`` (one step up, the top stays) besides
    the binary -> and the nullary ``Mid``."""
    names = [f"e{i}" for i in range(k)]
    return _chain(k, RawConnective("Up", ("+",), [names[min(i + 1, k - 1)] for i in range(k)]))


UPSETS = [f"upset{i}" for i in range(6)]


def _packed_case(name):
    if name in UPSETS:
        return random_upset_lattice(random.Random(name))
    if name.startswith("chain"):
        return _up_chain(int(name[5:]))
    return bundled_lattice(name)


# chain16's binary tables have 256 entries, the most a packed column takes;
# chain17's have 289, so every grid of it stays broadcast
@pytest.mark.parametrize("name", [*BUNDLED, *UPSETS, "chain16", "chain17"])
def test_packed_column_matches_broadcast_and_eval_prop(name, monkeypatch):
    """Random words over the whole signature, with a held variable ``h``
    and sometimes a held ``v0`` that keeps its axis, on grids of 0 and 1
    variables, of the most variables a packed grid holds (exactly
    PACKED_CELLS cells where m is 2 or 4) and of one more."""
    lat = _packed_case(name)
    packable = name != "chain17"
    assert (propcore._packed_tables(lat) is not None) == packable
    broadcast = propcore._broadcast_column
    used = []
    monkeypatch.setattr(propcore, "_broadcast_column",
                        lambda *args: used.append(args) or broadcast(*args))
    rng = random.Random(f"packed-{name}")
    most = max(n for n in range(12) if lat.m ** n <= PACKED_CELLS)
    for n in (0, 1, most, most + 1):
        var_list = tuple(f"v{i}" for i in range(n))
        cells = lat.m ** n
        for _ in range(6):
            phi = random_signature_word(rng, var_list + ("h",), lat, depth=4)
            fixed = {"h": rng.randrange(lat.m)}
            if n and rng.random() < 0.3:
                fixed["v0"] = rng.randrange(lat.m)
            used.clear()
            got = column_of(phi, lat, var_list, fixed)
            assert len(used) == (0 if packable and cells <= PACKED_CELLS else 1)
            assert got.dtype == np.uint8 and got.shape == (cells,) and got.flags.writeable
            assert np.array_equal(got, broadcast(phi, lat, var_list, fixed)), phi
            for cell in {0, cells - 1, *rng.sample(range(cells), min(cells, 20))}:
                valuation = _decode_valuation(cell, var_list, lat)
                valuation["h"] = lat.elements[fixed["h"]]
                assert lat.index(eval_prop(phi, lat, valuation)) == got[cell], (phi, cell)


def _outcome(evaluate):
    try:
        return ("value", evaluate().tolist())
    except Exception as exc:  # the two paths must fail alike
        return (type(exc), str(exc))


ILL_FORMED = {
    "unbound-variable": App("&", (PropVar("x"), PropVar("free"))),
    "undeclared-constant": App("|", (Const("nowhere"), PropVar("x"))),
    "atom": App("->", (PropVar("x"), Atom("P", ()))),
    "unbound-before-atom": App("&", (PropVar("free"), Atom("P", ()))),
    "binary-given-one": App("->", (PropVar("x"),)),
    "meet-given-one": App("&", (PropVar("x"),)),
    "binary-given-three": App("->", (PropVar("x"), PropVar("y"), PropVar("x"))),
    "nullary-given-one": App("Mid", (PropVar("y"),)),
    "unknown-connective": App("Down", (PropVar("y"),)),
}


@pytest.mark.parametrize("case", ILL_FORMED)
def test_packed_column_fails_as_the_broadcast_grid_does(case):
    """An unbound variable, an undeclared constant, a first-order atom, a
    connective given a wrong number of arguments and an unknown one: the
    packed walk raises the LatlogError the broadcast grid raises, and so
    does ``eval_prop``."""
    phi = ILL_FORMED[case]
    lat = _up_chain(4)
    for var_list in (("x", "y"), ("x", "y", "z", "w", "u", "t")):
        packed = _outcome(lambda: column_of(phi, lat, var_list))
        assert packed == _outcome(lambda: propcore._broadcast_column(phi, lat, var_list, None))
        assert isinstance(packed[0], type) and issubclass(packed[0], LatlogError), packed
    with pytest.raises(LatlogError):
        eval_prop(phi, lat, {"x": lat.elements[-1], "y": lat.elements[0]})


def test_deep_word_on_packed_and_broadcast_grids():
    """A 3,001-node word nested 1,501 deep, past the default recursion
    limit, on godel3: over x, y it is packed (9 cells), over x, y and five
    more variables broadcast (2,187 cells), and both agree with eval_prop."""
    lat = bundled_lattice("godel3")
    word = PropVar("x")
    for i in range(1500):
        leaf = PropVar("xy"[i % 2])
        word = App("->", (leaf, word) if i % 3 else (word, leaf))
    assert sum(1 for _ in nodes(word)) == 3001
    small = column_of(word, lat, ("x", "y"))
    wide = ("x", "y", "z1", "z2", "z3", "z4", "z5")
    assert lat.m ** 2 <= PACKED_CELLS < lat.m ** len(wide)
    big = column_of(word, lat, wide).reshape(9, -1)
    assert np.array_equal(big, np.repeat(small[:, None], big.shape[1], axis=1))
    for cell in range(9):
        assert lat.index(eval_prop(word, lat, _decode_valuation(cell, ("x", "y"), lat))) == small[cell]


PACKED_KERNEL_CASES = [(m, k) for m in (2, 3, 4, 5, 6, 16, 256) for k in range(9)
                       if m ** k <= 256]


@pytest.mark.parametrize("m, arity", PACKED_KERNEL_CASES)
def test_apply_packed_matches_fancy_indexing(m, arity):
    """Every arity whose table has at most 256 entries, on packed columns
    of 1 to PACKED_CELLS cells; arguments that are m - 1 in every cell
    reach the largest index, m ** arity - 1.  Byte order and length are given explicitly: Python
    3.10's int.from_bytes has no default byte order."""
    rng = np.random.default_rng(m * 16 + arity)
    flat = rng.integers(0, m, m ** arity).astype(np.uint8)
    pad = flat.tobytes().ljust(256, b"\0")
    for cells in (1, 7, 255, 256, PACKED_CELLS):
        for args in ([rng.integers(0, m, cells).astype(np.uint8) for _ in range(arity)],
                     [np.full(cells, m - 1, dtype=np.uint8) for _ in range(arity)]):
            packed = [int.from_bytes(a.tobytes(), byteorder="big") for a in args]
            got = apply_packed(pad, m, cells, packed)
            want = np.broadcast_to(_plain(flat, m, args), (cells,))
            assert got.to_bytes(cells, byteorder="big") == want.tobytes(), (cells, args)


@pytest.mark.parametrize("name, var_list", [("stack8", ("x",)), ("godel3", ("x", "y")),
                                            ("mc", ("s", "t", "v"))])
def test_unordered_stream_scan_equals_grow_then_scan_existing(name, var_list, monkeypatch):
    """Scanning levels 1 and 2 with unordered pairs finds what growing the
    level and scanning its new rows finds, for bounds equal to each new
    column whose witness applies a commuting connective, whichever
    orientation of its arguments the scan enumerates."""
    monkeypatch.setattr(propcore, "BLOCK_CELLS", 1)
    monkeypatch.setattr(propcore, "MIN_BLOCK_APPS", 1)
    lat = _stack8() if name == "stack8" else bundled_lattice(name)
    state = ClosureState(lat, var_list)
    hits = 0
    for _ in range(2):
        grown = state.copy()
        start = grown.total
        grown.grow()
        for i in range(start, grown.total):
            stack, app = grown.parents[i]
            if stack.arity != 2 or stack.gaps[app[0]] < 0:
                continue
            hits += 1
            found = state.stream_scan(grown.values[i], grown.values[i])
            hit = grown.scan_existing(grown.values[i], grown.values[i], start)
            assert found[1] == grown.words[hit] and np.array_equal(found[0], grown.values[hit])
        state.grow()
    assert hits > 0


@pytest.mark.parametrize("name, var_list, kind", [("godel3", ("x", "y", "z"), "same group"),
                                                  ("mc", ("s", "t"), "shorter mirror"),
                                                  ("stack8", ("x",), "shorter mirror")])
def test_unordered_stream_scan_on_one_group_pairs_and_shorter_mirrors(name, var_list, kind,
                                                                      monkeypatch):
    """Bounds equal to a level-3 column whose canonical application either
    pairs two columns of one probe group, which the scan takes from that
    group's triangle, or is the mirror of the orientation the scan
    enumerates (probe groups in increasing order, then columns) and
    renders shorter.  With blocks of one application every scan takes
    unordered pairs, and finds what growing the level and scanning its new
    rows finds."""
    lat = _stack8() if name == "stack8" else bundled_lattice(name)
    state = ClosureState(lat, var_list)
    state.grow()
    state.grow()
    grown = state.copy()
    start = grown.total
    grown.grow()
    probes = propcore._spread(propcore.PROBES, state.N)
    _, group = np.unique(propcore.row_keys(state.values[:, probes], state.m), return_inverse=True)
    picked = []
    for i in range(start, grown.total):
        stack, app = grown.parents[i]
        if stack.arity != 2 or stack.gaps[app[0]] < 0:
            continue
        c, a, b = app
        if kind == "same group":
            hit = a != b and group[a] == group[b]
        else:
            hit = ((group[a], a) > (group[b], b)
                   and len(grown._word(stack, [c, b, a])) > len(grown.words[i]))
        if hit:
            picked.append(i)
    assert picked
    monkeypatch.setattr(propcore, "_step", lambda cells: 1)
    for i in picked:
        found = state.stream_scan(grown.values[i], grown.values[i])
        assert grown.scan_existing(grown.values[i], grown.values[i], start) == i
        assert found[1] == grown.words[i] and np.array_equal(found[0], grown.values[i])
