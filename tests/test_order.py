"""The partial-order code of ``latlog.algebra`` against the loops it
replaced (``order_reference``): closed orders, meets and joins, polarity
checks, frames and their up-set tables, and residua, on random posets and
covers; plus the pinned residuum cases of the bundled lattices, the frame
antisymmetry witness under two hash seeds, and the largest inputs."""
import collections
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latlog
import order_reference as ref
from latlog import (
    RawConnective,
    RawLattice,
    bundled_lattice,
    derive_residuum,
    implication_mode_disagreements,
    kripke_frame,
    load_lattice,
    upset_lattice,
    validate_lattice,
)
from latlog.algebra import IMP, JOIN, MEET
from latlog.bundled import BUNDLED
from latlog.errors import FrameViolation, LatlogError

from genutil import random_covers, random_upset_lattice


def _error(exc):
    return type(exc), str(exc), exc.details


def _outcome(call):
    try:
        return "value", call()
    except LatlogError as exc:
        return "error", _error(exc)


def _random_order(rng):
    n = rng.randint(1, 7)
    names = [f"e{i}" for i in range(n)]
    covers = random_covers(rng, names, rng.choice((0.2, 0.4, 0.7)),
                           backward=rng.choice((0, 0, 0, 1, 2)), bounded=rng.random() < 0.5)
    return names, covers


def _crisp(rel, names):
    """The implication that is top on ordered pairs and bottom elsewhere."""
    top = int(np.flatnonzero(rel.all(axis=0))[0])
    bottom = int(np.flatnonzero(rel.all(axis=1))[0])
    return [names[top] if rel[i, j] else names[bottom] for i in range(len(names))
            for j in range(len(names))]


@pytest.mark.parametrize("seed", range(8))
def test_order_section_matches_the_reference(seed):
    """Closed order, meet and join of an ``order`` section, or its error
    (a cycle, a missing meet or a missing join), as the reference loops."""
    rng = random.Random(seed)
    seen = collections.Counter()
    for _ in range(60):
        names, covers = _random_order(rng)
        expected = _outcome(lambda: ref.order_tables(names, covers))
        imp = _crisp(expected[1][0], names) if expected[0] == "value" else names[:1] * len(names) ** 2
        raw = RawLattice(names, covers=covers, connectives=[RawConnective(IMP, ("-", "+"), imp)])
        got = _outcome(lambda: validate_lattice(raw))
        assert got[0] == expected[0], (names, covers, got, expected)
        if got[0] == "error":
            assert got[1] == expected[1], (names, covers)
            seen[str(got[1][1]).split(":")[0].split(" for ")[0]] += 1
        else:
            lat, (rel, meet, join) = got[1], expected[1]
            assert np.array_equal(lat.leq, rel)
            assert np.array_equal(lat.tables[MEET], meet) and lat.tables[MEET].dtype == np.uint8
            assert np.array_equal(lat.tables[JOIN], join) and lat.tables[JOIN].dtype == np.uint8
            seen["lattice"] += 1
    # every outcome shows up under each seed
    assert set(seen) >= {"lattice", "declared order is not antisymmetric",
                         "order has no meet", "order has no join"}, seen


def _base_lattices(rng):
    yield from (bundled_lattice(name) for name in sorted(BUNDLED))
    for _ in range(6):
        yield random_upset_lattice(rng)


def _random_table(rng, lat, arity):
    """A random table, or a monotone one (a constant, a projection, a meet or
    a join) with at most one entry changed."""
    m = lat.m
    shape = (m,) * arity
    if rng.random() < 0.4:
        return rng.choices(range(m), k=m ** arity)
    grids = np.indices(shape)
    base = [np.full(shape, rng.randrange(m)), *grids]
    if arity == 2:
        base += [lat.tables[MEET], lat.tables[JOIN]]
    flat = rng.choice(base).reshape(-1).tolist()
    if rng.random() < 0.5:
        flat[rng.randrange(len(flat))] = rng.randrange(m)
    return flat


@pytest.mark.parametrize("seed", range(4))
def test_polarity_check_matches_the_reference(seed):
    """Extra connectives of arity 0 to 3 with random polarities, on the
    bundled and random up-set lattices: ``validate_lattice`` raises the
    PolarityViolation of the reference's pair loop, or none."""
    rng = random.Random(seed)
    outcomes = collections.Counter()
    for lat in _base_lattices(rng):
        for _ in range(12):
            extras = []
            for k in range(rng.randint(1, 3)):
                arity = rng.choice((0, 1, 1, 2, 2, 3) if lat.m <= 5 else (0, 1, 2))
                pol = tuple(rng.choice("+-") for _ in range(arity))
                extras.append((f"C{k}", pol, np.array(_random_table(rng, lat, arity)).reshape((lat.m,) * arity)))
            els = list(lat.elements)
            named = lambda t: [els[int(v)] for v in np.asarray(t).reshape(-1)]
            raw = RawLattice(els, meet=named(lat.tables[MEET]), join=named(lat.tables[JOIN]),
                             connectives=[RawConnective(IMP, ("-", "+"), named(lat.tables[IMP]))]
                             + [RawConnective(name, pol, named(t)) for name, pol, t in extras])
            signature = [(MEET, ("+", "+"), lat.tables[MEET]), (JOIN, ("+", "+"), lat.tables[JOIN]),
                         (IMP, ("-", "+"), lat.tables[IMP])] + extras
            expected = ref.polarity_violation(signature, lat.leq, els)
            got = _outcome(lambda: validate_lattice(raw))
            if expected is None:
                assert got[0] == "value", got
            else:
                assert got == ("error", _error(expected))
            outcomes[expected is None] += 1
    assert outcomes[True] and outcomes[False], outcomes


def _random_frame(rng):
    worlds = [f"w{i}" for i in range(rng.randint(1, 5))]
    return worlds, random_covers(rng, worlds, rng.choice((0.2, 0.5)),
                                 backward=rng.choice((0, 0, 1, 2)))


@pytest.mark.parametrize("seed", range(4))
def test_frames_and_upset_tables_match_the_reference(seed):
    """The closed order of a frame, its antisymmetry error naming the first
    pair of distinct worlds below each other in declaration order, and the
    tables and mode disagreements of its up-set lattice."""
    rng = random.Random(seed)
    cyclic = 0
    for _ in range(40):
        worlds, pairs = _random_frame(rng)
        rel = ref.frame_order(worlds, pairs)
        both = [(a, b) for a in worlds for b in worlds if a != b and (a, b) in rel and (b, a) in rel]
        if both:
            cyclic += 1
            a, b = both[0]
            with pytest.raises(FrameViolation) as exc:
                kripke_frame(worlds, pairs)
            assert str(exc.value) == f"order is not antisymmetric: {a} and {b}"
            assert exc.value.details == {"witness": (a, b)}
            continue
        frame = kripke_frame(worlds, pairs)
        assert frame.order == rel
        names, tables = ref.upset_tables(frame.worlds, rel)
        for mode in ("godel", "heyting"):
            lat = upset_lattice(frame, mode)
            assert list(lat.elements) == names
            for conn, key in ((JOIN, JOIN), (MEET, MEET), (IMP, mode)):
                assert [names[int(v)] for v in lat.tables[conn].reshape(-1)] == tables[key]
        expected = [(names[i // len(names)], names[i % len(names)], h, g)
                    for i, (h, g) in enumerate(zip(tables["heyting"], tables["godel"])) if h != g]
        assert implication_mode_disagreements(frame) == expected
    assert cyclic


# the residual of a commutative product with unit 1 on the chain 0 < a < b < 1
# where a & a = 0 and a & b = b & b = a, so that (a & b) & b = a but a & (b & b) = 0
NOT_ASSOCIATIVE = """\
elements 0 a b 1
order 0 < a, a < b, b < 1
connective -> -+
1 1 1 1
a 1 1 1
0 b 1 1
0 a b 1
"""


def test_residuum_of_a_product_that_is_not_associative():
    report = derive_residuum(load_lattice(NOT_ASSOCIATIVE))
    assert not report.residuated and not report.cases
    assert report.failing_pair == ("a", "b")
    assert report.law_violation == {"law": "associativity", "witness": ("a", "b", "b"),
                                    "left": "a", "right": "0"}


def _random_implications(rng, lat):
    """Lattices on the order of ``lat`` whose implication is top on ordered
    pairs and a random element below the top elsewhere, those of them that
    validate."""
    els = list(lat.elements)
    below_top = [e for i, e in enumerate(els) if i != lat.top] or els
    named = lambda t: [els[int(v)] for v in t.reshape(-1)]
    for _ in range(40):
        imp = [els[lat.top] if lat.leq[i, j] else rng.choice(below_top)
               for i in range(lat.m) for j in range(lat.m)]
        raw = RawLattice(els, meet=named(lat.tables[MEET]), join=named(lat.tables[JOIN]),
                         connectives=[RawConnective(IMP, ("-", "+"), imp)])
        try:
            yield validate_lattice(raw)
        except LatlogError:
            pass


@pytest.mark.parametrize("seed", range(3))
def test_residuum_matches_the_reference(seed):
    """The whole report of ``derive_residuum`` (verdict, table, failing pair,
    every case with its law and detail, the associativity violation) as the
    survivor scan's, on the bundled lattices, random up-set lattices and
    random implications on random orders."""
    rng = random.Random(seed)
    lattices = [bundled_lattice(name) for name in sorted(BUNDLED)] + [load_lattice(NOT_ASSOCIATIVE)]
    lattices += [random_upset_lattice(rng) for _ in range(8)]
    while len(lattices) < 120:
        names, covers = _random_order(rng)
        try:
            rel, _, _ = ref.order_tables(names, covers)
        except LatlogError:
            continue
        raw = RawLattice(names, covers=covers, connectives=[RawConnective(IMP, ("-", "+"), _crisp(rel, names))])
        lattices += list(_random_implications(rng, validate_lattice(raw)))[:4]
    kinds = collections.Counter()
    for lat in lattices:
        report = derive_residuum(lat)
        assert report == ref.derive_residuum(lat), lat.elements
        kinds["residuated" if report.residuated else "law_violation" if report.law_violation else "cases"] += 1
        for case in report.cases:
            kinds[case.law, "would force" in case.detail] += 1
    assert set(kinds) == {"residuated", "law_violation", "cases", ("residuation", True),
                          ("residuation", False), ("commutativity", True), ("commutativity", False)}, kinds


RESIDUUM_CASES = {
    "diamond": [
        ("0", "residuation", "0 <= 0 would force u1 <= u2 -> 0 = 0, which fails"),
        ("u1", "residuation", "u1 <= u1 would force u1 <= u2 -> u1 = 0, which fails"),
        ("u2", "commutativity",
         "by commutativity u2 & u1 = u2, and u2 <= u1 -> u1 forces it <= u1, but u2 <= u1 fails"),
        ("1", "residuation", "u1 <= u2 -> u2 = 1 forces u1 & u2 <= u2, but 1 <= u2 fails"),
    ],
    "mc": [
        ("0", "residuation", "0 <= 0 would force u1 <= u2 -> 0 = 0, which fails"),
        ("u1", "residuation", "u1 <= u2 -> u2 = 1 forces u1 & u2 <= u2, but u1 <= u2 fails"),
        ("u2", "residuation", "u1 <= u2 -> u1 = u1 forces u1 & u2 <= u1, but u2 <= u1 fails"),
        ("w", "residuation", "u1 <= u2 -> u1 = u1 forces u1 & u2 <= u1, but w <= u1 fails"),
        ("1", "residuation", "u1 <= u2 -> u1 = u1 forces u1 & u2 <= u1, but 1 <= u1 fails"),
    ],
}


@pytest.mark.parametrize("name", sorted(RESIDUUM_CASES))
def test_residuum_cases_of_the_bundled_lattices_are_pinned(name):
    report = derive_residuum(bundled_lattice(name))
    assert report.failing_pair == ("u1", "u2")
    assert [(c.candidate, c.law, c.detail) for c in report.cases] == RESIDUUM_CASES[name]


def test_frame_antisymmetry_witness_is_the_same_under_every_hash_seed():
    """Three worlds on one cycle and a fourth on another: the error names
    the first pair in declaration order, b and c, whatever the hash seed."""
    program = ("from latlog import kripke_frame\n"
               "try:\n"
               "    kripke_frame('a b c d e'.split(),"
               " [('d', 'e'), ('c', 'd'), ('e', 'c'), ('b', 'c'), ('c', 'b')])\n"
               "except Exception as exc:\n"
               "    print(exc.details['witness'])\n")
    src = str(Path(latlog.__file__).resolve().parents[1])
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "('b', 'c')\n", (seed, out)


def _goedel_chain_source(n):
    names = [f"e{i}" for i in range(n)]
    lines = ["elements " + " ".join(names)]
    lines += [f"order {a} < {b}" for a, b in zip(names, names[1:])]
    lines.append("connective -> -+")
    lines += [" ".join(names[-1] if x <= y else names[y] for y in range(n)) for x in range(n)]
    return "\n".join(lines) + "\n"


def test_largest_goedel_chain_loads_from_order_lines_and_is_residuated():
    """256 elements given by order lines: the meet is the minimum, and the
    residuum of the Goedel implication is the meet."""
    lat = load_lattice(_goedel_chain_source(256))
    idx = np.arange(256)
    assert np.array_equal(lat.tables[MEET], np.minimum(idx[:, None], idx))
    assert np.array_equal(lat.tables[JOIN], np.maximum(idx[:, None], idx))
    report = derive_residuum(lat)
    assert report.residuated
    assert report.table == [[lat.elements[min(i, j)] for j in range(256)] for i in range(256)]


def test_frames_with_more_than_256_upsets_are_refused_at_once():
    """An antichain of n worlds has 2^n up-sets: 8 worlds give the largest
    supported lattice, 9 are an input error, and so are 40, without
    enumerating their subsets."""
    antichain = lambda n: kripke_frame([f"w{i}" for i in range(n)], [])
    assert upset_lattice(antichain(8)).m == 256
    for n in (9, 40):
        with pytest.raises(LatlogError) as exc:
            upset_lattice(antichain(n), "heyting")
        assert type(exc.value) is LatlogError
        assert str(exc.value) == ("the frame has more than 256 up-sets; "
                                  "at most 256 elements are supported")
        with pytest.raises(LatlogError):
            implication_mode_disagreements(antichain(n))
    chain = kripke_frame([f"w{i}" for i in range(40)], [(f"w{i}", f"w{i + 1}") for i in range(39)])
    assert upset_lattice(chain).m == 41
