import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latlog import (
    RawConnective,
    RawLattice,
    bundled_source,
    derive_residuum,
    format_lattice_source,
    implication_mode_disagreements,
    kripke_frame,
    load_lattice,
    parse_lattice_source,
    upset_lattice,
    validate_lattice,
)
from latlog.bundled import BUNDLED
from latlog.errors import (
    FrameViolation,
    ImplicationLawViolation,
    LatlogError,
    LatticeAxiomViolation,
    MissingMandatoryConnective,
    ParseError,
    PolarityViolation,
)

from genutil import imp_idx, leq_names, meet_idx

FORK = kripke_frame(("a", "b", "g"), [("a", "b"), ("a", "g")])


def classical_raw(imp_row_10="0"):
    return RawLattice(
        elements=["0", "1"],
        covers=[("0", "1")],
        connectives=[RawConnective("->", ("-", "+"), ["1", "1", imp_row_10, "1"])],
    )


def test_bundled_lattices_all_validate():
    for name in ("classical", "classical-0", "classical-1", "classical-01",
                 "godel3", "lukasiewicz3", "three-01", "three-0a", "mc", "diamond"):
        lat = load_lattice(bundled_source(name))
        assert lat.elements[lat.top] == "1"
        assert lat.elements[lat.bottom] == "0" and lat.leq[lat.bottom].all()
        assert lat.with_constants({"fresh": "1"}).bottom == lat.bottom


def test_mc_lattice_shape(mc):
    # bottom, two incomparable middles, their join, the top
    leq = lambda a, b: leq_names(mc, a, b)
    assert leq("0", "u1") and leq("0", "u2") and leq("u1", "w") and leq("u2", "w")
    assert leq("w", "1")
    assert not leq("u1", "u2") and not leq("u2", "u1")
    assert mc.elements[mc.top] == "1"


def test_broken_classical_implication_law():
    with pytest.raises(ImplicationLawViolation) as exc:
        validate_lattice(classical_raw(imp_row_10="1"))
    assert exc.value.details["witness"] == ("1", "0")


def test_missing_mandatory_connective():
    raw = RawLattice(elements=["0", "1"], covers=[("0", "1")])
    with pytest.raises(MissingMandatoryConnective):
        validate_lattice(raw)


def test_polarity_violation_reported_with_position():
    # a unary connective declared monotone but built antitone
    raw = classical_raw()
    raw.connectives.append(RawConnective("Neg", ("+",), ["1", "0"]))
    with pytest.raises(PolarityViolation) as exc:
        validate_lattice(raw)
    assert exc.value.details["connective"] == "Neg"
    assert exc.value.details["position"] == 1


def test_extra_monotone_connective_accepted():
    raw = RawLattice(
        elements=["0", "h", "1"],
        covers=[("0", "h"), ("h", "1")],
        connectives=[
            RawConnective("->", ("-", "+"),
                          ["1", "1", "1", "0", "1", "1", "0", "h", "1"]),
            RawConnective("Box_up", ("+",), ["0", "h", "h"]),
        ],
    )
    lat = validate_lattice(raw)
    assert "Box_up" in lat.tables


def test_meet_commutativity_violation():
    raw = RawLattice(
        elements=["0", "1"],
        meet=["0", "1", "0", "1"],  # not commutative
        join=["0", "1", "1", "1"],
        connectives=[RawConnective("->", ("-", "+"), ["1", "1", "0", "1"])],
    )
    with pytest.raises(LatticeAxiomViolation) as exc:
        validate_lattice(raw)
    assert exc.value.details["law"] == "commutativity"


def test_no_unique_top_rejected():
    # two maximal elements: an antichain of two points plus bottom has no top
    raw = RawLattice(elements=["0", "a", "b"], covers=[("0", "a"), ("0", "b")])
    with pytest.raises(LatticeAxiomViolation):
        validate_lattice(raw)


# ---------------------------------------------------------------------------
# lattice text format


def test_parse_format_roundtrip(mc):
    text = format_lattice_source(mc)
    again = load_lattice(text)
    assert again.elements == mc.elements
    for name in ("&", "|", "->"):
        assert np.array_equal(again.tables[name], mc.tables[name])
    assert again.constants == mc.constants


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_lattice_source("elements 0 1\nconnective ->\n")  # polarity missing
    with pytest.raises(ParseError):
        parse_lattice_source("elements 0 1\nmeet\n0 0 0\n")  # table truncated
    with pytest.raises(ParseError):
        parse_lattice_source("elements 0 1\norder 0 << 1\n")


LATTICE_TOKENS = ["elements", "order", "meet", "join", "connective", "constant",
                  "0", "a", "b", "1", "<", "=", ",", "0<a", "->", "&", "|", "-+", "+-",
                  "++", "+", "-", "()", "#", "2", "300", "x"]


def _load_or_reject(text):
    """Parse and validate; a LatlogError is a rejection, anything else fails."""
    try:
        validate_lattice(parse_lattice_source(text))
    except LatlogError:
        pass


@given(st.lists(st.lists(st.sampled_from(LATTICE_TOKENS), max_size=8), max_size=10))
def test_token_lines_load_or_raise_latlog_errors(lines):
    _load_or_reject("\n".join(" ".join(line) for line in lines))


@given(st.sampled_from(sorted(BUNDLED)),
       st.lists(st.tuples(st.integers(0, 200), st.sampled_from(LATTICE_TOKENS + [""])),
                min_size=1, max_size=4))
def test_edited_bundled_sources_load_or_raise_latlog_errors(name, edits):
    """A bundled source with a few tokens replaced or deleted gets past the
    parser more often, so validation sees tables that break one law."""
    tokens = bundled_source(name).replace("\n", " \n ").split(" ")
    for position, token in edits:
        tokens[position % len(tokens)] = token
    _load_or_reject(" ".join(tokens))


# ---------------------------------------------------------------------------
# Kripke frames and up-set lattices


def test_fork_frame_gives_the_five_element_lattice(mc):
    lat = upset_lattice(FORK, "godel")
    assert lat.m == 5
    # match the bundled lattice structurally: order isomorphism by level
    # 0 < {b},{g} < {b,g} < {a,b,g}
    names = lat.elements
    assert names[0] == "0"
    sizes = [0, 1, 1, 2, 3]
    for name, size in zip(names, sizes):
        assert name == "0" or len(name) == size
    # implication table agrees with the bundled mc lattice up to renaming
    order = [0, 1, 2, 3, 4]
    for i in order:
        for j in order:
            assert bool(lat.leq[i, j]) == bool(mc.leq[i, j])
            assert lat.tables["->"][i, j] == mc.tables["->"][i, j]
    assert lat.constants == {"0": 0}


def test_one_world_frame_is_boolean_both_modes():
    frame = kripke_frame(("w",), [])
    for mode in ("godel", "heyting"):
        lat = upset_lattice(frame, mode)
        assert lat.m == 2
        assert lat.tables["->"].tolist() == [[1, 1], [0, 1]]


def test_heyting_and_godel_modes_disagree_on_the_fork():
    """Oracle: evaluate both implication definitions directly on the up-sets
    u = {b}, v = {}: the pseudo-complement collects the worlds whose successors
    avoid u or land in v (= {g}), the table form returns v (= {})."""
    worlds = ("a", "b", "g")
    order = {(x, x) for x in worlds} | {("a", "b"), ("a", "g")}
    u, v = frozenset({"b"}), frozenset()
    heyting = frozenset(
        w for w in worlds
        if all(w2 not in u or w2 in v for w2 in worlds if (w, w2) in order)
    )
    godel = frozenset(worlds) if u <= v else v
    assert heyting == frozenset({"g"})
    assert godel == frozenset()

    # and the builder reports exactly this disagreement
    found = [(d[0], d[1], d[2], d[3]) for d in implication_mode_disagreements(FORK)
             if d[0] == "b" and d[1] == "0"]
    assert found == [("b", "0", "g", "0")]

    heyt = upset_lattice(FORK, "heyting")
    godel_lat = upset_lattice(FORK, "godel")
    b, empty = heyt.index("b"), heyt.index("0")
    assert heyt.elements[int(heyt.tables["->"][b, empty])] == "g"
    assert godel_lat.elements[int(godel_lat.tables["->"][b, empty])] == "0"


def _all_posets(n):
    """Every partial order on n labelled points, as cover-pair lists."""
    worlds = [f"w{i}" for i in range(n)]
    pairs = [(a, b) for a in worlds for b in worlds if a != b]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {p for p, bit in zip(pairs, bits) if bit}
        # transitive?
        ok = all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c and a != d)
        if not ok:
            continue
        if any((b, a) in rel for (a, b) in rel):
            continue
        yield worlds, rel


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_upset_lattices_validate_for_all_small_posets(n):
    count = 0
    for worlds, rel in _all_posets(n):
        frame = kripke_frame(worlds, rel)
        for mode in ("godel", "heyting"):
            lat = upset_lattice(frame, mode)
            # upset_lattice runs validate_lattice internally; spot-check anyway
            assert lat.elements[lat.top]
        count += 1
    assert count >= 1


def test_frame_antisymmetry_enforced():
    with pytest.raises(FrameViolation):
        kripke_frame(("a", "b"), [("a", "b"), ("b", "a")])


# ---------------------------------------------------------------------------
# residuation


def test_diamond_not_residuated_with_full_case_analysis(diamond):
    report = derive_residuum(diamond)
    assert not report.residuated
    assert report.failing_pair == ("u1", "u2")
    assert [c.candidate for c in report.cases] == ["0", "u1", "u2", "1"]
    assert all(c.detail for c in report.cases)


def test_godel3_residuum_is_meet(godel3):
    """Oracle: brute-force re-check of the residuation law over all 27
    triples for the returned table, and the table is the meet."""
    report = derive_residuum(godel3)
    assert report.residuated
    els = godel3.elements
    table = {(a, b): report.table[i][j]
             for i, a in enumerate(els) for j, b in enumerate(els)}
    for a in els:
        for b in els:
            assert table[(a, b)] == els[meet_idx(godel3, godel3.index(a), godel3.index(b))]
    for x in els:
        for y in els:
            for z in els:
                lhs = leq_names(godel3, table[(x, y)], z)
                rhs = leq_names(godel3, x, els[imp_idx(godel3, godel3.index(y), godel3.index(z))])
                assert lhs == rhs, (x, y, z)


def test_classical_residuum_is_conjunction(classical):
    report = derive_residuum(classical)
    assert report.residuated
    assert report.table == [["0", "0"], ["0", "1"]]


def test_mc_implication_is_not_residuated(mc):
    """The table implication on the up-set lattice of the fork differs from
    the Heyting residual, and indeed no residuated product exists: at the
    incomparable pair every candidate value breaks the residuation law."""
    report = derive_residuum(mc)
    assert not report.residuated
    assert report.failing_pair == ("u1", "u2")
    assert [c.candidate for c in report.cases] == ["0", "u1", "u2", "w", "1"]


def test_heyting_fork_lattice_is_residuated():
    lat = upset_lattice(FORK, "heyting")
    report = derive_residuum(lat)
    assert report.residuated  # relative pseudo-complement residuates the meet
    for i, row in enumerate(report.table):
        for j, v in enumerate(row):
            assert lat.index(v) == meet_idx(lat, i, j)
