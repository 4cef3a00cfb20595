"""Finite lattice-oriented algebras.

A lattice here is a finite set of truth values carrying join/meet tables, an
implication table, optional extra connectives (each with a declared
monotonicity polarity per argument position) and optional named constants.
Validation is exhaustive: every axiom is checked over all tuples and every
failure is reported with a concrete witness.

The module also builds lattices of upward-closed subsets from finite Kripke
frames and analyses whether an implication table arises from a residuated
commutative monoid.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    FrameViolation,
    ImplicationLawViolation,
    LatlogError,
    LatticeAxiomViolation,
    MissingMandatoryConnective,
    ParseError,
    PolarityViolation,
    UnknownSymbolError,
)

JOIN, MEET, IMP = "|", "&", "->"
MAX_ELEMENTS = 256  # element indices, tables and validity grids are uint8

#: name, arity, polarity of the three connectives every lattice must carry
MANDATORY = (
    (JOIN, 2, ("+", "+")),
    (MEET, 2, ("+", "+")),
    (IMP, 2, ("-", "+")),
)


@dataclass(frozen=True)
class Connective:
    name: str
    arity: int
    polarity: tuple[str, ...]


@dataclass(frozen=True)
class PolaritySignature:
    """Connective names with arities and per-argument polarities.
    ``by_name`` maps each name to its connective (the first one declared
    under a name that ``check`` rejects as a duplicate); it is read-only."""

    connectives: tuple[Connective, ...]
    by_name: Mapping[str, Connective] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_name: dict[str, Connective] = {}
        for c in self.connectives:
            by_name.setdefault(c.name, c)
        object.__setattr__(self, "by_name", MappingProxyType(by_name))

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.connectives)

    def get(self, name: str) -> Connective | None:
        return self.by_name.get(name)

    def __reduce__(self):  # the read-only map does not pickle; rebuild it
        return PolaritySignature, (self.connectives,)

    def check(self) -> None:
        names = [c.name for c in self.connectives]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise LatticeAxiomViolation(f"duplicate connective names: {dup}", names=dup)
        for c in self.connectives:
            if len(c.polarity) != c.arity:
                raise LatticeAxiomViolation(
                    f"polarity vector of {c.name} has length {len(c.polarity)}, arity is {c.arity}",
                    connective=c.name,
                )
            if any(p not in "+-" for p in c.polarity):
                raise LatticeAxiomViolation(f"bad polarity entry for {c.name}", connective=c.name)
        for name, arity, pol in MANDATORY:
            got = self.get(name)
            if got is None:
                raise MissingMandatoryConnective(f"connective {name!r} is missing", connective=name)
            if got.arity != arity or got.polarity != pol:
                raise MissingMandatoryConnective(
                    f"connective {name!r} must be binary with polarity {''.join(pol)}",
                    connective=name,
                )


def _checked_signature(extras: tuple[Connective, ...]) -> PolaritySignature:
    base = tuple(Connective(n, a, p) for n, a, p in MANDATORY)
    sig = PolaritySignature(base + tuple(extras))
    sig.check()
    return sig


_DEFAULT_SIGNATURE = _checked_signature(())


def default_signature(extras: tuple[Connective, ...] = ()) -> PolaritySignature:
    """The mandatory connectives followed by ``extras``, checked.  Without
    extras this is one shared signature, built and checked at import; it is
    frozen and its map read-only, so no caller can change it for others."""
    return _checked_signature(extras) if extras else _DEFAULT_SIGNATURE


@dataclass
class RawConnective:
    name: str
    polarity: tuple[str, ...]
    values: list[str]  # flattened, lexicographic over argument index tuples


@dataclass
class RawLattice:
    """Unvalidated lattice description as read from a file or built in code."""

    elements: list[str]
    covers: list[tuple[str, str]] | None = None
    meet: list[str] | None = None  # flattened m*m tables
    join: list[str] | None = None
    connectives: list[RawConnective] = field(default_factory=list)
    constants: dict[str, str] = field(default_factory=dict)


@dataclass(eq=False)
class Lattice:
    """A validated algebra.  Treat its fields as immutable.

    Two caches grow on first use without a lock: ``flat`` fills ``_flat``,
    and ``derived`` holds tables other modules build.  Among them are the
    tables of ``propcore.column_of``'s packed columns, padded to 256 bytes
    (None where some table has more entries), the closure's stacked
    connective tables, the values of the closed words
    (``propcore.constant_values``), the shared closure ladders of
    interpolant searches (see the ``propcore`` module docstring), one per
    shared-variable list searched over and never dropped, and the
    ``relations.BinaryInvariants``,
    whose ``relations``, ``_by_mask`` and ``_grids`` grow lazily.  The padded tables are built
    whole and stored once, so two threads racing there only build them
    twice, but the ladders and invariants grow in place.  So one lattice
    may be shared between processes, each with its own copy, but not
    between threads that run queries at the same time; give each thread
    its own lattice, or lock around its use."""

    elements: tuple[str, ...]
    signature: PolaritySignature
    tables: dict[str, np.ndarray]
    constants: dict[str, int]
    leq: np.ndarray
    top: int
    bottom: int

    def __post_init__(self):
        self._flat: dict[str, np.ndarray] = {}
        self._index = {e: i for i, e in enumerate(self.elements)}
        # tables other modules derive from this algebra, built on first use
        self.derived: dict[str, object] = {}

    @property
    def m(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown element {name!r}", element=name) from None

    def flat(self, conn: str) -> np.ndarray:
        """Connective table flattened to 1-D uint8 (row-major), cached."""
        arr = self._flat.get(conn)
        if arr is None:
            arr = self.tables[conn].reshape(-1).astype(np.uint8)
            self._flat[conn] = arr
        return arr

    def with_constants(self, added: dict[str, str]) -> "Lattice":
        """Same algebra with extra named constants (names must be fresh)."""
        consts = dict(self.constants)
        for name, elt in added.items():
            if name in consts:
                raise LatticeAxiomViolation(f"constant {name!r} already declared", constant=name)
            consts[name] = self.index(elt)
        return Lattice(self.elements, self.signature, self.tables, consts, self.leq, self.top,
                       self.bottom)


def _first_mismatch(bad: np.ndarray) -> tuple[int, ...]:
    where = np.argwhere(bad)
    return tuple(int(x) for x in where[0])


def _check_semilattice(name: str, t: np.ndarray, elements: tuple[str, ...]) -> None:
    m = len(elements)
    idx = np.arange(m)
    if not np.array_equal(t, t.T):
        i, j = _first_mismatch(t != t.T)
        raise LatticeAxiomViolation(
            f"{name} is not commutative at ({elements[i]}, {elements[j]})",
            law="commutativity", table=name, witness=(elements[i], elements[j]),
        )
    if not np.array_equal(np.diagonal(t), idx):
        i = int(np.nonzero(np.diagonal(t) != idx)[0][0])
        raise LatticeAxiomViolation(
            f"{name} is not idempotent at {elements[i]}",
            law="idempotence", table=name, witness=(elements[i],),
        )
    left = t[t, :]  # left[x,y,z] = t[t[x,y], z]
    right = t[idx[:, None, None], t[None, :, :]]  # right[x,y,z] = t[x, t[y,z]]
    if not np.array_equal(left, right):
        i, j, k = _first_mismatch(left != right)
        raise LatticeAxiomViolation(
            f"{name} is not associative at ({elements[i]}, {elements[j]}, {elements[k]})",
            law="associativity", table=name, witness=(elements[i], elements[j], elements[k]),
        )


def _close_order(n: int, pairs: list[tuple[int, int]]) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The reflexive and transitive closure of the index pairs (a, b), read
    a <= b, as a boolean matrix ``below[a, b]``, and the first pair (i, j)
    of distinct points below each other, in declaration order (i, then j),
    or None when the closure is antisymmetric."""
    below = np.eye(n, dtype=bool)
    for a, b in pairs:
        below[a, b] = True
    for k in range(n):
        below |= below[:, k, None] & below[k]
    both = below & below.T & ~np.eye(n, dtype=bool)
    return below, (_first_mismatch(both) if both.any() else None)


def _principal(sets: np.ndarray, below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each boolean row of ``sets`` over the points of the order
    ``below``, the point p whose up-set ``below[p]`` is that row, and whether
    there is one.  Such a p lies in the row and has the largest up-set of
    its points, since every other point of the row is above it."""
    p = np.where(sets, below.sum(axis=1), -1).argmax(axis=-1)
    return p, (below[p] == sets).all(axis=-1)


def _greatest_lower_bounds(below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table of greatest lower bounds of the order ``below`` (its meet;
    on the transpose, its join), and where they exist.  Row i holds the
    bounds of i with every j: the points whose down-set is the set of
    points below both."""
    above = below.T
    table, ok = zip(*(_principal(above[i] & above, above) for i in range(len(below))))
    return np.array(table), np.array(ok)


def validate_lattice(raw: RawLattice) -> Lattice:
    """Check every algebra axiom exhaustively and return the validated lattice.

    Raises with a witness tuple on the first failure: semilattice laws and
    absorption for join/meet, existence of a unique greatest element,
    monotonicity/antitonicity of every connective per its declared polarity,
    and the implication law (top <= a->b iff a <= b).
    """
    elements = tuple(raw.elements)
    if not elements:
        raise LatticeAxiomViolation("no elements declared")
    if len(set(elements)) != len(elements):
        raise LatticeAxiomViolation("duplicate element names", elements=elements)
    m = len(elements)
    if m > MAX_ELEMENTS:  # not an axiom violation: an input this tool does not support
        raise LatlogError(f"{m} elements declared; at most {MAX_ELEMENTS} are supported",
                          elements=m)
    index = {e: i for i, e in enumerate(elements)}

    def to_index(name: str, where: str) -> int:
        if name not in index:
            raise UnknownSymbolError(f"unknown element {name!r} in {where}", element=name)
        return index[name]

    tables: dict[str, np.ndarray] = {}
    polarities: dict[str, tuple[str, ...]] = {}

    def install(name: str, polarity: tuple[str, ...], values: list[str], where: str) -> None:
        if name in tables:
            raise LatticeAxiomViolation(f"table for {name!r} given twice", connective=name)
        arity = len(polarity)
        need = m ** arity
        if len(values) != need:
            raise LatticeAxiomViolation(
                f"table for {name!r} has {len(values)} entries, expected {need}",
                connective=name,
            )
        arr = np.array([to_index(v, where) for v in values], dtype=np.uint8)
        tables[name] = arr.reshape((m,) * arity)
        polarities[name] = polarity

    if raw.covers is not None and (raw.meet is not None or raw.join is not None):
        raise LatticeAxiomViolation("give either an order section or explicit meet/join tables, not both")
    if raw.covers is not None:
        below, cycle = _close_order(m, [(to_index(a, "order"), to_index(b, "order"))
                                        for a, b in raw.covers])
        if cycle is not None:
            i, j = cycle
            raise LatticeAxiomViolation(
                f"declared order is not antisymmetric: {elements[i]} and {elements[j]}",
                witness=(elements[i], elements[j]),
            )
        meet_t, has_meet = _greatest_lower_bounds(below)
        join_t, has_join = _greatest_lower_bounds(below.T)
        if not (has_meet & has_join).all():
            i, j = _first_mismatch(~(has_meet & has_join))
            raise LatticeAxiomViolation(
                f"order has no {'join' if has_meet[i, j] else 'meet'} for ({elements[i]}, {elements[j]})",
                witness=(elements[i], elements[j]),
            )
        tables[MEET] = meet_t.astype(np.uint8)
        tables[JOIN] = join_t.astype(np.uint8)
        polarities[MEET] = ("+", "+")
        polarities[JOIN] = ("+", "+")
    if raw.meet is not None:
        install(MEET, ("+", "+"), raw.meet, "meet")
    if raw.join is not None:
        install(JOIN, ("+", "+"), raw.join, "join")
    for rc in raw.connectives:
        expected = dict((n, p) for n, _, p in MANDATORY)
        pol = tuple(rc.polarity)
        if rc.name in expected and pol != expected[rc.name]:
            raise MissingMandatoryConnective(
                f"connective {rc.name!r} must have polarity {''.join(expected[rc.name])}",
                connective=rc.name,
            )
        install(rc.name, pol, rc.values, f"connective {rc.name}")

    for name, _, _ in MANDATORY:
        if name not in tables:
            raise MissingMandatoryConnective(f"connective {name!r} is missing", connective=name)

    signature = PolaritySignature(
        tuple(Connective(n, len(p), p) for n, p in polarities.items())
    )
    signature.check()

    _check_semilattice("meet", tables[MEET], elements)
    _check_semilattice("join", tables[JOIN], elements)
    idx = np.arange(m)
    absorb1 = tables[MEET][idx[:, None], tables[JOIN]]  # x & (x | y)
    if not np.array_equal(absorb1, np.broadcast_to(idx[:, None], (m, m))):
        i, j = _first_mismatch(absorb1 != idx[:, None])
        raise LatticeAxiomViolation(
            f"absorption x & (x | y) = x fails at ({elements[i]}, {elements[j]})",
            law="absorption", witness=(elements[i], elements[j]),
        )
    absorb2 = tables[JOIN][idx[:, None], tables[MEET]]  # x | (x & y)
    if not np.array_equal(absorb2, np.broadcast_to(idx[:, None], (m, m))):
        i, j = _first_mismatch(absorb2 != idx[:, None])
        raise LatticeAxiomViolation(
            f"absorption x | (x & y) = x fails at ({elements[i]}, {elements[j]})",
            law="absorption", witness=(elements[i], elements[j]),
        )

    leq = tables[MEET] == idx[:, None]  # leq[x, y] iff x & y = x
    tops = np.nonzero(leq.all(axis=0))[0]
    if len(tops) != 1:
        raise LatticeAxiomViolation(
            "the order has no unique greatest element",
            candidates=[elements[int(t)] for t in tops],
        )
    top = int(tops[0])
    bottom = int(np.flatnonzero(leq.all(axis=1))[0])  # the meet of all elements

    strictly_above = [np.flatnonzero(row) for row in leq & ~np.eye(m, dtype=bool)]
    for name, pol in polarities.items():
        t = tables[name]
        arity = len(pol)
        for pos in range(arity):
            moved = np.moveaxis(t, pos, 0).reshape(m, -1)
            for a, above in enumerate(strictly_above):
                # ok[k, r]: the values at a and at above[k] are ordered as pol[pos] says
                if pol[pos] == "+":
                    ok = leq[moved[a], moved[above]]
                else:
                    ok = leq[moved[above], moved[a]]
                if ok.all():
                    continue
                k, r = _first_mismatch(~ok)
                b = int(above[k])
                rest = tuple(int(x) for x in np.unravel_index(r, (m,) * (arity - 1)))
                witness = tuple(elements[x] for x in rest[:pos]) + (
                    elements[a] + "<=" + elements[b],) + tuple(elements[x] for x in rest[pos:])
                kind = "monotone" if pol[pos] == "+" else "antitone"
                raise PolarityViolation(
                    f"connective {name!r} is not {kind} in argument {pos + 1} "
                    f"for {elements[a]} <= {elements[b]} at {witness}",
                    connective=name, position=pos + 1,
                    pair=(elements[a], elements[b]), arguments=witness,
                )

    imp_valid = tables[IMP] == top
    if not np.array_equal(imp_valid, leq):
        i, j = _first_mismatch(imp_valid != leq)
        if leq[i, j]:
            msg = (f"{elements[i]} <= {elements[j]} but "
                   f"{elements[i]} -> {elements[j]} is not the top element")
        else:
            msg = (f"{elements[i]} -> {elements[j]} is the top element but "
                   f"{elements[i]} is not <= {elements[j]}")
        raise ImplicationLawViolation(msg, witness=(elements[i], elements[j]))

    constants = {}
    for cname, elt in raw.constants.items():
        if cname in constants:
            raise LatticeAxiomViolation(f"constant {cname!r} declared twice", constant=cname)
        constants[cname] = to_index(elt, f"constant {cname}")

    return Lattice(elements, signature, tables, constants, leq, top, bottom)


# ---------------------------------------------------------------------------
# lattice text format


def _order_entries(toks: list[str], ln_no: int) -> list[tuple[str, str]]:
    """The pairs (a, b) of an ``order a < b, c < d`` line, given its tokens
    after ``order``."""
    pairs = []
    for part in " ".join(toks).split(","):
        bits = part.split()
        if len(bits) != 3 or bits[1] != "<":
            raise ParseError(f"bad order entry {part.strip()!r}", line=ln_no)
        pairs.append((bits[0], bits[2]))
    return pairs


def parse_lattice_source(text: str) -> RawLattice:
    """Parse the lattice text format.

    Sections: ``elements`` (ordered names), ``order a < b`` covering pairs or
    ``meet``/``join`` tables, ``connective <name> <polarities>`` followed by
    m^arity values in lexicographic order of argument tuples, and
    ``constant <name> = <element>``.  ``#`` starts a comment.
    """
    lines = []
    for ln_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            lines.append((ln_no, body.split()))

    raw = RawLattice(elements=[])
    covers: list[tuple[str, str]] = []
    i = 0

    def take_values(count: int, what: str) -> list[str]:
        nonlocal i
        vals: list[str] = []
        while len(vals) < count:
            if i >= len(lines):
                raise ParseError(f"unexpected end of file while reading {what}", section=what)
            _, toks = lines[i]
            if toks[0] in ("elements", "order", "meet", "join", "connective", "constant"):
                raise ParseError(
                    f"section {what} has {len(vals)} values, expected {count}", section=what
                )
            vals.extend(toks)
            i += 1
        if len(vals) != count:
            raise ParseError(f"section {what} has too many values on one line", section=what)
        return vals

    while i < len(lines):
        ln_no, toks = lines[i]
        head = toks[0]
        i += 1
        if head == "elements":
            if raw.elements:
                raise ParseError("elements declared twice", line=ln_no)
            raw.elements = toks[1:]
        elif head == "order":
            covers.extend(_order_entries(toks[1:], ln_no))
        elif head in ("meet", "join"):
            if not raw.elements:
                raise ParseError(f"{head} section before elements", line=ln_no)
            m = len(raw.elements)
            vals = take_values(m * m, head)
            setattr(raw, head, vals)
        elif head == "connective":
            if not raw.elements:
                raise ParseError("connective section before elements", line=ln_no)
            if len(toks) != 3:
                raise ParseError("connective line needs a name and a polarity string", line=ln_no)
            name, pol = toks[1], toks[2]
            if pol == "()":
                polarity: tuple[str, ...] = ()
            else:
                polarity = tuple(pol)
            m = len(raw.elements)
            vals = take_values(m ** len(polarity), f"connective {name}")
            raw.connectives.append(RawConnective(name, polarity, vals))
        elif head == "constant":
            if len(toks) != 4 or toks[2] != "=":
                raise ParseError("constant line must read: constant <name> = <element>", line=ln_no)
            if toks[1] in raw.constants:
                raise ParseError(f"constant {toks[1]!r} declared twice", line=ln_no)
            raw.constants[toks[1]] = toks[3]
        else:
            raise ParseError(f"unknown section {head!r}", line=ln_no)

    if covers:
        raw.covers = covers
    return raw


def load_lattice(text: str) -> Lattice:
    return validate_lattice(parse_lattice_source(text))


def format_lattice_source(lat: Lattice) -> str:
    """Emit a lattice back in the text format (meet/join written explicitly)."""
    out = ["elements " + " ".join(lat.elements)]
    for name, keyword in ((MEET, "meet"), (JOIN, "join")):
        out.append(keyword)
        t = lat.tables[name]
        for row in t:
            out.append(" ".join(lat.elements[int(v)] for v in row))
    for conn in lat.signature.connectives:
        if conn.name in (MEET, JOIN):
            continue
        pol = "".join(conn.polarity) if conn.arity else "()"
        out.append(f"connective {conn.name} {pol}")
        flat = lat.tables[conn.name].reshape(-1)
        m = lat.m
        per_line = m if conn.arity else 1
        for start in range(0, len(flat), per_line):
            out.append(" ".join(lat.elements[int(v)] for v in flat[start:start + per_line]))
    for cname, idx in lat.constants.items():
        out.append(f"constant {cname} = {lat.elements[idx]}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Kripke frames and up-set lattices


@dataclass(frozen=True)
class KripkeFrame:
    worlds: tuple[str, ...]
    order: frozenset[tuple[str, str]]  # full reflexive-transitive relation


def kripke_frame(worlds, pairs) -> KripkeFrame:
    """Build a frame from covering pairs; closes reflexively and transitively,
    then checks antisymmetry exhaustively."""
    worlds = tuple(worlds)
    if len(set(worlds)) != len(worlds) or not worlds:
        raise FrameViolation("worlds must be a non-empty list of distinct names")
    index = {w: i for i, w in enumerate(worlds)}
    index_pairs = []
    for a, b in pairs:
        if a not in index or b not in index:
            raise FrameViolation(f"unknown world in order pair ({a}, {b})")
        index_pairs.append((index[a], index[b]))
    below, cycle = _close_order(len(worlds), index_pairs)
    if cycle is not None:
        a, b = (worlds[i] for i in cycle)
        raise FrameViolation(f"order is not antisymmetric: {a} and {b}", witness=(a, b))
    return KripkeFrame(worlds, frozenset((worlds[i], worlds[j]) for i, j in np.argwhere(below)))


def parse_frame_source(text: str) -> KripkeFrame:
    worlds: list[str] = []
    pairs: list[tuple[str, str]] = []
    for ln_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        toks = body.split()
        if toks[0] == "worlds":
            worlds.extend(toks[1:])
        elif toks[0] == "order":
            pairs.extend(_order_entries(toks[1:], ln_no))
        else:
            raise ParseError(f"unknown frame section {toks[0]!r}", line=ln_no)
    return kripke_frame(worlds, pairs)


def _upsets(frame: KripkeFrame) -> list[frozenset]:
    """The up-sets of the frame, sorted by size, then by their sorted world
    names.  They are built as unions of principal up-sets, one world at a
    time, and more than MAX_ELEMENTS of them is an input error."""
    bit = {w: 1 << i for i, w in enumerate(frame.worlds)}
    principal = dict.fromkeys(frame.worlds, 0)
    for a, b in frame.order:
        principal[a] |= bit[b]
    masks = {0}
    for up in principal.values():
        masks |= {s | up for s in masks}
        if len(masks) > MAX_ELEMENTS:
            raise LatlogError(f"the frame has more than {MAX_ELEMENTS} up-sets; at most "
                              f"{MAX_ELEMENTS} elements are supported", worlds=len(frame.worlds))
    ups = [frozenset(w for w in frame.worlds if s & bit[w]) for s in masks]
    ups.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return ups


def _upset_names(frame: KripkeFrame, ups: list[frozenset]) -> list[str]:
    single = all(len(w) == 1 for w in frame.worlds)
    names = []
    for s in ups:
        if not s:
            names.append("0")
        else:
            names.append(("" if single else "_").join(sorted(s)))
    if len(set(names)) != len(names):
        names = [f"u{i}" for i in range(len(ups))]
    return names


def _upset_tables(frame: KripkeFrame) -> tuple[list[str], dict[str, np.ndarray]]:
    """The names of the frame's up-sets, and index tables over them: meet and
    join (intersection and union) and the ``godel`` and ``heyting``
    implications."""
    ups = _upsets(frame)
    n = len(ups)
    member = np.array([[w in s for w in frame.worlds] for s in ups])
    sub = (member[:, None] <= member).all(axis=2)  # sub[u, v]: u is contained in v
    meet, _ = _greatest_lower_bounds(sub)
    join, _ = _greatest_lower_bounds(sub.T)
    # u -> v is the greatest z with z & u contained in v: the point whose
    # down-set is the set of those z
    heyting = np.array([_principal(sub[meet[:, u]].T, sub.T)[0] for u in range(n)])
    godel = np.where(sub, n - 1, np.arange(n))  # the full up-set is the last
    return _upset_names(frame, ups), {MEET: meet, JOIN: join, "godel": godel, "heyting": heyting}


def upset_lattice(frame: KripkeFrame, implication_mode: str = "godel") -> Lattice:
    """Lattice of upward-closed subsets of a frame, ordered by inclusion.

    Join and meet are union and intersection.  The implication is selected by
    ``implication_mode``: ``heyting`` takes the relative pseudo-complement,
    ``godel`` maps (u, v) to the top element when u is contained in v and to
    v otherwise (the Goedel implication read over inclusion).  The two
    disagree on some frames; see ``implication_mode_disagreements``.  A
    constant named ``0`` denotes the empty up-set.  The result passes
    ``validate_lattice``.  A frame with more than MAX_ELEMENTS up-sets is an
    input error.
    """
    if implication_mode not in ("godel", "heyting"):
        raise FrameViolation(f"unknown implication mode {implication_mode!r}")
    names, tables = _upset_tables(frame)

    def values(t: np.ndarray) -> list[str]:
        return [names[i] for i in t.ravel().tolist()]

    raw = RawLattice(
        elements=names,
        join=values(tables[JOIN]),
        meet=values(tables[MEET]),
        connectives=[RawConnective(IMP, ("-", "+"), values(tables[implication_mode]))],
        constants={"0": names[0]},  # the empty up-set comes first
    )
    return validate_lattice(raw)


def implication_mode_disagreements(frame: KripkeFrame) -> list[tuple[str, str, str, str]]:
    """Up-set pairs where the two implication modes differ, with both results
    as (u, v, heyting result, godel result)."""
    names, tables = _upset_tables(frame)
    heyt, godel = tables["heyting"], tables["godel"]
    return [(names[u], names[v], names[heyt[u, v]], names[godel[u, v]])
            for u, v in np.argwhere(heyt != godel)]


# ---------------------------------------------------------------------------
# residuation


@dataclass(frozen=True)
class ResiduumCase:
    candidate: str
    law: str
    detail: str


@dataclass
class ResiduumReport:
    residuated: bool
    table: list[list[str]] | None = None
    failing_pair: tuple[str, str] | None = None
    cases: list[ResiduumCase] = field(default_factory=list)
    law_violation: dict | None = None


def derive_residuum(lat: Lattice) -> ResiduumReport:
    """Try to recover a commutative monoid operation & with unit top such that
    x & y <= z iff x <= y -> z.

    Residuation forces x & y to be the least z with x <= y -> z; the search
    therefore checks, for every pair, whether any candidate value survives the
    residuation law (both orders, by commutativity).  A survivor also meets
    the bound x & y <= x meet y that monotonicity with the unit forces: it
    lies below y because x <= y -> y, the top, and below x likewise.  If
    some pair eliminates every candidate the report carries the full case
    analysis; otherwise the pinned table is checked for associativity.
    """
    m = lat.m
    els = lat.elements
    leq = lat.leq
    imp = lat.tables[IMP]
    texts = {  # (law, whether a <= b -> z holds): the detail of a candidate v refuted at z
        ("residuation", True): "{a} <= {b} -> {z} = {i} forces {a} & {b} <= {z}, but {v} <= {z} fails",
        ("residuation", False): "{v} <= {z} would force {a} <= {b} -> {z} = {i}, which fails",
        ("commutativity", True): "by commutativity {a} & {b} = {v}, and {a} <= {b} -> {z} "
                                 "forces it <= {z}, but {v} <= {z} fails",
        ("commutativity", False): "{v} <= {z} would force {a} <= {b} -> {z}, which fails",
    }

    def case_analysis(x: int, y: int) -> list[ResiduumCase]:
        cases = []
        for v in range(m):
            # x & y = v must have the up-set {z : x <= y -> z}, and y & x = v {z : y <= x -> z}
            for law, a, b in (("residuation", x, y), ("commutativity", y, x)):
                need = leq[a, imp[b]]
                wrong = np.flatnonzero(leq[v] != need)
                if len(wrong):
                    z = int(wrong[0])
                    cases.append(ResiduumCase(els[v], law, texts[law, bool(need[z])].format(
                        a=els[a], b=els[b], v=els[v], z=els[z], i=els[int(imp[b, z])])))
                    break
        return cases

    # x & y is the element whose up-set is {z : x <= y -> z}, and it must also be y & x
    table = np.zeros((m, m), dtype=np.int32)
    for x in range(m):
        need = leq[x, imp]  # need[y, z]: x <= y -> z
        row, found = _principal(need, leq)
        ok = found & (leq[:, imp[x]] == need).all(axis=1)
        if not ok.all():
            y = int(np.flatnonzero(~ok)[0])
            return ResiduumReport(
                residuated=False,
                failing_pair=(els[x], els[y]),
                cases=case_analysis(x, y),
            )
        table[x] = row

    # the survivor conditions pin commutativity, unit and the residuation law;
    # associativity still needs an exhaustive sweep
    idx = np.arange(m)
    left = table[table, :]
    right = table[idx[:, None, None], table[None, :, :]]
    if not np.array_equal(left, right):
        i, j, k = _first_mismatch(left != right)
        return ResiduumReport(
            residuated=False,
            failing_pair=(els[i], els[j]),
            law_violation={
                "law": "associativity",
                "witness": (els[i], els[j], els[k]),
                "left": els[int(left[i, j, k])],
                "right": els[int(right[i, j, k])],
            },
        )
    assert np.array_equal(table, table.T)
    assert np.array_equal(table[lat.top], idx) and np.array_equal(table[:, lat.top], idx)
    return ResiduumReport(
        residuated=True,
        table=[[els[int(table[i, j])] for j in range(m)] for i in range(m)],
    )
