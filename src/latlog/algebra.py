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

import itertools
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


def _decode_index(flat_index: int, m: int, arity: int) -> tuple[int, ...]:
    out = []
    for _ in range(arity):
        out.append(flat_index % m)
        flat_index //= m
    return tuple(reversed(out))


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


def _transitive_closure(rel: np.ndarray) -> np.ndarray:
    out = rel.copy()
    m = out.shape[0]
    for k in range(m):
        out |= out[:, k][:, None] & out[k, :][None, :]
    return out


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
        rel = np.eye(m, dtype=bool)
        for a, b in raw.covers:
            rel[to_index(a, "order"), to_index(b, "order")] = True
        rel = _transitive_closure(rel)
        if ((rel & rel.T) & ~np.eye(m, dtype=bool)).any():
            i, j = _first_mismatch((rel & rel.T) & ~np.eye(m, dtype=bool))
            raise LatticeAxiomViolation(
                f"declared order is not antisymmetric: {elements[i]} and {elements[j]}",
                witness=(elements[i], elements[j]),
            )
        meet_t = np.zeros((m, m), dtype=np.uint8)
        join_t = np.zeros((m, m), dtype=np.uint8)
        for i in range(m):
            for j in range(m):
                lower = [k for k in range(m) if rel[k, i] and rel[k, j]]
                greatest = [k for k in lower if all(rel[l, k] for l in lower)]
                if len(greatest) != 1:
                    raise LatticeAxiomViolation(
                        f"order has no meet for ({elements[i]}, {elements[j]})",
                        witness=(elements[i], elements[j]),
                    )
                meet_t[i, j] = greatest[0]
                upper = [k for k in range(m) if rel[i, k] and rel[j, k]]
                least = [k for k in upper if all(rel[k, l] for l in upper)]
                if len(least) != 1:
                    raise LatticeAxiomViolation(
                        f"order has no join for ({elements[i]}, {elements[j]})",
                        witness=(elements[i], elements[j]),
                    )
                join_t[i, j] = least[0]
        tables[MEET] = meet_t
        tables[JOIN] = join_t
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

    leq_flat = leq.reshape(-1)
    for name, pol in polarities.items():
        t = tables[name]
        arity = len(pol)
        for pos in range(arity):
            moved = np.moveaxis(t, pos, 0).reshape(m, -1).astype(np.int32)
            for a in range(m):
                for b in range(m):
                    if a == b or not leq[a, b]:
                        continue
                    lo, hi = (a, b) if pol[pos] == "+" else (b, a)
                    ok = leq_flat[moved[lo] * m + moved[hi]]
                    if not ok.all():
                        rest = _decode_index(int(np.nonzero(~ok)[0][0]), m, arity - 1)
                        args = rest[:pos] + (None,) + rest[pos:]
                        witness = tuple(
                            elements[a] + "<=" + elements[b] if x is None else elements[x]
                            for x in args
                        )
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
    wset = set(worlds)
    rel = {(w, w) for w in worlds}
    for a, b in pairs:
        if a not in wset or b not in wset:
            raise FrameViolation(f"unknown world in order pair ({a}, {b})")
        rel.add((a, b))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    for a, b in rel:
        if a != b and (b, a) in rel:
            raise FrameViolation(f"order is not antisymmetric: {a} and {b}", witness=(a, b))
    return KripkeFrame(worlds, frozenset(rel))


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
    ups = []
    for bits in itertools.product((False, True), repeat=len(frame.worlds)):
        s = frozenset(w for w, b in zip(frame.worlds, bits) if b)
        if all((a, b) not in frame.order or b in s for a in s for b in frame.worlds):
            ups.append(s)
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


def _heyting_arrow(frame: KripkeFrame, u: frozenset, v: frozenset) -> frozenset:
    return frozenset(
        w for w in frame.worlds
        if all(w2 not in u or w2 in v for w2 in frame.worlds if (w, w2) in frame.order)
    )


def upset_lattice(frame: KripkeFrame, implication_mode: str = "godel") -> Lattice:
    """Lattice of upward-closed subsets of a frame, ordered by inclusion.

    Join and meet are union and intersection.  The implication is selected by
    ``implication_mode``: ``heyting`` takes the relative pseudo-complement,
    ``godel`` maps (u, v) to the top element when u is contained in v and to
    v otherwise (the Goedel implication read over inclusion).  The two
    disagree on some frames; see ``implication_mode_disagreements``.  A
    constant named ``0`` denotes the empty up-set.  The result passes
    ``validate_lattice``.
    """
    if implication_mode not in ("godel", "heyting"):
        raise FrameViolation(f"unknown implication mode {implication_mode!r}")
    ups = _upsets(frame)
    names = _upset_names(frame, ups)
    pos = {s: i for i, s in enumerate(ups)}
    full = frozenset(frame.worlds)

    def arrow(u: frozenset, v: frozenset) -> frozenset:
        if implication_mode == "godel":
            return full if u <= v else v
        return _heyting_arrow(frame, u, v)

    join_vals, meet_vals, imp_vals = [], [], []
    for u in ups:
        for v in ups:
            join_vals.append(names[pos[u | v]])
            meet_vals.append(names[pos[u & v]])
            imp_vals.append(names[pos[arrow(u, v)]])
    raw = RawLattice(
        elements=names,
        join=join_vals,
        meet=meet_vals,
        connectives=[RawConnective(IMP, ("-", "+"), imp_vals)],
        constants={"0": names[pos[frozenset()]]},
    )
    return validate_lattice(raw)


def implication_mode_disagreements(frame: KripkeFrame) -> list[tuple[str, str, str, str]]:
    """Up-set pairs where the two implication modes differ, with both results
    as (u, v, heyting result, godel result)."""
    ups = _upsets(frame)
    names = _upset_names(frame, ups)
    pos = {s: i for i, s in enumerate(ups)}
    full = frozenset(frame.worlds)
    out = []
    for u in ups:
        for v in ups:
            godel = full if u <= v else v
            heyt = _heyting_arrow(frame, u, v)
            if godel != heyt:
                out.append((names[pos[u]], names[pos[v]], names[pos[heyt]], names[pos[godel]]))
    return out


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
    residuation law (both orders, by commutativity) and the bound forced by
    monotonicity with the unit.  If some pair eliminates every candidate the
    report carries the full case analysis; otherwise the pinned table is
    checked for associativity and the residuation law over all triples.
    """
    m = lat.m
    els = lat.elements
    leq = lat.leq
    imp = lat.tables[IMP]
    meet = lat.tables[MEET]

    def case_analysis(x: int, y: int) -> list[ResiduumCase]:
        cases = []
        need_xy = leq[x, imp[y]]  # need_xy[z]: x <= y -> z
        need_yx = leq[y, imp[x]]
        for v in range(m):
            reason = None
            for z in range(m):
                if bool(leq[v, z]) != bool(need_xy[z]):
                    if need_xy[z]:
                        reason = ResiduumCase(
                            els[v], "residuation",
                            f"{els[x]} <= {els[y]} -> {els[z]} = {els[int(imp[y, z])]} "
                            f"forces {els[x]} & {els[y]} <= {els[z]}, but {els[v]} <= {els[z]} fails",
                        )
                    else:
                        reason = ResiduumCase(
                            els[v], "residuation",
                            f"{els[v]} <= {els[z]} would force {els[x]} <= {els[y]} -> {els[z]} "
                            f"= {els[int(imp[y, z])]}, which fails",
                        )
                    break
            if reason is None:
                for z in range(m):
                    if bool(leq[v, z]) != bool(need_yx[z]):
                        if need_yx[z]:
                            reason = ResiduumCase(
                                els[v], "commutativity",
                                f"by commutativity {els[y]} & {els[x]} = {els[v]}, and "
                                f"{els[y]} <= {els[x]} -> {els[z]} forces it <= {els[z]}, "
                                f"but {els[v]} <= {els[z]} fails",
                            )
                        else:
                            reason = ResiduumCase(
                                els[v], "commutativity",
                                f"{els[v]} <= {els[z]} would force {els[y]} <= {els[x]} -> {els[z]}, which fails",
                            )
                        break
            if reason is None and not leq[v, meet[x, y]]:
                reason = ResiduumCase(
                    els[v], "unit_monotonicity",
                    f"{els[y]} <= {els[lat.top]} and x & {els[lat.top]} = x force "
                    f"{els[x]} & {els[y]} <= {els[x]} meet {els[y]} = {els[int(meet[x, y])]}, "
                    f"but {els[v]} is not below it",
                )
            if reason is not None:
                cases.append(reason)
        return cases

    table = np.zeros((m, m), dtype=np.int32)
    for x in range(m):
        for y in range(m):
            need_xy = leq[x, imp[y]]
            need_yx = leq[y, imp[x]]
            survivor = None
            for v in range(m):
                if (np.array_equal(leq[v], need_xy)
                        and np.array_equal(leq[v], need_yx)
                        and leq[v, meet[x, y]]):
                    survivor = v
                    break
            if survivor is None:
                return ResiduumReport(
                    residuated=False,
                    failing_pair=(els[x], els[y]),
                    cases=case_analysis(x, y),
                )
            table[x, y] = survivor

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
    for x in range(m):
        for y in range(m):
            assert np.array_equal(leq[table[x, y]], leq[x, imp[y]])
            assert table[x, y] == table[y, x]
    assert np.array_equal(table[lat.top], idx) and np.array_equal(table[:, lat.top], idx)
    return ResiduumReport(
        residuated=True,
        table=[[els[int(table[i, j])] for j in range(m)] for i in range(m)],
    )
