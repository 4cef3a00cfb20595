"""Propositional semantics over a finite lattice.

Evaluation is exhaustive over the valuation space (lexicographic order over
element indices, first variable most significant), and so is validity on a
grid of at most ``PACKED_CELLS`` cells.  On a larger grid ``is_valid_prop``
holds each variable whose occurrences all have one sign where the meet over
it is reached, a positive one at the bottom element and a negative one at
the top, and evaluates the grid of the mixed variables alone: every
valuation gives a value above the held one, so the word is valid iff that
grid is top everywhere.  A failing word is searched for its first
countervaluation slice by slice of its first variable.  Two kernels
apply a connective.  On a grid of at most ``PACKED_CELLS`` cells, when every
table of the lattice has at most 256 entries, ``column_of`` holds a column
as one Python int, a byte per cell, and ``apply_packed`` builds every
cell's table index with one integer multiply-add, which carries nothing
from one byte into the next, and gathers with one ``bytes.translate``;
there a connective costs a few integer operations instead of three numpy
calls on a handful of bytes.  Everywhere else ``apply_connective`` applies
a connective to arrays of argument values: in larger validity grids, folds
and the closure; a larger grid evaluates each distinct subword of the word
once.  Values and tables are uint8, and so
is a table index while the table has at most 256 entries; beyond that the
kernel widens the index to intp.  The closure stacks the tables of all
connectives of one arity into one, and the connective's position in the
stack leads the arguments.  A uint8 index of at least ``TRANSLATE_CELLS``
cells is gathered by ``bytes.translate`` through the table padded to 256
bytes, a byte per cell; ``take``, which first casts its index to intp, 8
bytes a cell, gathers smaller uint8 indices, where the conversion to bytes
costs more than it saves, and every wide index, which is intp already.
Folds over an axis combine its contiguous first and second halves, round
by round.

The factored implication check a -> b needs the join of a over its private
variables and the meet of b over its own, per shared valuation.  Every
connective is monotone or antitone in each argument, as its declared
polarity says, so a word is monotone in a variable whose occurrences all
sit at positive positions and antitone in one whose occurrences all sit at
negative ones; the join over such a variable is reached at the top or the
bottom element, and the meet at the other end.  The check holds each such
private variable there, and only private variables of mixed sign get a
grid axis to fold; on the first-order README query on mc (5 shared and 5
private variables a side) each side's column has 5^5 cells.  A failing
check evaluates a and b over their private variables at the first shared
valuation where the envelopes cross.  ``checked`` counts the valuations of
a's variables plus those of b's, m**(s+l) + m**(s+r), held or not.  A valid
check keeps only its two envelope columns.

The closure of representable functions grows level by level: level 0 holds
the projection and constant columns, level k+1 every connective application
with an argument from level k, evaluated in blocks of about ``BLOCK_CELLS``
cells but never fewer than ``MIN_BLOCK_APPS`` applications, as a block's
fixed cost would outweigh a handful of wide rows.  Each column keeps its
canonical witness, the least (rendered length, word) over the
applications producing it; lengths, and the brackets of words, come from
per-arity tables indexed by connective.  A level
is one stream of blocks per arity, not per connective: an application is
the connective's position in its arity's stack, then its argument columns,
and a block evaluates, deduplicates and ranks the applications of every
connective of that arity together, so a small level costs a block per
arity.  A block of one connective gathers from that connective's own table.
A level's bookkeeping runs on arrays: applications are enumerated a run of
blocks at a time, over many small boxes at once.  Each block first finds
its rows whose column is not in the closure, then deduplicates those
columns, and only then ranks the applications of new columns, which at
deep levels are a few in a hundred: it sorts them by column and length
and hands Python one shortest application per new column, whose word is
joined, and the others only where lengths tie.  A binary connective whose
table equals its transpose gives one column for (a, b) and (b, a), and
nothing new for (a, a) when its diagonal is the identity (``&`` and ``|``
always); a level of more applications than one block holds evaluates each
such unordered pair once, the older-newest rectangle and the newest
triangle (``_blocks``), and appends each fresh row's mirrored application
before ranking, so the witness is chosen among every ordered application.
Budgets still count ordered applications.  While column keys are
uint64 numerals below m ** N <= ``BLOCK_CELLS``, the membership test is
one gather per block from a boolean table indexed by key, so only fresh
rows are deduplicated; any other block is deduplicated first and its
distinct keys are looked up among the closure's sorted keys
(``_fresh_rows``).  A winner's values are copied out of the block by its
row, so no block outlives its turn; a wide column's values are read from
its bytes key, which is then its only copy until the level commits.  A
committed column keeps its values, its word and a parent link, its stack
and application (a seed keeps its own formula); ``ClosureState.witness``
builds a column's formula from the links on first use and keeps it, and a
column of a closure result asks for it when its witness is first read.
Words are still joined at commit, as the canonical order needs the word of
every new column: columns are ordered by level, then length, then word,
which keeps interpolants deterministic.

The level loop, ``walk_closure``, walks a closure from level 0.  Step k
scans level k for a column between two bounds, when it is given bounds:
as committed rows when the state holds the level, else with the envelope
scan below, which finds what growing the level would.  It then checks the
budget once, with k - 1 levels counted as grown: the levels, level k's
applications and the columns level k would add.  The column budget holds
inside a level, so a stopped closure is a prefix of the canonical order.
Last, step k grows level k unless the state holds it.
``representable_closure`` walks a state of its own without bounds.

A closure of all connectives depends on the lattice and the variable list
alone, so interpolant searches share the small levels of theirs: the
lattice keeps one ``ClosureState`` per variable list in ``lat.derived``,
the shared ladder (``closure_ladder``), holding level 0 and every later
level whose applications fit one block (``app_count(k) * N <=
BLOCK_CELLS``), with read-only values.  ``find_prop_interpolant`` walks
the ladder between the envelopes.  The ladder grows a missing level that
fits one block.  The first search to reach it scans it ungrown, as on a
closure of its own, and grows it when it finds no column there and its
budget lets it go on; a later search grows it, then scans its rows.  The
first level that does not fit, and every level past it, grow on a private
copy of the ladder, so no level larger than a block is kept.  The budget
is checked against the ladder's counts as against a closure's own, so a
search stops where, and with the note, it would on a closure of its own.

Closure columns and probe signatures here, and envelope rows in
``interp``, are sorted and deduplicated by the keys of ``row_keys``, whose
format is chosen from (m, row width) and nothing else: while
``m ** width <= 2 ** 64`` a row's key is the row read as a base-m numeral,
an exact uint64, so sorting compares machine integers, and while it is
below ``BLOCK_CELLS`` it indexes the closure's table of known keys; a
wider row, such as a column over 5^5 valuations on mc, is one void item
that numpy compares byte by byte, and that Python reads as the row's
bytes.  Both formats order keys as their rows order lexicographically,
and results depend only on (length, word) minima and first occurrences
anyway.

An envelope scan searches the next level for a column between two bounds
without growing it, in three stages: tuples of probe-group representatives
at ``PROBES`` positions, then each surviving application at ``SCREEN_WIDTH``
positions, then the remaining applications over the full valuation grid.
Each stage runs once per arity, over all the connectives of that arity.
The first stage evaluates no connective: per probe, a fit table marks the
entries of the arity's stacked table that lie inside the bounds there, and
the kernel applies these tables to the connective positions and the
representatives' probe values, for all probes in one gather while the
applications are few and one probe at a time beyond.  The later stages
check a value against its position's bounds with the kernel too, through a
ternary table of lower <= value <= upper.  Each stage drops only
applications that leave the bounds somewhere, so the scan finds what
growing the level would.  A commuting connective keeps one of two mirrored
group tuples, and inside one group the unordered pairs, when the ordered
survivors fill more than a block; MAX_SURVIVORS counts ordered ones.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Mapping, Optional, Sequence

import numpy as np

from .algebra import IMP, JOIN, MEET, Lattice
from .errors import (
    BudgetExceeded,
    LatlogError,
    NotValidError,
    UnboundVariable,
    UndeclaredConstant,
)
from .syntax import (
    App,
    Const,
    Formula,
    PropVar,
    Quant,
    arg_parens,
    children,
    fold,
    ill_formed,
    join_args,
    parse_formula,
    precedence,
    prop_variables,
    prop_word_variables,
    render,
)

DEFAULT_VAR_CAP = 10
BLOCK_CELLS = 1 << 16  # cells per closure block
MIN_BLOCK_APPS = 64  # least applications per closure block, however wide the rows
TRANSLATE_CELLS = 1024  # least uint8 index the kernel gathers by bytes.translate
PACKED_CELLS = 1024  # most cells column_of evaluates on packed columns (m ** n)
MAX_SURVIVORS = 500_000  # applications an envelope scan may keep after its probe groups
PROBES = 16  # probe positions whose values group the columns in an envelope scan
SCREEN_WIDTH = 64  # positions an envelope scan checks before the full width


def apply_connective(flat: np.ndarray, m: int, args) -> np.ndarray:
    """Values of a connective, given its flattened table, on broadcastable
    integer arrays of argument values; ``flat[0]`` for a nullary connective.
    The result is a fresh writable array, or a scalar for 0-d arguments.

    The table index of a tuple is a1*m**(k-1) + ... + ak.  ``flat`` may
    also stack the tables of several connectives of one arity, each
    m**arity entries long; the leading argument is then the connective's
    position in the stack, and the index reaches into its table.  While
    ``flat`` has at most 256 entries every index into it is at most 255, so
    uint8 arguments with a Python-int ``m`` compute it exactly in uint8;
    otherwise, or when ``m`` is 256, which numpy does not multiply a uint8
    by, the first argument is widened to intp before the arithmetic and
    ``take`` gathers with it.  A uint8 index of at least TRANSLATE_CELLS
    cells is gathered by ``bytes.translate`` through ``flat`` padded to 256
    bytes, built per call: that takes under a tenth of the time of the
    smallest such gather."""
    if not len(args):
        return flat[0]
    idx = args[0]
    if flat.size > 256 or m > 255 and len(args) > 1:
        idx = np.asarray(idx, dtype=np.intp)
    for a in args[1:]:
        idx = idx * m + a
    if idx.size < TRANSLATE_CELLS or idx.dtype != np.uint8:
        return flat.take(idx)
    # bytearray copies the cells in C order, from a strided view too; the
    # translated bytearray is writable, and so is the array over it.  The
    # local index goes before the translate, so a binary gather holds two
    # grids at its peak, not three.
    shape = idx.shape
    cells = bytearray(idx)
    del idx
    cells = cells.translate(flat.tobytes().ljust(256, b"\0"))
    return np.frombuffer(cells, dtype=np.uint8).reshape(shape)


def apply_packed(pad: bytes, m: int, cells: int, args) -> int:
    """Values of a connective on packed columns: a packed column is a Python
    int of ``cells`` bytes, one per cell, big-endian, so the first cell is
    the most significant byte.  ``pad`` is the connective's flattened table
    padded to 256 bytes, and the table has at most 256 entries: every table
    index a1*m**(k-1) + ... + ak is then at most 255, so the multiply-add
    that builds the indices of all cells at once carries nothing from one
    byte into the next, and one ``bytes.translate`` gathers them.  A nullary
    connective gives its value in every cell."""
    if not args:
        return pad[0] * int.from_bytes(b"\1" * cells, "big")
    idx = args[0]
    for a in args[1:]:
        idx = idx * m + a
    return int.from_bytes(idx.to_bytes(cells, "big").translate(pad), "big")


def row_keys(rows: np.ndarray, m: int) -> np.ndarray:
    """One key per row of a 2-d uint8 array with values in range(m), to sort
    or deduplicate rows by: two keys are equal exactly when their rows are,
    and keys order as their rows do, lexicographically.  The format is chosen
    from (m, width) alone.  While ``m ** width <= 2 ** 64`` a key is its row
    read as a base-m numeral, first entry most significant: an exact uint64,
    injective with no hash.  A wider row is one void item, which numpy
    compares byte by byte."""
    fmt = _key_format(m, rows.shape[1])
    if isinstance(fmt, np.dtype):
        return np.ascontiguousarray(rows).view(fmt).ravel()
    return rows @ fmt


@lru_cache(maxsize=64)
def _key_format(m: int, width: int):
    """The digit weights m**(width-1), ..., m, 1 of a uint64 key, read-only,
    or the void dtype of a wide row.  Cached: on the few-cell rows of small
    closures, building either costs as much as the keys themselves."""
    # for m >= 2 a width past 64 is wide: the test skips a huge power
    if m < 2 or width <= 64 and m ** width <= 1 << 64:
        weights = np.uint64(m) ** np.arange(width - 1, -1, -1, dtype=np.uint64)
        weights.flags.writeable = False
        return weights
    return np.dtype((np.void, width))


def _not_a_word(phi: Formula) -> LatlogError:
    return LatlogError(f"not a propositional word: {render(phi)}")


def _projection(m: int, n: int, k: int) -> np.ndarray:
    """Column of variable k over the m**n valuations (lexicographic)."""
    N = m ** n
    return ((np.arange(N) // m ** (n - 1 - k)) % m).astype(np.uint8)


@lru_cache(maxsize=64)
def _packed_leaves(m: int, n: int) -> tuple[int, tuple[int, ...]]:
    """The packed column of all ones over the m**n valuations of n
    variables, and the packed projection of each variable."""
    ones = int.from_bytes(b"\1" * m ** n, "big")
    return ones, tuple(int.from_bytes(_projection(m, n, k).tobytes(), "big") for k in range(n))


def _packed_tables(lat: Lattice) -> Optional[dict[str, tuple[int, bytes]]]:
    """Each connective's arity and flattened table padded to 256 bytes, for
    ``apply_packed``; None when some table has more than 256 entries.
    Cached in ``lat.derived``."""
    try:
        return lat.derived["packed_tables"]
    except KeyError:
        pass
    flats = {conn: lat.flat(conn) for conn in lat.tables}
    pads = None
    if all(flat.size <= 256 for flat in flats.values()):
        pads = {conn: (lat.tables[conn].ndim, flat.tobytes().ljust(256, b"\0"))
                for conn, flat in flats.items()}
    lat.derived["packed_tables"] = pads
    return pads


def column_of(phi: Formula, lat: Lattice, var_list: Sequence[str],
              fixed: Optional[Mapping[str, int]] = None) -> np.ndarray:
    """Evaluate a propositional word on every valuation of ``var_list``, with
    each variable of ``fixed`` held at the element index it maps to.  The
    result is a fresh writable uint8 array of m**n cells.

    A grid of at most PACKED_CELLS cells, on a lattice whose tables all have
    at most 256 entries, is evaluated on packed columns (``apply_packed``):
    a leaf is a cached packed projection, or the element index times the
    column of ones, and the word is walked once, in post-order, with an
    explicit stack.  Any other grid is an n-dimensional broadcast: each
    variable of ``var_list`` occupies one axis and a held variable or a
    constant is a scalar, so subformulas touching few variables stay small
    and the full m**n layout is materialised only once at the end; the axis
    arrays are built, and each connective's table fetched, once per call.
    PACKED_CELLS is measured: on the calls of a prop-batch benchmark pass,
    on a 2-core machine, packed columns took 0.27-0.45 of the broadcast
    time up to 512 cells, 0.66 at 1,024 and 1.21 at 2,187.

    A word that applies a connective outside the signature, or one given a
    wrong number of arguments, raises a LatlogError on either path."""
    var_list = tuple(var_list)
    cells = lat.m ** len(var_list)
    if cells <= PACKED_CELLS:
        pads = _packed_tables(lat)
        if pads is not None:
            packed = _packed_column(phi, lat, pads, var_list, fixed, cells)
            return np.frombuffer(bytearray(packed.to_bytes(cells, "big")), dtype=np.uint8)
    return _broadcast_column(phi, lat, var_list, fixed)


def _packed_column(phi: Formula, lat: Lattice, pads: Mapping[str, tuple[int, bytes]],
                   var_list: tuple[str, ...], fixed: Optional[Mapping[str, int]],
                   cells: int) -> int:
    """``column_of`` on packed columns.  Nodes are visited in the order of
    ``syntax.fold``, so an ill-formed word raises what the broadcast path
    raises."""
    m = lat.m
    ones, projections = _packed_leaves(m, len(var_list))
    leaves = dict(zip(var_list, projections))
    for v, i in (fixed or {}).items():
        leaves.setdefault(v, range(m)[i] * ones)  # an index as base[i] takes it
    # pre-order with the children taken right to left is, reversed, the
    # post-order with the children taken left to right
    order = []
    stack = [phi]
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        if kind is App:
            stack.extend(node.args)
        elif kind is Quant:
            stack.append(node.body)
        elif kind is not PropVar and kind is not Const:
            stack.extend(getattr(node, "args", ()))
    values: list[int] = []
    for node in reversed(order):
        kind = type(node)
        if kind is App:
            entry = pads.get(node.conn)
            if entry is None or len(node.args) != entry[0]:
                raise ill_formed(node, lat.signature)
            arity, pad = entry
            if arity == 2:  # apply_packed inlined: the call costs a fifth of a node
                b = values.pop()
                idx = values[-1] * m + b
                values[-1] = int.from_bytes(idx.to_bytes(cells, "big").translate(pad), "big")
            else:
                cut = len(values) - arity
                args = values[cut:]
                del values[cut:]
                values.append(apply_packed(pad, m, cells, args))
        elif kind is PropVar:
            leaf = leaves.get(node.name)
            if leaf is None:
                raise UnboundVariable(f"variable {node.name!r} not in the valuation list",
                                      variable=node.name)
            values.append(leaf)
        elif kind is Const:
            if node.name not in lat.constants:
                raise UndeclaredConstant(f"constant {node.name!r} not declared",
                                         constant=node.name)
            values.append(lat.constants[node.name] * ones)
        else:
            raise _not_a_word(phi)
    return values[0]


def _broadcast_column(phi: Formula, lat: Lattice, var_list: tuple[str, ...],
                      fixed: Optional[Mapping[str, int]]) -> np.ndarray:
    """``column_of`` on a broadcast grid, one connective at a time through
    ``apply_connective``.  Each structurally distinct subword is evaluated
    once: a post-order walk in ``fold``'s order gives every node an id,
    keyed by its connective and its children's ids, or by its kind and name
    for a leaf, so equal subwords share an id without hashing a formula and
    without recursion.  The walk checks every node before any is evaluated,
    so an ill-formed word raises what ``fold`` meets first.  Each id is then
    evaluated in order, and a value is dropped after its last use."""
    m = lat.m
    n = len(var_list)
    base = np.arange(m, dtype=np.uint8)
    leaves = {v: base.reshape((1,) * k + (m,) + (1,) * (n - 1 - k))
              for k, v in enumerate(var_list)}
    for v, i in (fixed or {}).items():
        leaves.setdefault(v, base[i])  # a uint8 scalar
    flats: dict[str, tuple[int, np.ndarray]] = {}  # arity and flattened table
    # pre-order with the children taken right to left is, reversed, the
    # post-order with the children taken left to right
    order = []
    stack = [phi]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend((node.body,) if type(node) is Quant else getattr(node, "args", ()))
    ids: dict[tuple, int] = {}
    steps: list[tuple] = []  # per id: a table and argument ids, or a leaf value and None
    uses: list[int] = []  # per id: the applications that take it as an argument
    done: list[int] = []  # ids of the finished siblings, as fold's value stack
    for node in reversed(order):
        kind = type(node)
        if kind is App:
            entry = flats.get(node.conn)
            if entry is None and node.conn in lat.tables:
                entry = flats[node.conn] = (lat.tables[node.conn].ndim, lat.flat(node.conn))
            if entry is None or len(node.args) != entry[0]:
                raise ill_formed(node, lat.signature)
            cut = len(done) - entry[0]
            args = tuple(done[cut:])
            del done[cut:]
            key = (node.conn, args)
            step = (entry[1], args)
        elif kind is PropVar:
            leaf = leaves.get(node.name)
            if leaf is None:
                raise UnboundVariable(f"variable {node.name!r} not in the valuation list",
                                      variable=node.name)
            key, step = (kind, node.name), (leaf, None)
        elif kind is Const:
            if node.name not in lat.constants:
                raise UndeclaredConstant(f"constant {node.name!r} not declared",
                                         constant=node.name)
            key, step = (kind, node.name), (base[lat.constants[node.name]], None)  # a uint8 scalar
        else:
            raise _not_a_word(phi)
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(steps)
            steps.append(step)
            uses.append(0)
            for a in step[1] or ():
                uses[a] += 1
        done.append(i)
    values: list = [None] * len(steps)
    for i, (value, args) in enumerate(steps):
        if args is not None:
            value = apply_connective(value, m, [values[a] for a in args])
            for a in args:
                uses[a] -= 1
                if not uses[a]:
                    values[a] = None
        values[i] = value
    out = values[-1]  # the root: the last id, as no proper subword equals the word
    if out.shape != (m,) * n:  # a full-shape result is already a fresh array
        out = np.broadcast_to(out, (m,) * n).copy()
    return out.reshape(-1)


def eval_prop(phi: Formula, lat: Lattice, valuation: Mapping[str, str]) -> str:
    """Value of a propositional word under one valuation (element names)."""

    def value(f: Formula, args) -> int:
        if isinstance(f, App):
            table = lat.tables.get(f.conn)
            if table is None or table.ndim != len(args):
                raise ill_formed(f, lat.signature)
            return int(table[tuple(args)])
        if isinstance(f, PropVar):
            if f.name not in valuation:
                raise UnboundVariable(f"variable {f.name!r} unassigned", variable=f.name)
            return lat.index(valuation[f.name])
        if isinstance(f, Const):
            if f.name not in lat.constants:
                raise UndeclaredConstant(f"constant {f.name!r} not declared", constant=f.name)
            return lat.constants[f.name]
        raise _not_a_word(phi)

    return lat.elements[fold(phi, value)]


def _decode_valuation(index: int, var_list: tuple[str, ...], lat: Lattice) -> dict[str, str]:
    out = {}
    m = lat.m
    for v in reversed(var_list):
        out[v] = lat.elements[index % m]
        index //= m
    return dict(sorted(out.items()))


@dataclass(slots=True)
class ValidityReport:
    valid: bool
    countervaluation: Optional[dict[str, str]]
    variables: tuple[str, ...]
    checked: int
    method: str = "grid"
    envelopes: Optional[EnvelopePair] = None  # of a valid factored check

    def __bool__(self) -> bool:
        return self.valid


def _fold_axis(grid: np.ndarray, flat: np.ndarray, m: int) -> np.ndarray:
    """Reduce the last axis of an index grid with a binary table that is
    associative and commutative (a join or a meet), as a pairwise tree: each
    round combines the first half of the axis with the second, position by
    position, and carries an odd last entry to the next round.  The order
    in which entries meet differs from a left-to-right reduction, which the
    two laws make immaterial."""
    acc = grid
    while acc.shape[-1] > 1:
        width = acc.shape[-1]
        h = width // 2
        red = apply_connective(flat, m, (acc[..., :h], acc[..., h:2 * h]))
        if width % 2:
            red = np.concatenate([red, acc[..., 2 * h:]], axis=-1)
        acc = red
    return acc[..., 0].astype(np.uint8)  # a copy: a view would keep acc alive


POS, NEG = 1, 2  # sign bits of a variable: it occurs positively, negatively
_FLIP = (0, NEG, POS, POS | NEG)  # signs below an argument of polarity -


def _variable_signs(phi: Formula, lat: Lattice) -> dict[str, int]:
    """Each propositional variable of ``phi`` with the signs of its
    occurrences: POS where the polarities of the connectives above it
    multiply to +, NEG where to -, both (mixed) when it has occurrences of
    each.  A connective outside the signature, or one given a wrong number
    of arguments, raises the LatlogError that evaluating ``phi`` raises
    first: this walk meets nodes in another order than ``fold``, so it
    evaluates ``phi`` on one cell to find that error."""
    conns = lat.signature.by_name
    signs: dict[str, int] = {}
    stack = [(phi, POS)]
    while stack:
        node, sign = stack.pop()
        kind = type(node)
        if kind is PropVar:
            signs[node.name] = signs.get(node.name, 0) | sign
        elif kind is App:
            conn = conns.get(node.conn)
            if conn is None or conn.arity != len(node.args):
                column_of(phi, lat, (), dict.fromkeys(prop_variables(phi), 0))
                raise ill_formed(node, lat.signature)
            for kid, p in zip(node.args, conn.polarity):
                stack.append((kid, sign if p == "+" else _FLIP[sign]))
        else:
            stack.extend((kid, sign) for kid in children(node))
    return signs


def _envelope(phi: Formula, lat: Lattice, shared: tuple[str, ...], private: tuple[str, ...],
              signs: Mapping[str, int], at: Mapping[int, int], conn: str) -> np.ndarray:
    """The fold of ``phi`` with ``conn`` over every valuation of its private
    variables, per valuation of the shared ones.  ``phi`` is monotone in a
    private variable of sign POS and antitone in one of sign NEG, so the fold
    over it is its value at one end of the order, ``at[sign]``; such a
    variable is held there and only the mixed ones get an axis to fold."""
    fixed = {v: at[signs[v]] for v in private if signs[v] in at}
    mixed = tuple(v for v in private if v not in fixed)
    m = lat.m
    grid = column_of(phi, lat, shared + mixed, fixed)
    return _fold_axis(grid.reshape(m ** len(shared), m ** len(mixed)), lat.flat(conn), m)


@dataclass
class ImplicationParts:
    shared: tuple[str, ...]
    left: tuple[str, ...]
    right: tuple[str, ...]
    lower: np.ndarray  # join over left extensions of the antecedent
    upper: np.ndarray  # meet over right extensions of the succedent

    def envelope_pair(self) -> EnvelopePair:
        return EnvelopePair(self.shared, ValueColumn(self.shared, self.lower),
                            ValueColumn(self.shared, self.upper))


def _implication_parts(a: Formula, b: Formula, lat: Lattice,
                       var_cap: Optional[int] = None) -> ImplicationParts:
    cap = DEFAULT_VAR_CAP if var_cap is None else var_cap
    sa, sb = _variable_signs(a, lat), _variable_signs(b, lat)
    shared = tuple(sorted(sa.keys() & sb.keys()))
    left = tuple(sorted(sa.keys() - sb.keys()))
    right = tuple(sorted(sb.keys() - sa.keys()))
    if max(len(shared) + len(left), len(shared) + len(right)) > cap:
        raise BudgetExceeded(
            f"implication check needs grids over {len(shared) + len(left)} and "
            f"{len(shared) + len(right)} variables, cap is {cap}",
            cap=cap,
        )
    top, bottom = lat.top, lat.bottom
    lower = _envelope(a, lat, shared, left, sa, {POS: top, NEG: bottom}, JOIN)
    upper = _envelope(b, lat, shared, right, sb, {POS: bottom, NEG: top}, MEET)
    return ImplicationParts(shared, left, right, lower, upper)


def _implication_counter(a: Formula, b: Formula, parts: ImplicationParts,
                         lat: Lattice) -> dict[str, str]:
    """The first countervaluation of a -> b in lexicographic order (shared,
    then left, then right variables): the first shared valuation s where the
    envelopes cross, then the first left and right valuations on which a and
    b, evaluated with the shared variables held at s, fail the order."""
    leq = lat.leq
    s = int(np.flatnonzero(~leq[parts.lower, parts.upper])[0])
    at_s = _decode_valuation(s, parts.shared, lat)
    held = {v: lat.index(e) for v, e in at_s.items()}
    arow = column_of(a, lat, parts.left, held)
    brow = column_of(b, lat, parts.right, held)
    above = ~leq[:, brow]  # above[v, r]: element v is not below b's value at r
    l = int(np.flatnonzero(above.any(axis=1)[arow])[0])
    r = int(above[arow[l]].argmax())
    out = dict(at_s)
    out.update(_decode_valuation(l, parts.left, lat))
    out.update(_decode_valuation(r, parts.right, lat))
    return dict(sorted(out.items()))


def is_valid_implication(a: Formula, b: Formula, lat: Lattice,
                         var_cap: Optional[int] = None) -> ValidityReport:
    """Validity of a -> b via the shared-variable factorisation: valid iff for
    every shared valuation, the join over antecedent-only extensions stays
    below the meet over succedent-only extensions.  A private variable of one
    sign is held at the end of the order where the join or meet is reached
    (see ``_envelope``), so only variables of mixed sign get a grid axis.
    Observationally identical to the full valuation sweep; ``checked``
    counts the valuations of a's variables plus those of b's.  A valid
    report carries the join and meet as the envelope pair of a -> b."""
    parts = _implication_parts(a, b, lat, var_cap)
    variables = tuple(sorted(set(parts.shared) | set(parts.left) | set(parts.right)))
    m, s = lat.m, len(parts.shared)
    checked = m ** (s + len(parts.left)) + m ** (s + len(parts.right))
    if lat.leq[parts.lower, parts.upper].all():
        return ValidityReport(True, None, variables, checked, method="factored",
                              envelopes=parts.envelope_pair())
    return ValidityReport(False, _implication_counter(a, b, parts, lat), variables, checked,
                          method="factored")


def _held_at_meet(phi: Formula, lat: Lattice) -> dict[str, int]:
    """Each variable of ``phi`` of one sign with the element where the meet
    of ``phi`` over it is reached: the bottom for POS, the top for NEG."""
    ends = {POS: lat.bottom, NEG: lat.top}
    return {v: ends[s] for v, s in _variable_signs(phi, lat).items() if s in ends}


def is_valid_prop(phi: Formula, lat: Lattice, var_cap: Optional[int] = None) -> ValidityReport:
    """Validity over every valuation: true iff the word evaluates to the top
    element under each.  A false report carries the lexicographically first
    countervaluation; ``checked`` is m**n either way.

    A grid of at most PACKED_CELLS cells is evaluated whole.  On a larger
    one, each variable whose occurrences all have one sign is held where the
    meet over it is reached: a positive one at the bottom element, a
    negative one at the top, and only the mixed variables keep an axis.  The
    word is valid iff that held grid is top everywhere, because every
    valuation gives a value above the one it gives with its single-sign
    variables held (see ``_variable_signs``).  When a held cell fails and
    some variable was held, the word is not valid, but the held grid need
    not contain the first countervaluation: it is searched slice by slice
    of the first variable, each slice held at one element, up to the first
    slice with a failing cell.

    When the variable count exceeds the cap, a top-level implication falls
    back to the factored check, whose valid report carries the envelope
    pair; anything else raises BUDGET_EXCEEDED."""
    cap = DEFAULT_VAR_CAP if var_cap is None else var_cap
    names = prop_word_variables(phi)
    if names is None:
        raise _not_a_word(phi)
    variables = tuple(sorted(names))
    if len(variables) <= cap:
        m, top = lat.m, lat.top
        cells = m ** len(variables)
        held = _held_at_meet(phi, lat) if cells > PACKED_CELLS else {}
        col = column_of(phi, lat, tuple(v for v in variables if v not in held), held)
        bad = np.flatnonzero(col != top)
        if not len(bad):
            return ValidityReport(True, None, variables, cells)
        if held:
            first, rest = variables[0], variables[1:]
            for i in range(m):
                bad = np.flatnonzero(column_of(phi, lat, rest, {first: i}) != top)
                if len(bad):
                    bad += i * m ** len(rest)
                    break
        return ValidityReport(False, _decode_valuation(int(bad[0]), variables, lat),
                              variables, cells)
    if isinstance(phi, App) and phi.conn == IMP:
        return is_valid_implication(phi.args[0], phi.args[1], lat, var_cap)
    raise BudgetExceeded(
        f"validity over {len(variables)} variables exceeds the cap of {cap}",
        cap=cap, variables=len(variables),
    )


# ---------------------------------------------------------------------------
# value columns and the representable closure


@dataclass(eq=False)
class ValueColumn:
    """A function table over all valuations of a fixed variable list, with the
    word that represents it (envelopes carry no witness)."""

    var_list: tuple[str, ...]
    values: np.ndarray
    witness: Optional[Formula] = None
    word: Optional[str] = None
    level: Optional[int] = None

    @property
    def key(self) -> bytes:
        return self.values.tobytes()

    def value_names(self, lat: Lattice) -> tuple[str, ...]:
        return tuple(lat.elements[int(v)] for v in self.values)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ValueColumn) and self.var_list == other.var_list
                and self.key == other.key)

    def __hash__(self) -> int:
        return hash((self.var_list, self.key))


class _ClosureColumn(ValueColumn):
    """Column ``i`` of a closure state, whose witness the state builds on
    first read (``ClosureState.witness``), so a closure result builds none
    that its caller does not read."""

    def __init__(self, state: ClosureState, i: int):
        self.var_list, self.values = state.var_list, state.values[i]
        self.word, self.level = state.words[i], state.levels[i]
        self._state, self._i = state, i

    @property
    def witness(self) -> Formula:
        return self._state.witness(self._i)


@dataclass
class ClosureResult:
    var_list: tuple[str, ...]
    columns: list[ValueColumn]
    complete: bool
    cumulative: list[int]
    added: list[int]
    connectives: tuple[str, ...]
    budget_note: Optional[str] = None


@dataclass
class ClosureBudget:
    max_columns: int = 20000
    max_levels: Optional[int] = None
    max_apps_per_level: int = 4_000_000


def _spread(k: int, N: int) -> np.ndarray:
    """k positions spread evenly over range(N), both ends included; all of
    them when N <= k."""
    return np.arange(k) * (N - 1) // (k - 1) if N > k else np.arange(N)


def _step(cells: int) -> int:
    """Tuples per block when one tuple evaluates to ``cells`` cells: about
    BLOCK_CELLS cells, but never fewer than MIN_BLOCK_APPS tuples, as a
    block's fixed cost of a few dozen numpy calls would outweigh the
    evaluation of a handful of wide rows."""
    return max(MIN_BLOCK_APPS, BLOCK_CELLS // cells)


def _rechunk(arrays, step: int):
    """Regroup a stream of (n, arity) tuple arrays into blocks of at most
    ``step`` tuples."""
    pending, count = [], 0
    for a in arrays:
        for start in range(0, len(a), step):
            piece = a[start:start + step]
            if count + len(piece) > step:
                yield np.concatenate(pending)
                pending, count = [], 0
            pending.append(piece)
            count += len(piece)
    if pending:
        yield np.concatenate(pending)


def _blocks(members: Sequence[np.ndarray], first: np.ndarray, count: np.ndarray, cells: int,
            gap: Optional[np.ndarray] = None):
    """Tuples of boxes as (n, positions) arrays of at most ``_step(cells)``
    tuples, one tuple evaluating to ``cells`` cells.  Box b takes at position
    k the ``count[b, k]`` entries of ``members[k]`` from ``first[b, k]`` on;
    its tuples are its product in lexicographic order,
    box after box.  A box with ``gap[b] >= 0`` is a triangle instead: its
    last two positions draw the same entries, and it takes only their pairs
    (i, j) with j - i >= ``gap[b]``, ordered by j, then i, and in
    lexicographic order of the positions before them.  Each box is cut into
    pieces of a block's tuples, and consecutive pieces share a block while
    they fit.  A run of blocks, about BLOCK_CELLS bytes of intp a position,
    is enumerated at once, so many small boxes or blocks cost a few array
    operations in all."""
    step = _step(cells)
    tri = None if gap is None or not (gap >= 0).any() else gap >= 0
    if tri is not None:
        # a triangle's pairs are one position of (side + 1) * side / 2
        # entries after a position of one: pair p is j = t + gap, i = p - t *
        # (t + 1) / 2 for the greatest t with t * (t + 1) / 2 <= p
        side = count[:, -1] - gap
        count = count.copy()
        count[tri, -2], count[tri, -1] = 1, (side * (side + 1) // 2)[tri]
    sizes = count.prod(axis=1)
    ends = sizes.cumsum()
    cuts, pos, pending = [0], 0, 0  # where blocks end; tuples in the open block
    for size in sizes.tolist():
        full, rest = divmod(size, step)
        if full:
            if pending:
                cuts.append(pos)
            cuts.extend(range(pos + step, pos + full * step + 1, step))
            pos, pending = pos + full * step, 0
        if rest:
            if pending + rest > step:
                cuts.append(pos)
                pending = 0
            pos, pending = pos + rest, pending + rest
    if pending:
        cuts.append(pos)
    run = step * max(1, BLOCK_CELLS // (8 * step))
    i = 0
    while i + 1 < len(cuts):
        j = i + 1
        while j + 1 < len(cuts) and cuts[j + 1] - cuts[i] <= run:
            j += 1
        flat = np.arange(cuts[i], cuts[j])
        box = ends.searchsorted(cuts[i], side="right")
        if ends[box] < cuts[j]:  # the run spans boxes: each tuple's box
            box = ends.searchsorted(flat, side="right")
        flat -= ends[box] - sizes[box]
        shape, base = count[box], first[box]
        digits = [None] * count.shape[1]
        for k in reversed(range(count.shape[1])):
            flat, digits[k] = np.divmod(flat, shape[..., k])
        inside = None if tri is None else tri[box]
        if inside is not None and inside.any():
            # exact in float64 while pair indices stay below 2 ** 50
            pair = digits[-1]
            t = ((np.sqrt(8 * pair + 1) - 1) // 2).astype(np.intp)
            low, high = pair - t * (t + 1) // 2, t + gap[box]
            if inside.all():
                digits[-2], digits[-1] = low, high
            else:
                digits[-2], digits[-1] = np.where(inside, low, digits[-2]), np.where(inside, high, pair)
        tup = np.empty((len(flat), count.shape[1]), dtype=np.intp)
        for k, r in enumerate(digits):
            tup[:, k] = members[k][base[..., k] + r]
        for start, stop in zip(cuts[i:j], cuts[i + 1:j + 1]):
            yield tup[start - cuts[i]:stop - cuts[i]]
        i = j


def _probe_fits(fit: np.ndarray, m: int, reps: np.ndarray, arity: int) -> np.ndarray:
    """The applications of the connectives of one arity to tuples over the
    rows of ``reps`` (one row per probe-group representative, one column per
    probe) whose values fit at every probe, as an (n, 1 + arity) array of
    (connective, representatives) rows in lexicographic order.  ``fit[p]``
    is the connectives' stacked table (see ``apply_connective``) with each
    value replaced by 1 where it lies inside the bounds at probe p, else 0,
    so the kernel applied to it gives the fit itself.

    With fewer than TRANSLATE_CELLS applications one gather serves every
    probe: the probe and the connective lead the index as one intp
    argument, which selects the connective's part of the probe's row of
    ``fit`` (a gather per probe would be too small for the byte table and
    cost a call per probe).  Otherwise the applications go in blocks of at
    most BLOCK_CELLS, the connective and the leading argument positions
    enumerated (as few as keep a block that small) and the others
    broadcast, and each probe's row is applied in turn, a uint8 gather per
    probe while the row has at most 256 entries."""
    R, P = reps.shape
    K = fit.shape[1] // m ** arity
    dims = (K,) + (R,) * arity  # connective, then representative per position
    cols = reps.T  # [probe, representative]
    if K * R ** arity < TRANSLATE_CELLS:
        lead = (np.arange(P)[:, None] * K + np.arange(K)).reshape((P, K) + (1,) * arity)
        axes = [cols.reshape((P, 1) + (1,) * k + (R,) + (1,) * (arity - 1 - k))
                for k in range(arity)]
        return np.argwhere(apply_connective(fit.ravel(), m, [lead] + axes).all(axis=0))
    lead = 1
    while R ** (arity + 1 - lead) > BLOCK_CELLS:
        lead += 1
    tail = arity + 1 - lead
    step = max(1, BLOCK_CELLS // R ** tail)  # prefixes of the leading positions per block
    prefixes = K * R ** (lead - 1)
    tails = [cols.reshape((P, 1) + (1,) * k + (R,) + (1,) * (tail - 1 - k)) for k in range(tail)]
    found = []
    for start in range(0, prefixes, step):
        conn, *digits = np.unravel_index(np.arange(start, min(prefixes, start + step)), dims[:lead])
        conn = conn.astype(_index_dtype(K)).reshape((-1,) + (1,) * tail)
        heads = [cols[:, d].reshape((P, -1) + (1,) * tail) for d in digits]
        ok = True
        for p in range(P):
            args = [conn] + [h[p] for h in heads] + [t[p] for t in tails]
            ok = ok & apply_connective(fit[p], m, args)
        found.append(start * R ** tail + np.flatnonzero(ok))
    return np.stack(np.unravel_index(np.concatenate(found), dims), axis=-1)


def _index_dtype(count: int) -> type:
    """The dtype of a connective's position among ``count`` stacked tables:
    uint8 when it fits, so a uint8 gather stays uint8."""
    return np.uint8 if count <= 256 else np.intp


def _fresh_rows(known: np.ndarray, m: int, width: int):
    """The membership test of ``_candidates``: a function from a block's row
    keys to (rows, uniq, col), the block's rows whose key is not in
    ``known``, in increasing order, the distinct keys among them, and each
    row's position in ``uniq``.

    While keys are uint64 numerals below ``m ** width <= BLOCK_CELLS``, the
    test is one gather per block from a boolean table indexed by key, so
    only the fresh rows, which at deep levels are a few in a hundred, are
    deduplicated.  Any other block is deduplicated first and its distinct
    keys are looked up among the sorted ``known``: an argsort moves
    indices, not N-byte void items.  ``uniq`` then holds known keys too,
    which no fresh row points to."""
    if known.dtype == np.uint64 and m ** width <= BLOCK_CELLS:
        seen = np.zeros(m ** width, dtype=bool)
        seen[known] = True

        def test(keys):
            rows = np.flatnonzero(~seen[keys])
            uniq, col = np.unique(keys[rows], return_inverse=True)
            return rows, uniq, col
        return test
    order = known.argsort()

    def test(keys):
        uniq, inv = np.unique(keys, return_inverse=True)
        # a key is fresh when no known key equals it: an empty range
        # between its left and right insertion points
        fresh = known.searchsorted(uniq, sorter=order) == known.searchsorted(uniq, "right", order)
        rows = fresh[inv].nonzero()[0]
        return rows, uniq, inv[rows]
    return test


@dataclass(frozen=True, eq=False)
class _Stack:
    """The connectives of one arity, in signature order, with their tables
    stacked in that order (see ``apply_connective``): an application is a
    connective's position in the stack, then its argument columns."""

    arity: int
    names: tuple[str, ...]
    flat: np.ndarray
    text: np.ndarray  # length of each connective's text with empty arguments
    brackets: np.ndarray  # [connective, position, precedence]: 2 where bracketed, else 0
    marks: list  # ``brackets`` as nested lists, read per word
    precs: tuple[int, ...]  # precedence of each connective's applications
    # per connective of a binary stack, -1 where its table differs from its
    # transpose, else the least j - i of the argument pairs (i, j) it takes
    # unordered: 1 when its diagonal is the identity, as (a, a) then gives
    # column a back, else 0; -1 throughout any other stack
    gaps: np.ndarray
    commutes: bool  # whether some connective commutes: some gap is at least 0


def _stacks(lat: Lattice, names: tuple[str, ...]) -> tuple[_Stack, ...]:
    """The connectives ``names`` of ``lat`` stacked by arity, in increasing
    arity; cached on the lattice, since tiny closures are built by the
    hundred."""
    cache = lat.derived.setdefault("closure_stacks", {})
    stacks = cache.get(names)
    if stacks is None:
        conns = [lat.signature.by_name[c] for c in names]
        stacks = cache[names] = tuple(_stack(lat, tuple(c.name for c in conns if c.arity == a), a)
                                      for a in sorted({c.arity for c in conns}))
    return stacks


def _stack(lat: Lattice, names: tuple[str, ...], arity: int) -> _Stack:
    """The stack of the connectives ``names``, all of arity ``arity``."""
    levels = np.arange(precedence(PropVar("p")) + 1)  # no word binds tighter than an atom
    brackets = np.zeros((len(names), arity, len(levels)), dtype=np.int64)
    for i, name in enumerate(names):
        for k, parens in enumerate(arg_parens(name, [levels] * arity)):
            brackets[i, k] = 2 * parens
    gaps = np.full(len(names), -1, dtype=np.intp)
    if arity == 2:
        for i, name in enumerate(names):
            table = lat.tables[name]
            if np.array_equal(table, table.T):
                gaps[i] = np.array_equal(np.diagonal(table), np.arange(lat.m))
    return _Stack(arity, names, np.concatenate([lat.flat(c) for c in names]),
                  np.array([len(join_args(c, [""] * arity)) for c in names], dtype=np.int64),
                  brackets, brackets.tolist(),
                  tuple(precedence(App(c, (PropVar("p"),) * arity)) for c in names),
                  gaps, bool((gaps >= 0).any()))


class ClosureState:
    """Incremental closure: grow one level at a time, or scan the next level's
    candidates against envelope bounds without materialising it.  Column i
    is row i of ``values``, its word ``words[i]`` and its parent link
    ``parents[i]``, (stack, application) or None for a seed; its formula
    is ``witness(i)``, built on demand."""

    def __init__(self, lat: Lattice, var_list: Sequence[str],
                 connectives: Optional[Sequence[str]] = None):
        self.lat = lat
        self.var_list = tuple(var_list)
        repeated = [v for i, v in enumerate(self.var_list) if v in self.var_list[:i]]
        if repeated:
            raise LatlogError(f"variable {repeated[0]!r} listed twice", variable=repeated[0])
        names = tuple(connectives) if connectives is not None else lat.signature.names()
        self.conns = [c for c in lat.signature.connectives if c.name in names]
        unknown = set(names) - set(lat.signature.names())
        if unknown:
            raise LatlogError(f"connectives not in the signature: {sorted(unknown)}")
        self.stacks = _stacks(lat, tuple(c.name for c in self.conns))
        self.m = lat.m
        n = len(self.var_list)
        self.N = lat.m ** n
        self.values = np.empty((0, self.N), dtype=np.uint8)  # one row per column
        self.words: list[str] = []
        # per column, its parent link: (stack, application), or None for a
        # seed; and its witness, a seed's from the start and any other's
        # once ``witness`` has built it
        self.parents: list[Optional[tuple[_Stack, list[int]]]] = []
        self.wits: list[Optional[Formula]] = []
        self.precs: list[int] = []  # precedence of each witness's top symbol
        self.levels: list[int] = []
        self.frontier = 0  # index of the first column of the newest level
        self.added: list[int] = []
        # None on a closure of its own; on the shared ladder, the newest
        # level a search scanned ungrown
        self.scanned_level: Optional[int] = None

        seeds = [(_projection(self.m, n, k), PropVar(v)) for k, v in enumerate(self.var_list)]
        seeds += [(np.full(self.N, cidx, dtype=np.uint8), Const(cname))
                  for cname, cidx in lat.constants.items()]
        words = [render(w) for _, w in seeds]
        entries = sorted(((len(word), word, values, None, w)
                          for (values, w), word in zip(seeds, words)), key=lambda e: e[:2])
        rows = np.array([e[2] for e in entries], dtype=np.uint8).reshape(-1, self.N)
        least: dict = {}  # two constants may name one element
        for key, e in zip(row_keys(rows, self.m).tolist(), entries):
            least.setdefault(key, e)
        self._commit(least.values())

    @property
    def total(self) -> int:
        return len(self.words)

    def copy(self) -> ClosureState:
        """A copy to grow on its own: growing either leaves the other as it
        was.  The two share the values array, which a level replaces, never
        writes into.  A copy of the shared ladder is a closure of its own."""
        other = copy.copy(self)
        for name in ("words", "parents", "wits", "precs", "levels", "added"):
            setattr(other, name, list(getattr(self, name)))
        other.scanned_level = None
        return other

    def _commit(self, entries) -> int:
        """Append one level of (length, word, values, stack, application)
        entries in canonical order; returns their number.  A seed's entry
        holds None for the stack and its formula for the application.  The
        entries hold distinct columns, none of them in the closure yet."""
        new = sorted(entries, key=lambda e: e[:2])
        self.frontier = self.total
        self.values = np.vstack([self.values] + [e[2] for e in new])
        self.words += [e[1] for e in new]
        for _, _, _, stack, app in new:
            if stack is None:
                self.parents.append(None)
                self.wits.append(app)
                self.precs.append(precedence(app))
            else:
                self.parents.append((stack, app))
                self.wits.append(None)
                self.precs.append(stack.precs[app[0]])
        self.levels += [len(self.added)] * len(new)
        self.added.append(len(new))
        # the shared ladder's columns reach many callers' verdicts
        self.values.flags.writeable = self.scanned_level is None
        return len(new)

    def _count_new(self, sizes, olds) -> int:
        """Applications with an argument from the newest level, over set
        tuples given as rows of per-position set sizes and of the sizes of
        their parts that predate the newest level (at level 1 every
        application counts).  Products are taken in float64, exact below
        2**53, so wide connectives cannot overflow the count."""
        newest_only = len(self.added) > 1
        return int(sizes.prod(axis=-1, dtype=float).sum()
                   - newest_only * olds.prod(axis=-1, dtype=float).sum())

    def app_count(self, level: int) -> int:
        """Applications level ``level`` (at least 1, and at most one past the
        newest) evaluates, exact in Python integers: at level 1 every one,
        later those with an argument from the level before."""
        total = sum(self.added[:level])
        older, newest_only = total - self.added[level - 1], level > 1
        return sum(total ** c.arity - newest_only * older ** c.arity for c in self.conns)

    def _tuples(self, stack: _Stack, members: np.ndarray, conn: np.ndarray, first: np.ndarray,
                sizes: np.ndarray, olds: np.ndarray, cells: int, unordered: bool = False):
        """Blocks of the applications, over set tuples, that take an
        argument from the newest level (at level 1, every one), as (n, 1 +
        arity) arrays of (connective, argument columns) rows sized for
        ``cells`` cells per application.  Set tuple t applies the connective
        ``conn[t]`` of ``stack`` and takes at argument position k the
        ``sizes[t, k]`` entries of ``members`` from ``first[t, k]`` on, of
        which the first ``olds[t, k]`` predate the newest level.  Box k of a
        set tuple, one per argument position, takes older entries before
        position k and newer ones at k.  Set tuples come in connective
        order, so the applications do too.

        With ``unordered``, a connective that commutes (``stack.gaps``)
        takes each unordered pair of columns once, and the caller gives it
        only one of two mirrored set tuples (S, T) and (T, S).  On a set
        tuple (S, S), whose sets start at one entry, it takes the pairs (i,
        j) of entries of S with j - i at least its gap, as a triangle of
        ``_blocks``: at level 1 over all of S, later over its newest
        entries, box 2 holding the older-newest rectangle."""
        gap = None
        if unordered and stack.commutes:
            gap = np.where(first[:, 0] == first[:, 1], stack.gaps[conn], -1)
        one = np.ones((len(conn), 1), dtype=np.intp)
        first, sizes, olds = (np.hstack([conn[:, None], first]), np.hstack([one, sizes]),
                              np.hstack([one, olds]))
        if len(self.added) > 1:
            k = np.arange(1 + stack.arity)  # the connective is position 0, always older
            before, at = k < k[1:, None], k == k[1:, None]  # [box, position]
            f, s, o = first[:, None], sizes[:, None], olds[:, None]
            shape = (len(first) * stack.arity, 1 + stack.arity)
            first = f + at * o  # [set tuple, box, position]
            sizes = np.where(before, o, s - at * o)
            if gap is not None:  # a triangle's box 1 takes the newest entries at both arguments
                newer = (gap >= 0) * olds[:, 2]
                first[:, 0, 2] += newer
                sizes[:, 0, 2] -= newer
                gap = np.hstack([gap[:, None], np.full((len(gap), 1), -1)]).ravel()
            first, sizes = first.reshape(shape), sizes.reshape(shape)
        positions = [np.arange(len(stack.names))] + [members] * stack.arity
        return _blocks(positions, first, sizes, cells, gap)

    def _eval(self, stack: _Stack, rows: np.ndarray, tup: np.ndarray) -> np.ndarray:
        """Kernel values of the applications ``tup`` over ``rows``, shape
        (len(tup), row width).  Applications of one connective gather from
        its own part of the stack and spend no pass over the cells on the
        connective's index; on wide rows, with a few applications a block,
        most blocks hold one connective."""
        conn, args = tup[:, 0], rows[tup[:, 1:].T]
        c = conn[0]
        if c == conn[-1]:  # applications come in connective order
            size = self.m ** stack.arity
            values = apply_connective(stack.flat[c * size:(c + 1) * size], self.m, args)
        else:
            lead = conn[:, None].astype(_index_dtype(len(stack.names)))
            values = apply_connective(stack.flat, self.m, [lead, *args])
        return np.broadcast_to(values, (len(tup), rows.shape[1]))

    def _word(self, stack: _Stack, app) -> str:
        words, precs, marks = self.words, self.precs, stack.marks[app[0]]
        return join_args(stack.names[app[0]], [f"({words[t]})" if marks[k][precs[t]] else words[t]
                                               for k, t in enumerate(app[1:])])

    def _application(self, stack: _Stack, app) -> App:
        return App(stack.names[app[0]], tuple(self.witness(t) for t in app[1:]))

    def witness(self, i: int) -> Formula:
        """The witness of column ``i``, built from the parent links on first
        use and kept: an explicit stack of the columns whose witnesses are
        still missing, each built once its arguments' are."""
        wits, parents = self.wits, self.parents
        todo = [i]
        while todo:
            j = todo[-1]
            if wits[j] is not None:
                todo.pop()
                continue
            stack, app = parents[j]
            missing = [t for t in app[1:] if wits[t] is None]
            if missing:
                todo += missing
                continue
            todo.pop()
            wits[j] = App(stack.names[app[0]], tuple(wits[t] for t in app[1:]))
        return wits[i]

    def _candidates(self, blocks, inside=None, limit=None, unordered=False) -> dict:
        """Evaluate (stack, applications) blocks.  For every resulting
        column that is not in the closure (and passes ``inside``), keep its
        least (length, word, values, stack, application) under its key, a
        Python int or the column's bytes (see ``row_keys``).  Each block
        first finds its rows of fresh columns (``_fresh_rows``: a table
        lookup before any sort where keys are small numerals, else a
        deduplication of the block and a search of the closure's sorted
        keys); the deduplication of the fresh columns and the rest run on
        those rows alone, which at deep levels are a few in a hundred.
        Their lengths come from the connective's text and the arguments'
        word lengths and precedences, and each block picks its shortest
        application of every fresh column with array operations, whichever
        connective of the stack it applies.  Only those winners reach
        Python: one word is joined per fresh column, and more only where
        applications of the column tie at the shortest length.  A winner's
        values are copied out of the block by its row, or, for a wide
        column, read from its bytes key, so each column is held once.
        Evaluation stops after the block that takes the count of new
        columns past ``limit``.  With ``unordered`` the blocks hold one
        application per unordered pair of a commuting connective, and each
        fresh row of one gets its mirror (c, b, a) before lengths are
        ranked, so the witness is the least over the ordered applications;
        bracketing can make the mirror the shorter."""
        best: dict = {}
        lens = np.array([len(w) for w in self.words], dtype=np.int64)
        precs = np.array(self.precs, dtype=np.int64)
        arg_lengths: dict[int, np.ndarray] = {}  # per arity: [connective, position, column]
        known = row_keys(self.values, self.m)
        fresh, wide = _fresh_rows(known, self.m, self.N), known.dtype.kind == "V"
        for stack, tup in blocks:
            vals = self._eval(stack, self.values, tup)
            if inside is not None:
                keep = inside(vals)
                tup, vals = tup[keep], vals[keep]
                if not len(tup):
                    continue
            rows, uniq, col = fresh(row_keys(vals, self.m))
            if not len(rows):
                continue
            extra = arg_lengths.get(stack.arity)
            if extra is None:
                extra = arg_lengths[stack.arity] = stack.brackets[:, :, precs] + lens
            apps = tup[rows]
            if unordered and stack.commutes:  # each unordered pair's mirror, on the row it shares
                mirror = (stack.gaps[apps[:, 0]] >= 0) & (apps[:, 1] != apps[:, 2])
                if mirror.any():
                    apps = np.concatenate([apps, apps[mirror][:, [0, 2, 1]]])
                    rows, col = np.concatenate([rows, rows[mirror]]), np.concatenate([col, col[mirror]])
            conn = apps[:, 0]
            length = stack.text[conn]
            for k in range(stack.arity):
                length += extra[conn, k, apps[:, k + 1]]
            # fresh applications by column, then length, then position: the
            # first of a column is its shortest, and those up to ``last`` tie
            # with it
            order = np.lexsort((length, col))
            rows, col, size, apps = rows[order], col[order], length[order], apps[order]
            first = np.flatnonzero(np.diff(col, prepend=-1))
            rank = col * (int(size.max()) + 1) + size
            last = rank.searchsorted(rank[first], side="right")
            for key, n, row, app, s, e in zip(uniq[col[first]].tolist(), size[first].tolist(),
                                              rows[first].tolist(), apps[first].tolist(),
                                              first.tolist(), last.tolist()):
                old = best.get(key)
                if old is not None and old[0] < n:
                    continue
                if e - s > 1:  # tied applications give one column: ``row`` holds its values
                    word, app = min((self._word(stack, a), a) for a in apps[s:e].tolist())
                else:
                    word = self._word(stack, app)
                if old is None:
                    # a wide column's bytes key is its only copy
                    values = np.frombuffer(key, np.uint8) if wide else vals[row].copy()
                    best[key] = (n, word, values, stack, app)
                elif (n, word) < old[:2]:  # the same column: keep the values held
                    best[key] = (n, word, old[2], stack, app)
            if limit is not None and len(best) > limit:
                break
        return best

    def grow(self, max_new: Optional[int] = None) -> int:
        """Materialise the next level fully; returns the number of new columns.

        When the level holds more than ``max_new`` new columns it is dropped
        unfinished and uncommitted, and ``max_new + 1`` is returned: the
        count at the first new column past the limit.  That count does not
        depend on the order or the blocks in which applications are
        evaluated.  A level of more applications than one block holds takes
        each unordered pair of a commuting connective once (``_tuples``);
        a smaller one saves too few rows to pay for the bookkeeping."""
        members = np.arange(self.total)

        def every(stack):  # a set tuple per connective, every column at each position
            shape = (len(stack.names), stack.arity)
            return (np.arange(shape[0]), np.zeros(shape, dtype=np.intp),
                    np.full(shape, self.total), np.full(shape, self.frontier))

        unordered = self.app_count(len(self.added)) > _step(self.N)
        blocks = ((s, tup) for s in self.stacks
                  for tup in self._tuples(s, members, *every(s), self.N, unordered))
        best = self._candidates(blocks, limit=max_new, unordered=unordered)
        if max_new is not None and len(best) > max_new:
            return max_new + 1
        return self._commit(best.values())

    def scan_existing(self, lower: np.ndarray, upper: np.ndarray,
                      start: int = 0, stop: Optional[int] = None) -> Optional[int]:
        """First committed column inside [lower, upper], in closure order,
        among the columns ``start:stop``."""
        leq, rows = self.lat.leq, self.values[start:stop]
        ok = (leq[lower, rows] & leq[rows, upper]).all(axis=1)
        return start + int(ok.argmax()) if ok.any() else None

    def stream_scan(self, lower: np.ndarray,
                    upper: np.ndarray) -> Optional[tuple[np.ndarray, str, Formula]]:
        """Search the next level's candidates for a column inside the bounds
        without materialising the level, in three stages, each over all the
        connectives of one arity at once.

        1. Probe groups: a candidate's values at the ``PROBES`` probe
           positions depend only on the argument values there, so columns are
           grouped by probe signature, and applications to tuples of group
           representatives are filtered through per-probe fit tables
           (``_probe_fits``).
        2. Screen: every application of a surviving group tuple is evaluated
           at ``SCREEN_WIDTH`` positions (skipped when the grid is no wider).
        3. Full width: the applications that fit there are evaluated over the
           whole grid and checked against the bounds.

        Probe and screen positions are spread over the valuation grid, so
        every variable varies among them.  Returns (values, word, witness) for
        the first fitting new column in closure order, with its canonical
        witness: observationally identical to growing the level and scanning
        it.  More than MAX_SURVIVORS applications after the probe groups,
        counted ordered, raise BUDGET_EXCEEDED.  When they fill more than
        one block, a commuting connective takes each unordered pair once:
        group tuples (g1, g2) with g1 <= g2, and inside g1 == g2 a triangle.
        """
        leq = self.lat.leq
        probes = _spread(PROBES, self.N)
        signatures = self.values[:, probes]
        _, first, group = np.unique(row_keys(signatures, self.m),
                                    return_index=True, return_inverse=True)
        reps = signatures[first]
        sizes = np.bincount(group, minlength=len(reps))
        olds = np.bincount(group[:self.frontier], minlength=len(reps))
        # a group's members, in ``order``, come older ones first
        order, starts = np.argsort(group, kind="stable"), np.cumsum(sizes) - sizes

        # between[l, u, v] is 1 where l <= v <= u, else 0: a ternary table
        between = (leq[:, None, :] & leq.T[None, :, :]).view(np.uint8)

        def inside(at):
            bounds = lower[at], upper[at]
            return lambda vals: apply_connective(between.ravel(), self.m,
                                                 (*bounds, vals)).all(axis=1)

        allowed = between[lower[probes], upper[probes]]  # [probe, value]
        plan, survivors = [], 0
        for stack in self.stacks:
            fits = _probe_fits(allowed[:, stack.flat], self.m, reps, stack.arity)
            survivors += self._count_new(sizes[fits[:, 1:]], olds[fits[:, 1:]])
            plan.append((stack, fits))
        if survivors > MAX_SURVIVORS:
            raise BudgetExceeded(
                f"envelope scan produced {survivors} candidate applications",
                survivors=survivors,
            )
        unordered = survivors > _step(self.N)

        def set_tuples(stack, fits):
            if unordered and stack.commutes:  # of two mirrored group tuples, the increasing one
                fits = fits[(stack.gaps[fits[:, 0]] < 0) | (fits[:, 1] <= fits[:, 2])]
            groups = fits[:, 1:]
            return fits[:, 0], starts[groups], sizes[groups], olds[groups]

        if self.N <= SCREEN_WIDTH:
            def blocks(stack, fits):
                return self._tuples(stack, order, *set_tuples(stack, fits), self.N, unordered)
        else:
            screen = _spread(SCREEN_WIDTH, self.N)
            rows, at_screen = self.values[:, screen], inside(screen)

            def blocks(stack, fits):
                tuples = self._tuples(stack, order, *set_tuples(stack, fits), len(screen), unordered)
                return _rechunk((tup[at_screen(self._eval(stack, rows, tup))] for tup in tuples),
                                _step(self.N))

        best = self._candidates(((stack, tup) for stack, fits in plan
                                 for tup in blocks(stack, fits)),
                                inside(np.arange(self.N)), unordered=unordered)
        if not best:
            return None
        _, word, values, stack, app = min(best.values(), key=lambda e: e[:2])
        return values, word, self._application(stack, app)

    def column(self, i: int) -> ValueColumn:
        """Column ``i``, whose witness is built when it is first read."""
        return _ClosureColumn(self, i)

    def result(self, complete: bool, note: Optional[str], levels: int) -> ClosureResult:
        """The closure cut to its first ``levels`` levels, as a result."""
        added = self.added[:levels]
        cumulative = list(accumulate(added))
        return ClosureResult(
            self.var_list,
            [self.column(i) for i in range(sum(added))],
            complete,
            cumulative,
            added,
            tuple(c.name for c in self.conns),
            budget_note=note,
        )


def closure_ladder(lat: Lattice, var_list: tuple[str, ...]) -> ClosureState:
    """The lattice's shared ladder over ``var_list``, made on first use (see
    the module docstring)."""
    ladders = lat.derived.setdefault("closure_ladders", {})
    ladder = ladders.get(var_list)
    if ladder is None:
        ladder = ladders[var_list] = ClosureState(lat, var_list)
        ladder.scanned_level = 0
        ladder.values.flags.writeable = False
    return ladder


def walk_closure(state: ClosureState, budget: ClosureBudget,
                 bounds: Optional[tuple[np.ndarray, np.ndarray]]):
    """The level loop (see the module docstring): walk ``state``, a closure
    of its own or the shared ladder, from level 0 until a column inside
    ``bounds`` (lower, upper), a budget or the fixpoint.  Without bounds no
    level is scanned.

    Returns (found, state, levels, note): ``found`` is (values, word,
    witness) or None, and the closure walked is the first ``levels`` levels
    of ``state``, the state walked last: those before the level where a
    column was found (level 0 itself when found there), a budget stopped
    the walk or the fixpoint was confirmed.  ``note`` says which budget
    stopped it, and is None at the fixpoint."""
    start = k = 0  # level k starts at column ``start``
    while True:
        held = k < len(state.added)
        shared = state.scanned_level is not None
        if not held and shared:
            if state.app_count(k) * state.N > BLOCK_CELLS:
                state, shared = state.copy(), False
            elif state.scanned_level < k:  # the first search to reach level k
                state.scanned_level = k
            else:
                state.grow()
                held = True
        if bounds is not None:
            if held:
                hit = state.scan_existing(*bounds, start, start + state.added[k])
                found = hit is not None and (state.values[hit], state.words[hit],
                                             state.witness(hit))
            else:
                try:  # never raises on the ladder: a level there is at most a block
                    found = state.stream_scan(*bounds)
                except BudgetExceeded as exc:
                    return None, state, k, exc.message
            if found:
                return found, state, max(k, 1), None
        if k:
            apps = state.app_count(k)
            if budget.max_levels is not None and k > budget.max_levels:
                return None, state, k, f"level budget {budget.max_levels} reached"
            if apps > budget.max_apps_per_level:
                return None, state, k, (f"next level needs {apps} applications, "
                                        f"budget is {budget.max_apps_per_level}")
            room = max(0, budget.max_columns - start)
            if held:
                added = state.added[k]
            elif shared:  # the ladder keeps whole levels
                added = state.grow()
            else:  # past ``room`` the level is dropped uncommitted: room + 1
                added = state.grow(room)
            if added > room:
                return None, state, k, (f"column budget {budget.max_columns} exceeded at "
                                        f"{max(start, budget.max_columns) + 1} columns")
            if not added:
                return None, state, k, None
        start, k = start + state.added[k], k + 1


def representable_closure(lat: Lattice, var_list: Sequence[str],
                          budget: Optional[ClosureBudget] = None,
                          connectives: Optional[Sequence[str]] = None) -> ClosureResult:
    """Level-wise closure of the representable functions over ``var_list``.

    Runs to the fixpoint by default; the budget bounds the number of grown
    levels, the columns and the applications per level.  A truncated run is
    returned with ``complete=False`` and a budget note.  A name that does not
    parse as a propositional variable is an input error.
    """
    for name in var_list:
        try:
            variable = parse_formula(name, lat.signature) == PropVar(name)
        except LatlogError:
            variable = False
        if not variable:
            raise LatlogError(f"{name!r} is not a propositional variable", variable=name)
    _, state, levels, note = walk_closure(ClosureState(lat, var_list, connectives),
                                          budget or ClosureBudget(), None)
    return state.result(note is None, note, levels)


def constant_values(lat: Lattice) -> dict[str, Formula]:
    """Values of the closed words (the 0-variable closure), mapped to their
    witness words, in discovery order.  Built once per lattice and kept in
    ``lat.derived``; each call returns a fresh dict."""
    values = lat.derived.get("constant_values")
    if values is None:
        values = lat.derived["constant_values"] = {
            lat.elements[int(col.values[0])]: col.witness
            for col in representable_closure(lat, ()).columns}
    return dict(values)


# ---------------------------------------------------------------------------
# envelopes


@dataclass
class EnvelopePair:
    shared: tuple[str, ...]
    lower: ValueColumn
    upper: ValueColumn


def envelopes(a: Formula, b: Formula, lat: Lattice,
              var_cap: Optional[int] = None) -> EnvelopePair:
    """Tightest bounds an interpolant for a -> b must fall between, as columns
    over the shared variables: the join of the antecedent over all extensions
    of its private variables, and the meet of the succedent likewise.  A
    private variable of one sign is held at the end of the order where the
    join or meet is reached, so only those of mixed sign are folded.
    Raises NOT_VALID when a -> b fails."""
    report = is_valid_implication(a, b, lat, var_cap)
    if not report.valid:
        raise NotValidError("the implication is not valid",
                            countervaluation=report.countervaluation)
    return report.envelopes

