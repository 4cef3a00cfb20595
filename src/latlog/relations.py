"""Representability by binary invariants, and the interpolation test of one
bucket built on them.

The lattice median is a majority term, so by the Baker–Pixley theorem a
function is representable exactly when it preserves the subuniverses of A²
(``BinaryInvariants``).  The relations are closed under join and meet, so
the greatest representable column below a bound and the least one above it
come from one arc-consistency fixpoint, and ``first_failing_upper`` decides
a (left, shared, right) bucket of ``interp.decide_interpolation`` without
pairing closure columns.

Everything here is built per lattice on first use.  ``interp`` imports this
module only when a decision reaches its buckets, so importing ``latlog``
does not compile it.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .algebra import JOIN, MEET, Lattice
from .propcore import BLOCK_CELLS, _fold_axis, _projection, apply_connective

# applications one round of subuniverse generation may take per mask; beyond
# it (binary connectives on lattices of more than 45 elements) the
# relational test is unavailable
MAX_RELATION_CELLS = 1 << 22


def _points(m: int, n: int) -> np.ndarray:
    """The m**n valuations of n variables as rows of element indices, in
    lexicographic order."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.uint8)
    return np.stack([_projection(m, n, k) for k in range(n)], axis=1)


def _with_sentinel(flat: np.ndarray, m: int) -> np.ndarray:
    """A binary table extended by a sentinel value m that absorbs, flattened."""
    out = np.full((m + 1, m + 1), m, dtype=np.uint8)
    out[:m, :m] = flat.reshape(m, m)
    return out.reshape(-1)


class BinaryInvariants:
    """The subuniverses of A² that decide representability.

    Every signature holds ``&`` and ``|``, so the lattice median is a
    majority term.  By the Baker–Pixley theorem a function g over n
    variables is then representable exactly when, for every pair of
    valuations p and q, the pair (g(p), g(q)) lies in the subuniverse of A²
    generated by the coordinate pairs (p_i, q_i) and the pairs (c, c) of the
    constants.  That subuniverse depends only on the set of coordinate
    pairs, an m²-bit mask (bit a*m + b for the pair (a, b)).  Each mask that
    occurs is generated once; equal subuniverses share one relation id.

    The relations are closed under ``|`` and ``&``, so "representable and
    below a bound" is a constraint problem closed under join, and "above a
    bound" one closed under meet; ``extreme`` solves both by arc
    consistency (Jeavons, Cohen and Gyssens, JACM 44, 1997).
    """

    def __init__(self, lat: Lattice):
        self.lat = lat
        m = self.m = lat.m
        self.words = -(-m * m // 64)  # uint64 words per mask
        # applications of the widest connective to tuples of pairs, per mask
        self._widest = max([(m * m) ** c.arity for c in lat.signature.connectives] + [1])
        self.available = self._widest <= MAX_RELATION_CELLS
        self.relations = np.zeros((0, m, m), dtype=bool)
        self.join = _with_sentinel(lat.flat(JOIN), m)
        self.meet = _with_sentinel(lat.flat(MEET), m)
        self._by_mask: dict[bytes, int] = {}
        self._by_relation: dict[bytes, int] = {}
        self._grids: dict[int, np.ndarray] = {}
        self._targets: Optional[list] = None
        self._arc: Optional[tuple[np.ndarray, np.ndarray]] = None

    def __getitem__(self, mask: int) -> np.ndarray:
        """The m×m subuniverse generated by the pairs whose bits ``mask`` sets."""
        words = np.array([[(mask >> (64 * w)) & (2 ** 64 - 1) for w in range(self.words)]],
                         dtype=np.uint64)
        rel = self._ids_of_masks(words)[0]  # may extend self.relations
        return self.relations[rel]

    def ids(self, n: int) -> np.ndarray:
        """Relation id of every pair (p, q) of valuations of n variables,
        shape (m**n, m**n)."""
        got = self._grids.get(n)
        if got is None:
            m = self.m
            pts = _points(m, n).astype(np.intp)
            N = len(pts)
            masks = np.empty((N, N, self.words), dtype=np.uint64)
            step = max(1, BLOCK_CELLS // (N * max(n, 1)))
            for start in range(0, N, step):
                codes = (pts[start:start + step, None, :] * m + pts[None, :, :]).astype(np.uint64)
                for w in range(self.words):
                    bits = np.where(codes // 64 == w, np.left_shift(np.uint64(1), codes % 64),
                                    np.uint64(0))
                    masks[start:start + step, :, w] = np.bitwise_or.reduce(bits, axis=-1)
            uniq, inv = np.unique(masks.reshape(-1, self.words), axis=0, return_inverse=True)
            got = self._grids[n] = self._ids_of_masks(uniq)[inv.reshape(-1)].reshape(N, N)
        return got

    def _ids_of_masks(self, masks: np.ndarray) -> np.ndarray:
        """Relation ids of distinct (k, words) masks, generating new ones."""
        keys = [row.tobytes() for row in masks]
        new = [i for i, key in enumerate(keys) if key not in self._by_mask]
        if new:
            codes = np.arange(self.m * self.m)
            seeds = ((masks[new][:, codes // 64] >> (codes % 64).astype(np.uint64))
                     & np.uint64(1)).astype(bool)
            step = max(1, MAX_RELATION_CELLS // self._widest)
            grown = [self._generate(seeds[i:i + step]) for i in range(0, len(seeds), step)]
            rels = []
            for i, rel in zip(new, np.concatenate(grown)):
                key = np.packbits(rel).tobytes()
                if key not in self._by_relation:
                    self._by_relation[key] = len(self.relations) + len(rels)
                    rels.append(rel)
                self._by_mask[keys[i]] = self._by_relation[key]
            if rels:
                self.relations = np.concatenate(
                    [self.relations, np.array(rels).reshape(-1, self.m, self.m)])
        return np.array([self._by_mask[key] for key in keys], dtype=np.intp)

    def _generate(self, seeds: np.ndarray) -> np.ndarray:
        """Subuniverses generated by (k, m*m) boolean seed sets, in rounds:
        each round applies every connective to every tuple of pairs held."""
        m = self.m
        if self._targets is None:
            self._targets = []
            for conn in self.lat.signature.connectives:
                codes = np.arange((m * m) ** conn.arity)
                digits = [(codes // (m * m) ** (conn.arity - 1 - j)) % (m * m)
                          for j in range(conn.arity)]
                flat = self.lat.flat(conn.name)
                first = apply_connective(flat, m, [d // m for d in digits])
                second = apply_connective(flat, m, [d % m for d in digits])
                self._targets.append((conn.arity, np.asarray(first, dtype=np.intp) * m
                                      + np.asarray(second, dtype=np.intp)))
        rel = seeds.copy()
        for c in self.lat.constants.values():
            rel[:, c * m + c] = True
        while True:
            grown = rel.copy()
            for arity, target in self._targets:
                if arity == 0:
                    grown[:, target] = True
                    continue
                prod = rel
                for _ in range(arity - 1):
                    prod = (prod[:, :, None] & rel[:, None, :]).reshape(len(rel), -1)
                k, src = np.nonzero(prod)
                grown[k, target[src]] = True
            if (grown == rel).all():
                return rel
            rel = grown

    def _arc_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (relation, c, d) tables over the elements and the
        sentinel m: the greatest a <= d with (a, b) in the relation for some
        b <= c, and the least a >= d with (a, b) in it for some b >= c; m
        when there is none.  Both sets are closed under the operation that
        picks their extreme element, so the extreme element is the member
        with the most (fewest) elements below it."""
        R = len(self.relations)
        if self._arc is None or len(self._arc[0]) != R * (self.m + 1) ** 2:
            m, leq = self.m, self.lat.leq
            rel, order = self.relations.astype(np.int32), leq.astype(np.int32)
            rank = leq.sum(axis=0)  # elements below each element

            def pick(members, score):
                scored = np.where(members, score, 0)
                best = scored.argmax(axis=-1)
                best[scored.max(axis=-1) == 0] = m
                out = np.full((R, m + 1, m + 1), m, dtype=np.uint8)
                out[:, :m, :m] = best
                return out.reshape(-1)

            down = ((rel @ order) > 0).transpose(0, 2, 1)  # [rel, c, a]: some b <= c
            up = ((rel @ order.T) > 0).transpose(0, 2, 1)  # [rel, c, a]: some b >= c
            self._arc = (pick(down[:, :, None, :] & leq.T[None, None], rank + 1),
                         pick(up[:, :, None, :] & leq[None, None], m + 1 - rank))
        return self._arc

    def extreme(self, bounds: np.ndarray, n: int, greatest: bool) -> np.ndarray:
        """For each row of ``bounds`` (values over the m**n valuations of n
        variables): the greatest representable column below it
        (``greatest``) or the least one above it; a row with none comes back
        filled with the sentinel m.

        One assignment per row starts at the bound and is lowered (raised)
        at every valuation p to the meet (join) over q of the extreme value
        the pair relation of (p, q) allows next to the value at q.  Every
        representable column inside the bound stays inside the assignment,
        and at the fixpoint each pair (v(p), v(q)) joins (meets) two
        supported pairs into one in its relation, so the fixpoint is the
        extreme solution."""
        m1 = self.m + 1
        base = self.ids(n).astype(np.intp) * m1
        table = self._arc_tables()[0 if greatest else 1]
        fold = self.meet if greatest else self.join
        out = np.array(bounds, dtype=np.uint8)
        step = max(1, (BLOCK_CELLS << 4) // base.size)
        for start in range(0, len(out), step):
            v = out[start:start + step]
            active = np.arange(len(v))
            while len(active):
                cur = v[active]
                new = _fold_axis(table[(base + cur[:, None, :]) * m1 + cur[:, :, None]], fold, m1)
                moved = (new != cur).any(axis=1)
                v[active] = new
                active = active[moved]
        return out

    def _pair_ok(self, values: np.ndarray, n: int) -> np.ndarray:
        """(k, m**n, m**n) booleans: whether (g(p), g(q)) lies in the pair
        relation, for each row g of ``values``."""
        m = self.m
        v = values.astype(np.intp)
        base = self.ids(n).astype(np.intp) * (m * m)
        return self.relations.reshape(-1)[base + v[:, :, None] * m + v[:, None, :]]

    def is_representable(self, values: np.ndarray, n: int) -> np.ndarray:
        """Whether each column (the last axis of ``values``, m**n values
        over n variables) is the column of a word."""
        values = np.asarray(values)
        rows = values.reshape(-1, values.shape[-1])
        out = np.empty(len(rows), dtype=bool)
        step = max(1, (BLOCK_CELLS << 4) // rows.shape[1] ** 2)
        for start in range(0, len(rows), step):
            out[start:start + step] = self._pair_ok(rows[start:start + step], n).all(axis=(1, 2))
        return out.reshape(values.shape[:-1])

    def violation(self, values: np.ndarray, n: int) -> Optional[tuple[int, int]]:
        """The first pair of valuations (p, q) whose pair relation does not
        hold (values[p], values[q]), or None for a representable column."""
        bad = np.argwhere(~self._pair_ok(np.asarray(values)[None], n)[0])
        return (int(bad[0, 0]), int(bad[0, 1])) if len(bad) else None


def binary_invariants(lat: Lattice) -> BinaryInvariants:
    """The lattice's ``BinaryInvariants``, built on first use and kept on it."""
    inv = lat.derived.get("binary_invariants")
    if inv is None:
        inv = lat.derived["binary_invariants"] = BinaryInvariants(lat)
    return inv


def point_solutions(inv: BinaryInvariants, l: int, s: int, r: int, left: bool) -> np.ndarray:
    """Extreme columns for the point bounds of a bucket, shape (m**s, m, grid).

    Left side (``left``): entry [y0, a] is the greatest representable column
    over the left and shared variables below the bound that is a at shared
    valuation y0 and top elsewhere.  Right side: the least representable
    column over the shared and right variables above the bound that is a at
    y0 and bottom elsewhere.  Rows without one hold the sentinel m."""
    m, S = inv.m, inv.m ** s
    bounds = np.full((S, m, S), inv.lat.top if left else inv.lat.bottom, dtype=np.uint8)
    bounds[np.arange(S), :, np.arange(S)] = np.arange(m, dtype=np.uint8)
    if left:  # grid [x, y]
        grid = np.broadcast_to(bounds[:, :, None, :], (S, m, m ** l, S))
    else:  # grid [y, z]
        grid = np.broadcast_to(bounds[:, :, :, None], (S, m, S, m ** r))
    n = l + s if left else s + r
    return inv.extreme(grid.reshape(S * m, m ** n), n, greatest=left).reshape(S, m, m ** n)


def fold_points(table: np.ndarray, uppers: np.ndarray, flat: np.ndarray, m: int) -> np.ndarray:
    """For each row U of ``uppers``: the fold with ``flat`` (over the
    elements and the sentinel m) of table[y0, U[y0]] over the shared
    valuations y0."""
    acc = table[0][uppers[:, 0]]
    for y0 in range(1, uppers.shape[1]):
        acc = apply_connective(flat, m + 1, (acc, table[y0][uppers[:, y0]]))
    return acc


def first_failing_upper(inv: BinaryInvariants, l: int, s: int, r: int, uppers: np.ndarray,
                         closed: bool) -> Optional[tuple[int, np.ndarray]]:
    """(index, L_U) of the first row U of ``uppers`` that fails the bucket
    (l, s, r), or None.

    U fails when it is an upper envelope and L_U, the greatest lower
    envelope below it, is not representable: an interpolant g for the pair
    (L_U, U) would lie in the lower envelopes and below U, so g <= L_U <= g.
    The least (greatest) representable column above (below) U is monotone
    and preserves joins (meets), as representable columns are closed under
    both; so it is the join (meet) over the shared valuations y0 of the
    point solutions at (y0, U(y0)).  U is an upper envelope when folding its
    least column above by meet over the right variables gives U back; this
    test is skipped when the rows are known envelopes (``closed``).  L_U is
    the greatest column below U folded by join over the left variables."""
    m, S = inv.m, inv.m ** s
    below = point_solutions(inv, l, s, r, left=True)
    above = None if closed else point_solutions(inv, l, s, r, left=False)
    step = max(1, (BLOCK_CELLS << 4) // (S * m ** (s + max(l, r))))
    for start in range(0, len(uppers), step):
        U = uppers[start:start + step]
        keep = np.ones(len(U), dtype=bool)
        if above is not None:
            least = fold_points(above, U, inv.join, m).reshape(len(U), S, m ** r)
            keep = (_fold_axis(least, inv.meet, m + 1) == U).all(axis=1)
        greatest = fold_points(below, U, inv.meet, m).reshape(len(U), m ** l, S)
        lower = _fold_axis(greatest.swapaxes(1, 2), inv.join, m + 1)
        keep &= (lower < m).all(axis=1)  # some lower envelope lies below U
        idx = np.flatnonzero(keep)
        bad = idx[~inv.is_representable(lower[idx], s)]
        if len(bad):
            return start + int(bad[0]), lower[bad[0]]
    return None
