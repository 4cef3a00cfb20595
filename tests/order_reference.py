"""Slow reference for the partial-order code of ``latlog.algebra``.

The loops the order matrix replaced, one pair or one candidate at a time:
the closure of covering pairs with its antisymmetry test and its meet and
join search, the polarity check of each comparable pair, the set fixpoint of
a frame, the up-set tables built subset by subset, and the residuum's
survivor scan and case analysis.  ``latlog.algebra`` must give the same
tables, the same reports and the same errors (class, message and details).
"""
import itertools

import numpy as np

from latlog.algebra import IMP, MEET, ResiduumCase, ResiduumReport
from latlog.errors import LatticeAxiomViolation, PolarityViolation


def _first_mismatch(bad):
    return tuple(int(x) for x in np.argwhere(bad)[0])


def order_tables(elements, covers):
    """The closed order of an ``order`` section and its meet and join
    tables, or the LatticeAxiomViolation the section raises."""
    m = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    rel = np.eye(m, dtype=bool)
    for a, b in covers:
        rel[index[a], index[b]] = True
    for k in range(m):
        rel |= rel[:, k][:, None] & rel[k, :][None, :]
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
    return rel, meet_t, join_t


def _decode_index(flat_index, m, arity):
    out = []
    for _ in range(arity):
        out.append(flat_index % m)
        flat_index //= m
    return tuple(reversed(out))


def polarity_violation(connectives, leq, elements):
    """The PolarityViolation of the first connective, given as (name,
    polarity, index table) in declaration order, that breaks its polarity
    in the order ``leq``, or None."""
    m = len(elements)
    leq_flat = leq.reshape(-1)
    for name, pol, t in connectives:
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
                        return PolarityViolation(
                            f"connective {name!r} is not {kind} in argument {pos + 1} "
                            f"for {elements[a]} <= {elements[b]} at {witness}",
                            connective=name, position=pos + 1,
                            pair=(elements[a], elements[b]), arguments=witness,
                        )
    return None


def frame_order(worlds, pairs):
    """The reflexive and transitive closure of a frame's pairs, as a set of
    world pairs, by the set fixpoint; antisymmetry is left to the caller."""
    rel = {(w, w) for w in worlds}
    rel.update(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def upset_tables(worlds, order):
    """Names of the up-sets of a frame, and its join, meet, godel and heyting
    tables as flat lists of names, built subset by subset."""
    ups = []
    for bits in itertools.product((False, True), repeat=len(worlds)):
        s = frozenset(w for w, b in zip(worlds, bits) if b)
        if all((a, b) not in order or b in s for a in s for b in worlds):
            ups.append(s)
    ups.sort(key=lambda s: (len(s), tuple(sorted(s))))
    single = all(len(w) == 1 for w in worlds)
    names = ["0" if not s else ("" if single else "_").join(sorted(s)) for s in ups]
    if len(set(names)) != len(names):
        names = [f"u{i}" for i in range(len(ups))]
    pos = {s: i for i, s in enumerate(ups)}
    full = frozenset(worlds)

    def heyting(u, v):
        return frozenset(w for w in worlds
                         if all(w2 not in u or w2 in v for w2 in worlds if (w, w2) in order))

    out = {"|": [], "&": [], "godel": [], "heyting": []}
    for u in ups:
        for v in ups:
            out["|"].append(names[pos[u | v]])
            out["&"].append(names[pos[u & v]])
            out["godel"].append(names[pos[full if u <= v else v]])
            out["heyting"].append(names[pos[heyting(u, v)]])
    return names, out


def derive_residuum(lat):
    """The residuum report by the survivor scan: every candidate of every
    pair, in order, against the whole rows of the order."""
    m = lat.m
    els = lat.elements
    leq = lat.leq
    imp = lat.tables[IMP]
    meet = lat.tables[MEET]

    def case_analysis(x, y):
        cases = []
        need_xy = leq[x, imp[y]]
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
                return ResiduumReport(residuated=False, failing_pair=(els[x], els[y]),
                                      cases=case_analysis(x, y))
            table[x, y] = survivor

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
    return ResiduumReport(residuated=True,
                          table=[[els[int(table[i, j])] for j in range(m)] for i in range(m)])
