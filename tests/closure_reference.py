"""Slow reference closure for differential tests.

One connective application at a time: every argument tuple of the next
level is evaluated straight off the n-dimensional tables and its witness
rendered, and each new column keeps the least (rendered length, word).  No
code is shared with ``latlog.propcore`` beyond the lattice and the renderer.
"""
import itertools

import numpy as np

from latlog import App, Const, PropVar, render


def _projection(m, n, k):
    return ((np.arange(m ** n) // m ** (n - 1 - k)) % m).astype(np.uint8)


class ReferenceClosure:
    def __init__(self, lat, var_list, connectives=None):
        self.lat = lat
        self.var_list = tuple(var_list)
        names = lat.signature.names() if connectives is None else tuple(connectives)
        self.conns = [c for c in lat.signature.connectives if c.name in names]
        self.N = lat.m ** len(self.var_list)
        self.cols, self.words, self.wits, self.levels = [], [], [], []
        self.index = {}
        self.level_starts = [0]
        self.added = []
        self.apps = [0]  # applications evaluated per level
        level0 = [(_projection(lat.m, len(self.var_list), k), PropVar(v))
                  for k, v in enumerate(self.var_list)]
        level0 += [(np.full(self.N, c, dtype=np.uint8), Const(name))
                   for name, c in lat.constants.items()]
        self._commit(level0)

    def _commit(self, candidates):
        best = {}
        for values, wit in candidates:
            key = values.tobytes()
            if key in self.index:
                continue
            word = render(wit)
            if key not in best or (len(word), word) < best[key][:2]:
                best[key] = (len(word), word, wit, values)
        level = len(self.added)
        for _, word, wit, values in sorted(best.values(), key=lambda e: e[:2]):
            self.index[values.tobytes()] = len(self.cols)
            self.cols.append(values)
            self.words.append(word)
            self.wits.append(wit)
            self.levels.append(level)
        self.added.append(len(best))
        self.level_starts.append(len(self.cols))
        return len(best)

    def grow(self):
        first_level = len(self.added) == 1
        frontier = self.level_starts[-2]
        candidates = []
        for conn in self.conns:
            table = self.lat.tables[conn.name]
            for tup in itertools.product(range(len(self.cols)), repeat=conn.arity):
                if not first_level and (not tup or max(tup) < frontier):
                    continue
                values = np.array([table[tuple(int(self.cols[t][i]) for t in tup)]
                                   for i in range(self.N)], dtype=np.uint8)
                candidates.append((values, App(conn.name, tuple(self.wits[t] for t in tup))))
        self.apps.append(len(candidates))
        return self._commit(candidates)


def reference_closure(lat, var_list, level_cap=None, connectives=None):
    """(words, levels, cumulative, complete) of the closure, grown to the
    fixpoint or to ``level_cap`` levels."""
    ref = ReferenceClosure(lat, var_list, connectives)
    complete = False
    while level_cap is None or len(ref.added) - 1 < level_cap:
        if ref.grow() == 0:
            ref.added.pop()
            complete = True
            break
    cumulative = list(itertools.accumulate(ref.added))
    return ref.words, ref.levels, cumulative, complete


def first_fit_next_level(ref, lower, upper):
    """Grow ``ref`` one level and return (values, word) of its first new
    column inside [lower, upper], or None."""
    leq = ref.lat.leq
    start = len(ref.cols)
    ref.grow()
    for values, word in zip(ref.cols[start:], ref.words[start:]):
        if leq[lower, values].all() and leq[values, upper].all():
            return values, word
    return None
