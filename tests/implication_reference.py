"""Unfolded reference for the factored implication check.

Every private variable keeps a grid axis: the antecedent is evaluated over
all valuations of its shared and private variables, the succedent likewise,
and the private axes are folded by join and by meet.  A failing check reads
its countervaluation off the two full grids.  The folded check in
``latlog.propcore`` must agree with it on the verdict, the envelopes, the
countervaluation and the count of valuations checked.
"""
from dataclasses import dataclass
from typing import Optional

import numpy as np

from latlog.algebra import JOIN, MEET, Lattice
from latlog.errors import BudgetExceeded
from latlog.propcore import DEFAULT_VAR_CAP, _decode_valuation, _fold_axis, column_of
from latlog.syntax import Formula, prop_variables


@dataclass
class ImplicationParts:
    shared: tuple[str, ...]
    left: tuple[str, ...]
    right: tuple[str, ...]
    lower: np.ndarray  # join over left extensions of the antecedent
    upper: np.ndarray  # meet over right extensions of the succedent
    a_grid: np.ndarray  # shape (m^s, m^l)
    b_grid: np.ndarray  # shape (m^s, m^r)


def _implication_parts(a: Formula, b: Formula, lat: Lattice,
                       var_cap: Optional[int] = None) -> ImplicationParts:
    cap = DEFAULT_VAR_CAP if var_cap is None else var_cap
    va, vb = prop_variables(a), prop_variables(b)
    shared = tuple(sorted(va & vb))
    left = tuple(sorted(va - vb))
    right = tuple(sorted(vb - va))
    m = lat.m
    if max(len(shared) + len(left), len(shared) + len(right)) > cap:
        raise BudgetExceeded(
            f"implication check needs grids over {len(shared) + len(left)} and "
            f"{len(shared) + len(right)} variables, cap is {cap}",
            cap=cap,
        )
    a_col = column_of(a, lat, shared + left).reshape(m ** len(shared), m ** len(left))
    b_col = column_of(b, lat, shared + right).reshape(m ** len(shared), m ** len(right))
    lower = _fold_axis(a_col, lat.flat(JOIN), m)
    upper = _fold_axis(b_col, lat.flat(MEET), m)
    return ImplicationParts(shared, left, right, lower, upper, a_col, b_col)


def _implication_counter(parts: ImplicationParts, lat: Lattice) -> dict[str, str]:
    leq = lat.leq
    bad_shared = np.nonzero(~leq[parts.lower, parts.upper])[0]
    s = int(bad_shared[0])
    arow = parts.a_grid[s]
    brow = parts.b_grid[s]
    bad = ~leq[arow[:, None], brow[None, :]]
    l, r = (int(x) for x in np.argwhere(bad)[0])
    out = {}
    out.update(_decode_valuation(s, parts.shared, lat))
    out.update(_decode_valuation(l, parts.left, lat))
    out.update(_decode_valuation(r, parts.right, lat))
    return dict(sorted(out.items()))


def reference_implication(a: Formula, b: Formula, lat: Lattice,
                          var_cap: Optional[int] = None):
    """(valid, lower, upper, countervaluation or None, valuations checked)."""
    parts = _implication_parts(a, b, lat, var_cap)
    valid = bool(lat.leq[parts.lower, parts.upper].all())
    counter = None if valid else _implication_counter(parts, lat)
    return valid, parts.lower, parts.upper, counter, parts.a_grid.size + parts.b_grid.size
