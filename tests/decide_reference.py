"""Slow reference decision procedure for differential tests.

The enumeration of ``decide_interpolation`` one pair of representable
columns at a time: each column is folded to its envelope on its own, and
each pair is compared, and searched for a shared column between its
envelopes, with its own numpy calls.  Pairs are counted one by one against
the pair budget.
"""
import itertools
from typing import Optional

from latlog.algebra import JOIN, MEET, Lattice
from latlog.interp import (
    NO,
    UNKNOWN,
    YES,
    DecideBudget,
    DecisionReport,
    InterpolationVerdict,
    _left_vars,
    _right_vars,
    _shared_vars,
    constructive_interpolant_all_constants,
    find_prop_interpolant,
)
from latlog.propcore import ValueColumn, _fold_axis, constant_values, representable_closure
from latlog.syntax import PropVar, conjoin, implies


def reference_decide(lat: Lattice, k: Optional[int] = None,
                     budget: Optional[DecideBudget] = None) -> DecisionReport:
    """``decide_interpolation`` one pair at a time."""
    budget = budget or DecideBudget()
    n = lat.m
    kk = n if k is None else k
    complete_requested = kk >= n
    values = constant_values(lat)
    vals = tuple(values)

    if not values:
        pair = (PropVar("x"), implies(PropVar("y"), PropVar("y")))
        verdict = find_prop_interpolant(pair[0], pair[1], lat)
        return DecisionReport(
            NO, "no_constant_values", vals, kk, True,
            witness_pair=pair, pair_verdict=verdict,
            notes=["no closed words exist, so x <= (y -> y) admits no interpolant"],
        )
    if set(values) == set(lat.elements):
        sample_a = conjoin([PropVar("x1"), PropVar("y1")])
        sample_b = PropVar("y1")
        sample = constructive_interpolant_all_constants(sample_a, sample_b, lat)
        return DecisionReport(
            YES, "all_values_representable", vals, kk, True,
            sample_interpolant=sample,
            notes=["every value is a closed word; the constructive interpolant applies"],
        )

    pairs_checked = 0
    all_complete = True
    notes: list[str] = []
    a_closures: dict[tuple[str, ...], object] = {}
    b_closures: dict[tuple[str, ...], object] = {}
    shared_closures: dict[int, object] = {}

    def closure_for(var_list: tuple[str, ...], cache: dict) -> object:
        if var_list not in cache:
            cache[var_list] = representable_closure(lat, var_list, budget=budget.closure)
        return cache[var_list]

    leq = lat.leq
    buckets = sorted(
        itertools.product(range(kk + 1), repeat=3),
        key=lambda t: (sum(t), t),
    )
    for l, s, r in buckets:
        a_vars = tuple(_left_vars(l) + _shared_vars(s))
        b_vars = tuple(_shared_vars(s) + _right_vars(r))
        a_clo = closure_for(a_vars, a_closures)
        b_clo = closure_for(b_vars, b_closures)
        if s not in shared_closures:
            shared_closures[s] = representable_closure(
                lat, tuple(_shared_vars(s)), budget=budget.closure)
        s_clo = shared_closures[s]
        if not (a_clo.complete and b_clo.complete and s_clo.complete):
            all_complete = False
            notes.append(f"closure budget hit at sizes (left={l}, shared={s}, right={r})")
            if not s_clo.complete:
                continue  # cannot trust a NO for this bucket
        m_s = lat.m ** s
        a_envs = [
            _fold_axis(c.values.reshape(lat.m ** l, m_s).T, lat.flat(JOIN), lat.m)
            for c in a_clo.columns
        ]
        b_envs = [
            _fold_axis(c.values.reshape(m_s, lat.m ** r), lat.flat(MEET), lat.m)
            for c in b_clo.columns
        ]
        shared_cols = [c.values for c in s_clo.columns]
        for ia, lower in enumerate(a_envs):
            for ib, upper in enumerate(b_envs):
                pairs_checked += 1
                if pairs_checked > budget.max_pairs:
                    notes.append(f"pair budget {budget.max_pairs} exhausted")
                    return DecisionReport(
                        UNKNOWN, "budget", vals, kk, False,
                        pairs_checked=pairs_checked - 1, notes=notes,
                    )
                if not leq[lower, upper].all():
                    continue  # not a valid implication
                if any(leq[lower, c].all() and leq[c, upper].all() for c in shared_cols):
                    continue
                a_col = a_clo.columns[ia]
                b_col = b_clo.columns[ib]
                verdict = InterpolationVerdict(
                    NO, None, None, tuple(_shared_vars(s)),
                    ValueColumn(tuple(_shared_vars(s)), lower),
                    ValueColumn(tuple(_shared_vars(s)), upper),
                    closure_columns=s_clo.columns, closure_complete=True,
                    closure_cumulative=s_clo.cumulative,
                )
                return DecisionReport(
                    NO, "enumeration", vals, kk, True,
                    pairs_checked=pairs_checked,
                    witness_pair=(a_col.witness, b_col.witness),
                    pair_verdict=verdict,
                    notes=notes,
                )

    if complete_requested and all_complete:
        return DecisionReport(YES, "enumeration", vals, kk, True,
                              pairs_checked=pairs_checked, notes=notes)
    if not all_complete:
        notes.append("enumeration incomplete under the closure budget")
    else:
        notes.append(f"no failing pair with at most {kk} variables per group; "
                     f"completeness needs {n}")
    return DecisionReport(UNKNOWN, "enumeration", vals, kk, False,
                          pairs_checked=pairs_checked, notes=notes)
