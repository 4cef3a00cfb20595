"""Propositional interpolation: search, decision procedure, and spectra.

The interpolant search is semantic: compute the envelope columns an
interpolant must lie between, then walk the closure of representable
functions over the shared variables until a column fits.  YES answers are
re-verified by exhaustive validity checks, NO answers carry the complete
closure as a re-checkable certificate, and exhausted budgets surface as
UNKNOWN rather than being silently truncated.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .algebra import JOIN, MEET, Lattice
from .errors import LatlogError, NotValidError, PreconditionFailed
from .propcore import (
    ClosureBudget,
    ClosureState,
    ValueColumn,
    _fold_axis,
    constant_values,
    envelopes,
    grow_closure,
    is_valid_implication,
    representable_closure,
)
from .syntax import App, Formula, PropVar, conjoin, disjoin, implies, prop_variables, substitute

YES, NO, UNKNOWN = "YES", "NO", "UNKNOWN"


@dataclass
class InterpolationVerdict:
    status: str
    interpolant: Optional[Formula]
    interpolant_word: Optional[str]
    shared: tuple[str, ...]
    lower: ValueColumn
    upper: ValueColumn
    closure_columns: Optional[list[ValueColumn]] = None
    closure_complete: bool = False
    closure_cumulative: list[int] = field(default_factory=list)
    budget_note: Optional[str] = None


def find_prop_interpolant(a: Formula, b: Formula, lat: Lattice,
                          budget: Optional[ClosureBudget] = None,
                          var_cap: Optional[int] = None) -> InterpolationVerdict:
    """Interpolant for a valid implication a -> b over the shared variables.

    Scans the representable closure in deterministic order (construction
    level, then witness length, then lexicographic); the first column inside
    the envelopes wins.  NO only when the closure reached its fixpoint with no
    fitting column; UNKNOWN when a budget was hit first.
    """
    budget = budget or ClosureBudget()
    env = envelopes(a, b, lat, var_cap)  # raises NOT_VALID when a -> b fails
    lower, upper = env.lower.values, env.upper.values
    state = ClosureState(lat, env.shared)

    def verdict_yes(values: np.ndarray, word: str, wit: Formula) -> InterpolationVerdict:
        for lhs, rhs in ((a, wit), (wit, b)):
            check = is_valid_implication(lhs, rhs, lat, var_cap)
            if not check.valid:
                raise LatlogError(
                    "interpolant failed re-verification; this is a bug",
                    countervaluation=check.countervaluation,
                )
        cum = list(itertools.accumulate(state.added))
        return InterpolationVerdict(YES, wit, word, env.shared, env.lower, env.upper,
                                    closure_cumulative=cum)

    hit = state.scan_existing(lower, upper)
    if hit is not None:
        col = state.column(hit)
        return verdict_yes(col.values, col.word, col.witness)
    found, note = grow_closure(state, budget, scan=lambda: state.stream_scan(lower, upper))
    if found is not None:
        return verdict_yes(*found)
    closure = state.result(note is None, note)
    return InterpolationVerdict(
        UNKNOWN if note else NO, None, None, env.shared, env.lower, env.upper,
        closure_columns=closure.columns, closure_complete=closure.complete,
        closure_cumulative=closure.cumulative, budget_note=note,
    )


def recheck_no_certificate(verdict: InterpolationVerdict, lat: Lattice) -> bool:
    """Re-scan a NO certificate: no column of the (complete) closure may lie
    between the envelopes."""
    if verdict.status != NO or not verdict.closure_complete:
        return False
    lo, up = verdict.lower.values, verdict.upper.values
    return all(
        not (lat.leq[lo, c.values].all() and lat.leq[c.values, up].all())
        for c in verdict.closure_columns
    )


def constructive_interpolant_all_constants(a: Formula, b: Formula, lat: Lattice,
                                           var_cap: Optional[int] = None) -> Formula:
    """Interpolant for the case that every lattice value is the value of some
    closed word: the join of the antecedent with its private variables
    replaced by constant words, over all value tuples.  Both implications are
    re-verified before returning."""
    values = constant_values(lat)
    if set(values) != set(lat.elements):
        raise PreconditionFailed(
            "not every lattice value is representable by a closed word",
            representable=sorted(values), elements=list(lat.elements),
        )
    check = is_valid_implication(a, b, lat, var_cap)
    if not check.valid:
        raise NotValidError("the implication is not valid",
                            countervaluation=check.countervaluation)
    left = sorted(prop_variables(a) - prop_variables(b))
    if not left:
        interpolant = a
    else:
        words = list(values.values())
        disjuncts = [
            substitute(a, dict(zip(left, combo)))
            for combo in itertools.product(words, repeat=len(left))
        ]
        interpolant = disjoin(disjuncts)
    for lhs, rhs in ((a, interpolant), (interpolant, b)):
        chk = is_valid_implication(lhs, rhs, lat, var_cap)
        if not chk.valid:
            raise LatlogError("constructive interpolant failed re-verification; this is a bug",
                              countervaluation=chk.countervaluation)
    return interpolant


# ---------------------------------------------------------------------------
# variable-collapse substitutions


def sigma_substitutions(variables: Sequence[str], n: int) -> list[dict[str, str]]:
    """All substitutions collapsing ``variables`` onto representatives of a
    partition with at most n classes (the representative is the first member).
    Deterministic order: restricted-growth strings, lexicographic."""
    variables = list(variables)
    if not variables:
        return [{}]
    if n < 1:
        raise LatlogError("at least one partition class is needed", n=n)
    out: list[dict[str, str]] = []

    def rgs(assign: list[int], top: int) -> None:
        if len(assign) == len(variables):
            reps: dict[int, str] = {}
            sigma = {}
            for v, cls in zip(variables, assign):
                reps.setdefault(cls, v)
                sigma[v] = reps[cls]
            out.append(sigma)
            return
        for cls in range(min(top + 1, n - 1) + 1):
            rgs(assign + [cls], max(top, cls))

    rgs([], -1)
    return out


def sigma_key(sigma: Mapping[str, str], variables: Sequence[str]) -> tuple[str, ...]:
    return tuple(sigma[v] for v in variables)


def collapse_word(sigma: Mapping[str, str], variables: Sequence[str]) -> Formula:
    """The word forcing a valuation to respect sigma: the conjunction over the
    variables of (x sigma -> x) and (x -> x sigma)."""
    parts = []
    for v in variables:
        img = PropVar(sigma[v])
        parts.append(App("&", (implies(img, PropVar(v)), implies(PropVar(v), img))))
    return conjoin(parts)


def merge_interpolants_sigma(interpolants: Mapping[tuple[str, ...], Formula],
                             variables: Sequence[str], n: int) -> Formula:
    """Combine per-substitution interpolants into one: the join over all
    sigma of (interpolant_sigma and collapse word of sigma)."""
    variables = list(variables)
    disjuncts = []
    for sigma in sigma_substitutions(variables, n):
        key = sigma_key(sigma, variables)
        if key not in interpolants:
            raise LatlogError(f"missing interpolant for substitution {key}", key=key)
        disjuncts.append(App("&", (interpolants[key], collapse_word(sigma, variables))))
    return disjoin(disjuncts)


# ---------------------------------------------------------------------------
# the decision procedure


@dataclass
class DecideBudget:
    max_pairs: int = 200_000
    closure: ClosureBudget = field(default_factory=lambda: ClosureBudget(
        max_columns=3000, max_apps_per_level=500_000))


@dataclass
class DecisionReport:
    status: str
    path: str  # 'no_constant_values' | 'all_values_representable' | 'enumeration' | 'budget'
    constant_values: tuple[str, ...]
    k: int
    complete: bool
    pairs_checked: int = 0
    witness_pair: Optional[tuple[Formula, Formula]] = None
    pair_verdict: Optional[InterpolationVerdict] = None
    sample_interpolant: Optional[Formula] = None
    notes: list[str] = field(default_factory=list)


def _left_vars(l: int) -> list[str]:
    return [f"x{i + 1}" for i in range(l)]


def _shared_vars(s: int) -> list[str]:
    return [f"y{i + 1}" for i in range(s)]


def _right_vars(r: int) -> list[str]:
    return [f"z{i + 1}" for i in range(r)]


def decide_interpolation(lat: Lattice, k: Optional[int] = None,
                         budget: Optional[DecideBudget] = None) -> DecisionReport:
    """Decide whether the lattice has the propositional interpolation property.

    Quick paths: no representable constant values means NO (witnessed by
    x <= y -> y, whose only interpolant would be a closed word for the top
    element); all values representable means YES with constructive
    interpolants.  Otherwise candidate implications are enumerated as pairs of
    representable columns over at most k left, shared and right variables
    (k = |L| suffices for completeness); the first valid pair without a
    representable column between its envelopes is a NO witness.  YES is only
    reported when the complete enumeration finished; exhausted budgets and
    bounded runs return UNKNOWN.
    """
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


# ---------------------------------------------------------------------------
# SPECTRUM


@dataclass
class SpectrumReport:
    element_order: tuple[str, ...]
    entries: dict[frozenset, str]
    reports: dict[frozenset, DecisionReport]

    def entry(self, subset) -> str:
        return self.entries[frozenset(subset)]


def _fresh_constant_name(element: str, taken: set[str]) -> str:
    if element not in taken:
        return element
    base = f"v_{element}"
    name = base
    i = 2
    while name in taken:
        name = f"{base}{i}"
        i += 1
    return name


def spectrum(lat: Lattice, k: Optional[int] = None,
             budget: Optional[DecideBudget] = None,
             subsets: Optional[Sequence[Sequence[str]]] = None) -> SpectrumReport:
    """Interpolation verdict for every extension of the lattice by fresh
    constants for a subset of values (existing constants are kept; the subsets
    are enumerated regardless of them).  Per-subset budgets surface as
    UNKNOWN entries."""
    if subsets is None:
        idx_subsets = []
        for size in range(lat.m + 1):
            for combo in itertools.combinations(range(lat.m), size):
                idx_subsets.append(tuple(lat.elements[i] for i in combo))
        chosen = idx_subsets
    else:
        chosen = [tuple(s) for s in subsets]
    entries: dict[frozenset, str] = {}
    reports: dict[frozenset, DecisionReport] = {}
    for subset in chosen:
        taken = set(lat.constants)
        added = {}
        for elt in subset:
            name = _fresh_constant_name(elt, taken)
            taken.add(name)
            added[name] = elt
        extended = lat.with_constants(added)
        report = decide_interpolation(extended, k=k, budget=budget)
        entries[frozenset(subset)] = report.status
        reports[frozenset(subset)] = report
    return SpectrumReport(lat.elements, entries, reports)
