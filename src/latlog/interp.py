"""Propositional interpolation: search, decision procedure, and spectra.

The interpolant search is semantic: compute the envelope columns an
interpolant must lie between, then walk the closure of representable
functions over the shared variables until a column fits.  YES answers are
re-verified by evaluating the witness word between the envelopes, NO
answers carry the complete closure as a re-checkable certificate, and
exhausted budgets surface as UNKNOWN rather than being silently truncated.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .algebra import JOIN, MEET, Lattice
from .errors import LatlogError, NotValidError, PreconditionFailed
from .propcore import (
    BLOCK_CELLS,
    ClosureBudget,
    ClosureResult,
    EnvelopePair,
    ValueColumn,
    _decode_valuation,
    _fold_axis,
    closure_ladder,
    column_of,
    constant_values,
    envelopes,
    is_valid_implication,
    representable_closure,
    row_keys,
    walk_closure,
)
from .syntax import Formula, PropVar, conjoin, disjoin, implies, prop_variables, substitute

if TYPE_CHECKING:
    from .relations import BinaryInvariants

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
                          var_cap: Optional[int] = None,
                          env: Optional[EnvelopePair] = None) -> InterpolationVerdict:
    """Interpolant for a valid implication a -> b over the shared variables.

    Scans the representable closure in deterministic order (construction
    level, then witness length, then lexicographic); the first column inside
    the envelopes wins.  NO only when the closure reached its fixpoint with no
    fitting column; UNKNOWN when a budget was hit first.  The envelopes may
    come from the caller as ``env``, which must be the envelope pair of this
    very a -> b: the one a valid factored check of it carries
    (``ValidityReport.envelopes``).  Otherwise they are built here, which
    raises NOT_VALID when a -> b fails.

    The search walks the lattice's shared ladder over the shared variables
    (see the ``propcore`` module docstring), so it stops at the level, and
    with the note, it would on a closure of its own.
    ``closure_cumulative`` counts the levels before the one a YES was found
    at (level 0 when found there), and a NO or UNKNOWN reports the closure
    its budget reached, however many levels the ladder holds.  The values
    of a NO's or UNKNOWN's closure columns may be read-only views of the
    ladder.

    A YES is re-verified from the envelopes, without building the grids of
    a and b again: the witness word is evaluated afresh over the shared
    variables and must lie between ``lower`` and ``upper`` at every shared
    valuation, else a LatlogError says this is a bug.  As the witness
    mentions shared variables only, a -> I is valid exactly when the lower
    envelope lies below I, and I -> b exactly when I lies below the upper one.
    """
    budget = budget or ClosureBudget()
    if env is None:
        env = envelopes(a, b, lat, var_cap)
    found, state, levels, note = walk_closure(closure_ladder(lat, env.shared), budget,
                                              (env.lower.values, env.upper.values))
    if found is not None:
        _, word, wit = found
        bad = envelope_violation(wit, env, lat)
        if bad is not None:
            raise LatlogError("interpolant failed re-verification; this is a bug",
                              countervaluation=bad)
        return InterpolationVerdict(YES, wit, word, env.shared, env.lower, env.upper,
                                    closure_cumulative=list(itertools.accumulate(
                                        state.added[:levels])))
    closure = state.result(note is None, note, levels)
    return InterpolationVerdict(
        UNKNOWN if note else NO, None, None, env.shared, env.lower, env.upper,
        closure_columns=closure.columns, closure_complete=closure.complete,
        closure_cumulative=closure.cumulative, budget_note=note,
    )


def envelope_violation(word: Formula, env: EnvelopePair,
                       lat: Lattice) -> Optional[dict[str, str]]:
    """The first shared valuation at which the word over ``env.shared`` lies
    outside the envelopes, or None when it lies between them everywhere."""
    col = column_of(word, lat, env.shared)
    bad = np.flatnonzero(~(lat.leq[env.lower.values, col] & lat.leq[col, env.upper.values]))
    return _decode_valuation(int(bad[0]), env.shared, lat) if len(bad) else None


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
# the decision procedure


@dataclass
class DecideBudget:
    max_pairs: int = 200_000  # (bucket, U) tests
    closure: ClosureBudget = field(default_factory=lambda: ClosureBudget(
        max_columns=3000, max_apps_per_level=500_000))


@dataclass
class RelationalCertificate:
    """A NO certificate from values alone.  ``upper`` is an upper envelope
    U of the bucket and ``lower`` the greatest lower envelope L_U below it,
    so an interpolant would have to be L_U itself.  The shared valuations
    ``points`` (p, q) take L_U to a pair outside ``relation``, the
    subuniverse of A² their coordinate pairs generate, so L_U is not the
    column of any word."""

    shared: tuple[str, ...]
    upper: ValueColumn
    lower: ValueColumn
    points: tuple[dict[str, str], dict[str, str]]
    relation: tuple[tuple[str, str], ...]


@dataclass
class DecisionReport:
    status: str
    path: str  # 'no_constant_values' | 'all_values_representable' | 'enumeration' | 'budget'
    constant_values: tuple[str, ...]
    k: int
    complete: bool
    pairs_checked: int = 0  # (bucket, U) tests
    witness_pair: Optional[tuple[Formula, Formula]] = None
    pair_verdict: Optional[InterpolationVerdict] = None
    sample_interpolant: Optional[Formula] = None
    notes: list[str] = field(default_factory=list)
    bucket: Optional[tuple[int, int, int]] = None  # (left, shared, right) that failed or stopped
    certificate: Optional[RelationalCertificate] = None  # a NO without witness words


# upper envelopes a bucket may enumerate outright, as every function over
# its shared valuations; beyond this it needs a complete right-side closure
CANDIDATE_LIMIT = 20_000


def _left_vars(l: int) -> list[str]:
    return [f"x{i + 1}" for i in range(l)]


def _shared_vars(s: int) -> list[str]:
    return [f"y{i + 1}" for i in range(s)]


def _right_vars(r: int) -> list[str]:
    return [f"z{i + 1}" for i in range(r)]


def _envelope_rows(columns: Sequence[ValueColumn], shape: tuple[int, int], flat: np.ndarray,
                   m: int, fold_first: bool) -> np.ndarray:
    """One envelope row per closure column: each column, read as a grid of
    ``shape``, folded with ``flat`` along its first axis (``fold_first``) or
    its last.  Columns are stacked in blocks of about BLOCK_CELLS cells."""
    out = np.empty((len(columns), shape[1] if fold_first else shape[0]), dtype=np.uint8)
    step = max(1, BLOCK_CELLS // (shape[0] * shape[1]))
    for start in range(0, len(columns), step):
        grid = np.stack([c.values for c in columns[start:start + step]]).reshape(-1, *shape)
        out[start:start + step] = _fold_axis(grid.swapaxes(1, 2) if fold_first else grid, flat, m)
    return out


def _leq_rows(rows: np.ndarray, cols: np.ndarray, leq: np.ndarray) -> np.ndarray:
    """Boolean matrix: entry (i, j) says rows[i] <= cols[j] at every valuation."""
    out = np.ones((len(rows), len(cols)), dtype=bool)
    for t in range(rows.shape[1]):
        out &= leq[rows[:, t, None], cols[None, :, t]]
    return out


def _first_failing_pair(lower: np.ndarray, upper: np.ndarray, shared: np.ndarray,
                        leq: np.ndarray) -> Optional[tuple[int, int]]:
    """The first (ia, ib) in row-major order with lower[ia] <= upper[ib] and
    no row of ``shared`` between them, or None.

    Decided over the distinct envelope rows: a pair is valid when its rows
    compare, and interpolated when some shared column lies above the lower
    row and below the upper one, a boolean matrix product.  The products are
    taken in blocks of about BLOCK_CELLS cells."""
    n_b, m = len(upper), len(leq)
    _, first_low, inv_low = np.unique(row_keys(lower, m), return_index=True, return_inverse=True)
    _, first_up = np.unique(row_keys(upper, m), return_index=True)
    low, up = lower[first_low], upper[first_up]
    least_b = np.full(len(low), n_b)  # least failing partner of each distinct lower row
    up_step = max(1, BLOCK_CELLS // max(1, len(shared)))
    for j in range(0, len(up), up_step):
        ups = up[j:j + up_step]
        # float32 takes numpy's BLAS path; a sum of 0/1 products is positive
        # exactly when one of them is 1, whatever the rounding
        below = _leq_rows(shared, ups, leq).astype(np.float32)
        low_step = max(1, BLOCK_CELLS // max(1, len(shared), len(ups)))
        for i in range(0, len(low), low_step):
            lows = low[i:i + low_step]
            has = (_leq_rows(lows, shared, leq).astype(np.float32) @ below) > 0
            bad = _leq_rows(lows, ups, leq) & ~has
            least = np.where(bad, first_up[j:j + up_step], n_b).min(axis=1)
            np.minimum(least_b[i:i + low_step], least, out=least_b[i:i + low_step])
    failing = least_b[inv_low]
    ia = int(np.argmax(failing < n_b))
    return (ia, int(failing[ia])) if failing[ia] < n_b else None


def _check_k(k: Optional[int]) -> None:
    if k is not None and k < 0:
        raise LatlogError(f"k must be at least 0, got {k}", k=k)


def decide_interpolation(lat: Lattice, k: Optional[int] = None,
                         budget: Optional[DecideBudget] = None) -> DecisionReport:
    """Decide whether the lattice has the propositional interpolation property.

    Quick paths: no representable constant values means NO (witnessed by
    x <= y -> y, whose only interpolant would be a closed word for the top
    element); all values representable means YES with constructive
    interpolants.  Otherwise candidate implications are grouped in buckets
    of (left, shared, right) variable counts, at most k each (k = |L|
    suffices for completeness; a negative k is an input error), taken by
    total size.  YES is only reported when every bucket passed with
    k >= |L|; a bounded run that passes returns UNKNOWN.

    A bucket fails exactly when some upper envelope U has a greatest lower
    envelope L_U below it that is not representable.  Buckets without left
    or without right variables pass outright: there the lower or the upper
    envelope is itself a representable shared column.  In the others the
    candidates for U are every function over the shared valuations when
    there are at most CANDIDATE_LIMIT of them, otherwise the distinct upper
    envelopes of a complete right-side closure; when neither is at hand the
    run stops UNKNOWN and names the bucket and its candidate count.  Each
    candidate is tested with the binary invariants of the lattice
    (``BinaryInvariants``), without pairing closure columns.

    The first failing bucket gives the NO witness: the first failing pair of
    its closures in enumeration order (A column, then B column), when its
    closures complete within ``budget.closure``; otherwise a
    ``RelationalCertificate``.  ``pairs_checked`` counts (bucket, U) tests
    in order, and ``max_pairs`` bounds it: a failing U counts only when its
    position is within the budget, and a bucket that crosses the budget
    first ends the run as UNKNOWN with ``pairs_checked == max_pairs``.
    ``bucket`` names the bucket that failed or stopped the run.
    """
    _check_k(k)
    budget = budget or DecideBudget()
    n = lat.m
    kk = n if k is None else k
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

    # imported here, so that only decisions reaching the buckets compile it
    from .relations import _points, binary_invariants, first_failing_upper

    inv = binary_invariants(lat)
    m = lat.m
    tests = 0
    closures: dict[tuple[str, ...], ClosureResult] = {}  # one per variable list

    def closure_for(var_list: tuple[str, ...]) -> ClosureResult:
        if var_list not in closures:
            closures[var_list] = representable_closure(lat, var_list, budget=budget.closure)
        return closures[var_list]

    def stop(bucket, note: str) -> DecisionReport:
        return DecisionReport(UNKNOWN, "enumeration", vals, kk, False,
                              pairs_checked=tests, bucket=bucket, notes=[note])

    buckets = sorted(
        itertools.product(range(kk + 1), repeat=3),
        key=lambda t: (sum(t), t),
    )
    for bucket in buckets:
        l, s, r = bucket
        if not (l and r):
            continue
        b_vars = tuple(_shared_vars(s) + _right_vars(r))
        points = m ** s
        where = (f"bucket (left={l}, shared={s}, right={r}) with {m}^{points} "
                 f"upper-envelope candidates")
        if not inv.available:
            return stop(bucket, f"{where}: the binary invariants of a {m}-element lattice "
                                f"are too large to generate")
        if points * math.log(m) <= math.log(CANDIDATE_LIMIT):
            uppers, closed = _points(m, points), False
        else:
            b_clo = closure_for(b_vars)
            if not b_clo.complete:
                return stop(bucket, f"{where}: more than {CANDIDATE_LIMIT} to enumerate, and the "
                                    f"closure over {', '.join(b_vars)} is incomplete "
                                    f"({b_clo.budget_note})")
            rows = _envelope_rows(b_clo.columns, (m ** s, m ** r), lat.flat(MEET), m,
                                  fold_first=False)
            _, first = np.unique(row_keys(rows, m), return_index=True)
            uppers, closed = rows[np.sort(first)], True
        remaining = max(0, budget.max_pairs - tests)
        hit = first_failing_upper(inv, l, s, r, uppers[:remaining], closed)
        if hit is not None:
            index, lower = hit
            return _no_report(lat, inv, bucket, uppers[index], lower, closure_for,
                              DecisionReport(NO, "enumeration", vals, kk, True,
                                             pairs_checked=tests + index + 1, bucket=bucket))
        if len(uppers) > remaining:
            return DecisionReport(
                UNKNOWN, "budget", vals, kk, False, pairs_checked=budget.max_pairs,
                bucket=bucket, notes=[f"budget of {budget.max_pairs} (bucket, U) tests exhausted"],
            )
        tests += len(uppers)

    if kk >= n:
        return DecisionReport(YES, "enumeration", vals, kk, True, pairs_checked=tests)
    return DecisionReport(UNKNOWN, "enumeration", vals, kk, False, pairs_checked=tests,
                          notes=[f"no failing bucket with at most {kk} variables per group; "
                                 f"completeness needs {n}"])


def _no_report(lat: Lattice, inv: BinaryInvariants, bucket: tuple[int, int, int],
               upper: np.ndarray, lower: np.ndarray, closure_for,
               report: DecisionReport) -> DecisionReport:
    """Complete the NO ``report`` of a failing bucket with the first failing
    pair of its closures, or else with a value-level certificate for the
    failing U and L_U."""
    l, s, r = bucket
    m = lat.m
    s_vars = tuple(_shared_vars(s))
    s_clo = closure_for(s_vars)
    if s_clo.complete:
        a_clo = closure_for(tuple(_left_vars(l)) + s_vars)
        b_clo = closure_for(s_vars + tuple(_right_vars(r)))
        lows = _envelope_rows(a_clo.columns, (m ** l, m ** s), lat.flat(JOIN), m, fold_first=True)
        ups = _envelope_rows(b_clo.columns, (m ** s, m ** r), lat.flat(MEET), m, fold_first=False)
        hit = _first_failing_pair(lows, ups, np.stack([c.values for c in s_clo.columns]), lat.leq)
        if hit is not None:
            ia, ib = hit
            report.witness_pair = (a_clo.columns[ia].witness, b_clo.columns[ib].witness)
            report.pair_verdict = InterpolationVerdict(
                NO, None, None, s_vars,
                ValueColumn(s_vars, lows[ia]), ValueColumn(s_vars, ups[ib]),
                closure_columns=s_clo.columns, closure_complete=True,
                closure_cumulative=s_clo.cumulative,
            )
            return report
    p, q = inv.violation(lower, s)
    relation = inv.ids(s)[p, q]
    report.certificate = RelationalCertificate(
        s_vars, ValueColumn(s_vars, upper), ValueColumn(s_vars, lower),
        (_decode_valuation(p, s_vars, lat), _decode_valuation(q, s_vars, lat)),
        tuple((lat.elements[a], lat.elements[b])
              for a, b in np.argwhere(inv.relations[relation])),
    )
    report.notes.append("the bucket's closures within the closure budget show no failing "
                        "pair; the certificate is value-level")
    return report


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
    _check_k(k)
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
