"""First-order layer: finite-structure semantics, skolemization, closed-term
enumeration, expansions, and the interpolation pipeline.

The pipeline for a valid sentence A -> B runs six steps: replace the strong
quantifiers on both sides by joins/meets over fresh witness functions, search
for a valid expansion of the weak quantifiers over the closed terms, find a
propositional interpolant for the abstracted expansion, re-read it over the
ground atoms, generalize away every function symbol and constant outside the
common language, and check the result on small finite structures.

Evaluation is one fold by axes: each object variable owns a broadcast axis
over the domain, a term is an array of domain indices, an atom reads its
predicate table as an array, ``propcore.apply_connective`` applies every
connective, and a quantifier folds its variable's axis.  Over a finite
domain a structure's predicate tables are a valuation of the ground atoms,
so the smoke test gives the A ground atoms of a domain the columns of A
propositional variables and runs one evaluation per domain and choice of
function tables, over all predicate interpretations at once.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .algebra import JOIN, MEET, Lattice, PolaritySignature
from .errors import (
    BudgetExceeded,
    LatlogError,
    PropInterpolationFailed,
    SmokeTestFailed,
    StrongQuantifierPresent,
    SymbolInBoth,
    UninterpretedSymbol,
    UnknownValidity,
)
from .interp import YES, InterpolationVerdict, find_prop_interpolant
from .propcore import (
    DEFAULT_VAR_CAP,
    ClosureBudget,
    ValidityReport,
    _fold_axis,
    _projection,
    apply_connective,
    is_valid_prop,
)
from .syntax import (
    App,
    Atom,
    Const,
    EXISTS,
    FORALL,
    Formula,
    Func,
    PredicateLanguage,
    PropVar,
    Quant,
    Term,
    Var,
    all_identifiers,
    atoms_of,
    children,
    classify_quantifiers,
    conjoin,
    disjoin,
    ensure_object_constant,
    free_object_vars,
    fold,
    fresh_name,
    functions_of,
    implies,
    inferred_language,
    is_quantifier_free,
    nodes,
    predicates_of,
    prop_variables,
    render,
    substitute,
    with_children,
)

@dataclass
class FoBudgets:
    """Budgets of the first-order pipeline; ``find_herbrand_expansion`` and
    the command line take their defaults from here."""

    max_n: int = 8
    var_cap: int = DEFAULT_VAR_CAP
    closure: ClosureBudget = field(default_factory=ClosureBudget)
    smoke_domain_cap: int = 2
    smoke_structure_cap: int = 30000


# ---------------------------------------------------------------------------
# finite structures and evaluation


@dataclass
class FoStructure:
    """Finite interpretation: predicate tables map argument tuples to lattice
    element indices, function tables to domain elements.  A predicate table
    may hold value columns instead, one per argument tuple, of one length: the
    structure then stands for one interpretation per cell, and evaluation
    gives a column of values."""

    domain: tuple
    predicates: dict[str, Mapping[tuple, int]]
    functions: dict[str, Mapping[tuple, object]] = field(default_factory=dict)


def fo_eval(phi: Formula, lat: Lattice, structure: FoStructure,
            assignment: Optional[Mapping[str, object]] = None) -> str:
    """Evaluate a first-order formula: universal quantifiers take the meet and
    existential quantifiers the join over the domain."""
    for pred, table in structure.predicates.items():
        for args, value in table.items():
            if not 0 <= value < lat.m:
                raise LatlogError(f"predicate {pred!r} at {args!r} is {value!r}, "
                                  "not an element index", symbol=pred)
    if assignment:  # an assigned variable reads as a fresh object constant
        taken = all_identifiers(phi) | set(structure.functions)
        consts = {v: fresh_name(v + "_", taken) for v in assignment}  # v_, v_2, ...: distinct
        phi = substitute(phi, {v: Func(c) for v, c in consts.items()})
        structure = FoStructure(structure.domain, structure.predicates, {
            **structure.functions, **{consts[v]: {(): e} for v, e in assignment.items()}})
    return lat.elements[int(_evaluator(phi, lat)(structure)[0])]


def _evaluator(phi: Formula, lat: Lattice):
    """``fo_eval`` of the sentence ``phi`` as a function of the structure: a
    column of element indices, one entry or one per cell of the structure's
    value columns.  A value is the tuple of object variables it depends on,
    in name order, and an array with one domain axis for each, then, for a
    formula, the column's axis.  A quantifier whose body does not depend on
    its variable gives the body: a value is its own meet and join."""
    m = lat.m

    def evaluate(structure: FoStructure) -> np.ndarray:
        domain = structure.domain
        d = len(domain)
        position = {e: i for i, e in enumerate(domain)}
        tables: dict[str, tuple] = {}  # symbol -> (its table's keys, their rows)

        def align(kids) -> tuple[tuple[str, ...], list]:
            """The variables of ``kids`` and their arrays on the axes of all."""
            names = kids[0][0] if kids else ()
            if any(own != names for own, _ in kids):
                names = tuple(sorted(set().union(*(own for own, _ in kids))))
                return names, [a.reshape(tuple(d if v in own else 1 for v in names)
                                         + np.shape(a)[len(own):]) for own, a in kids]
            return names, [a for _, a in kids]

        def gather(f, kids) -> tuple[tuple[str, ...], np.ndarray]:
            """Read the table of an atom or a function, -1 where it has no entry."""
            func = type(f) is Func
            name = f.name if func else f.pred
            names, args = align(kids)
            if name not in tables:
                table = (structure.functions if func else structure.predicates).get(name)
                if table is None:
                    raise UninterpretedSymbol(f"{'function symbol' if func else 'predicate'} "
                                              f"{name!r} uninterpreted", symbol=name)
                keys = list(itertools.product(domain, repeat=len(args)))
                tables[name] = keys, np.array([position.get(table.get(k), -1) if func
                                               else table.get(k, -1) for k in keys])
            keys, rows = tables[name]
            idx = 0
            for a in args:
                idx = idx * d + a
            out = rows[idx]
            if (out < 0).any():
                raise UninterpretedSymbol(
                    f"{'function' if func else 'predicate'} {name!r} undefined at "
                    f"{keys[np.asarray(idx)[out < 0].flat[0]]!r}", symbol=name)
            return names, out if func or rows.ndim > 1 else out[..., None]

        def value(f, kids) -> tuple[tuple[str, ...], np.ndarray]:
            kind = type(f)
            if kind is Var:
                return (f.name,), np.arange(d)
            if kind is Func or kind is Atom:
                return gather(f, kids)
            if kind is App:
                names, args = align(kids)
                return names, apply_connective(lat.flat(f.conn), m, args)
            if kind is Quant:
                if not d:
                    raise LatlogError("empty domain")
                names, body = kids[0]
                if f.var not in names:
                    return kids[0]
                k = names.index(f.var)  # its axis goes last, after the column's
                order = [*range(k), *range(k + 1, body.ndim), k]
                op = lat.flat(MEET if f.kind == FORALL else JOIN)
                return names[:k] + names[k + 1:], _fold_axis(body.transpose(order), op, m)
            if kind is Const:
                if f.name not in lat.constants:
                    raise UninterpretedSymbol(f"constant {f.name!r} not declared", symbol=f.name)
                return (), np.array([lat.constants[f.name]], np.uint8)
            if kind is PropVar:
                raise UninterpretedSymbol(
                    f"propositional variable {f.name!r} has no first-order meaning",
                    symbol=f.name,
                )
            raise LatlogError(f"cannot evaluate {f!r}")

        names, out = fold(phi, value)
        if names:
            raise UninterpretedSymbol(f"object variable {names[0]!r} unassigned",
                                      symbol=names[0])
        return out

    return evaluate


# ---------------------------------------------------------------------------
# skolemization


@dataclass(frozen=True)
class SkolemEntry:
    path: tuple[int, ...]
    quantifier: str
    variable: str
    functions: tuple[str, ...]
    arguments: tuple[str, ...]


@dataclass
class SkolemRecord:
    entries: list[SkolemEntry] = field(default_factory=list)
    family_size: int = 0


def skolemize(phi: Formula, lat: Lattice) -> tuple[Formula, SkolemRecord]:
    """Replace every strong quantifier occurrence, outside in.

    A strong existential over C(x) becomes the join of C(f_i(xs)) for
    i = 1..m and a strong universal the meet, where m is the lattice size,
    the f_i are fresh function symbols and xs the weakly quantified variables
    whose scope contains the occurrence.  The output carries weak quantifiers
    only.  Nested strong quantifiers inside the replacement copies receive
    their own fresh families.  Tasks wait on an explicit stack, each with its
    weak variables and its path as linked (rest, last) cells, not copies.
    """
    m = lat.m
    taken = set(all_identifiers(phi))
    record = SkolemRecord(family_size=m)
    counter = itertools.count(1)

    def fresh_family() -> tuple[str, ...]:
        while True:
            k = next(counter)
            fam = tuple(f"sk{k}_{i}" for i in range(1, m + 1))
            if not any(f in taken for f in fam):
                taken.update(fam)
                return fam

    values: list = []
    tasks: list = [(phi, 1, (), ())]  # (node, sign, weak, path); sign 0: rebuild
    while tasks:
        f, sign, weak, path = tasks.pop()
        if sign == 0:  # rebuild f from the values of its parts
            cut = len(values) - len(children(f))
            values[cut:] = [with_children(f, values[cut:])]
        elif isinstance(f, Quant):
            if (f.kind == FORALL) == (sign > 0):  # strong
                fam = fresh_family()
                xs = _items(weak)
                args = tuple(Var(v) for v in xs)
                copies = [substitute(f.body, {f.var: Func(name, args)}) for name in fam]
                record.entries.append(SkolemEntry(_items(path), f.kind, f.var, fam, xs))
                joined = disjoin(copies) if f.kind == EXISTS else conjoin(copies)
                tasks.append((joined, sign, weak, path))
            else:
                tasks.append((f, 0, None, None))
                tasks.append((f.body, sign, (weak, f.var), (path, 0)))
        elif isinstance(f, App):
            conn = lat.signature.get(f.conn)
            if conn is None:
                raise UninterpretedSymbol(f"connective {f.conn!r} not in signature",
                                          symbol=f.conn)
            tasks.append((f, 0, None, None))
            tasks.extend((a, -sign if conn.polarity[i] == "-" else sign, weak, (path, i))
                         for i, a in reversed(tuple(enumerate(f.args))))
        else:
            values.append(f)
    return values[0], record


def _items(cells) -> tuple:
    """The items of a linked list of (rest, last) cells, first to last."""
    out = []
    while cells:
        cells, last = cells
        out.append(last)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# closed terms and expansions


def enumerate_closed_terms(language: PredicateLanguage, k: int) -> list[Term]:
    """First k closed terms, ordered by size (node count), ties by
    lexicographic symbol order then argument order.  Prefix-stable: asking for
    k+1 extends the k-list.  Returns fewer when the language is exhausted."""
    if k < 1:
        raise LatlogError("at least one term must be requested", k=k)
    consts = sorted(n for n, a in language.functions.items() if a == 0)
    funs = sorted((n, a) for n, a in language.functions.items() if a >= 1)
    sizes: dict[int, list[Term]] = {1: [Func(c, ()) for c in consts]}
    out: list[Term] = list(sizes[1])
    if not funs:
        return out[:k]
    max_arity = max(a for _, a in funs)
    size = 1
    empty_run = 0
    while len(out) < k:
        size += 1
        bucket: list[Term] = []
        for name, arity in funs:
            for comp in _compositions(size - 1, arity):
                for args in itertools.product(*(sizes.get(c, []) for c in comp)):
                    bucket.append(Func(name, args))
        sizes[size] = bucket
        out.extend(bucket)
        if bucket:
            empty_run = 0
        else:
            empty_run += 1
            if empty_run > max_arity:
                break
    return out[:k]


def _compositions(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _expansion_terms(phi: Formula, k: int, signature: Optional[PolaritySignature],
                     language: Optional[PredicateLanguage] = None, lazy: bool = False
                     ) -> tuple[Optional[list[Term]], Optional[str]]:
    """The first k closed terms to expand ``phi`` over, and the object
    constant added to the language (``phi``'s own by default) when it has
    none.  Raises StrongQuantifierPresent at the first strong quantifier;
    with ``lazy``, a quantifier-free ``phi`` gets no terms (None)."""
    occurrences = classify_quantifiers(phi, signature)
    strong = [o for o in occurrences if o.strength == "strong"]
    if strong:
        raise StrongQuantifierPresent(
            f"strong quantifier at path {strong[0].path}", path=strong[0].path)
    if lazy and not occurrences:
        return None, None
    lang, added = ensure_object_constant(language or inferred_language(phi))
    return enumerate_closed_terms(lang, k), added


def expand_n(phi: Formula, n: int, language: Optional[PredicateLanguage] = None,
             signature: Optional[PolaritySignature] = None) -> Formula:
    """The n-th expansion: inside out, every (weak) existential becomes the
    join and every universal the meet of its instances over the first n closed
    terms.  With only m < n closed terms the result equals the m-th expansion.
    Quantifier-free input is returned unchanged."""
    if n < 1:
        raise LatlogError("expansion depth must be at least 1", n=n)
    terms, _ = _expansion_terms(phi, n, signature, language, lazy=True)
    return phi if terms is None else _expand_with_terms(phi, terms)


def _expand_with_terms(phi: Formula, terms: Sequence[Term]) -> Formula:
    def expand(f: Formula, kids) -> Formula:
        if isinstance(f, Quant):
            instances = [substitute(kids[0], {f.var: t}) for t in terms]
            return disjoin(instances) if f.kind == EXISTS else conjoin(instances)
        return App(f.conn, tuple(kids)) if isinstance(f, App) else f

    return fold(phi, expand)


# ---------------------------------------------------------------------------
# ground-atom abstraction and expansion validity


@dataclass
class ExpansionCheck:
    valid: bool
    word: Formula
    atom_names: dict[str, str]  # rendered atom -> propositional variable
    report: ValidityReport
    countermodel: Optional[dict[str, str]] = None  # rendered atom -> element


def abstract_ground_atoms(phi: Formula, naming: Optional[dict[str, str]] = None
                          ) -> tuple[Formula, dict[str, str]]:
    """Replace each distinct ground atom by a propositional variable.
    Distinct closed terms stay independent, exactly the freedom a term
    structure provides.  The naming map (rendered atom -> variable) may be
    shared across several formulas."""
    naming = naming if naming is not None else {}

    def abstract(f: Formula, kids) -> Formula:
        if isinstance(f, Atom):
            key = render(f)
            if any(isinstance(t, Var) for t in nodes(f)):
                raise LatlogError(f"atom {key} is not ground")
            if key not in naming:
                naming[key] = f"a{len(naming) + 1}"
            return PropVar(naming[key])
        if isinstance(f, Quant):
            raise LatlogError("cannot abstract under a quantifier")
        return with_children(f, kids)

    return fold(phi, abstract), naming


def concretize(word: Formula, naming: Mapping[str, str],
               atom_tab: Mapping[str, Atom]) -> Formula:
    """Inverse of the abstraction: propositional variables back to atoms."""
    rev = {v: k for k, v in naming.items()}
    return fold(word, lambda f, kids: (atom_tab[rev[f.name]] if isinstance(f, PropVar)
                                       else with_children(f, kids)))


def check_valid_expansion(phi: Formula, lat: Lattice,
                          var_cap: Optional[int] = None) -> ExpansionCheck:
    """Validity of a quantifier-free formula: abstract each distinct ground
    atom to a propositional variable and run the exhaustive check.  Sound and
    complete because a term structure may interpret predicates arbitrarily on
    distinct closed terms."""
    if not is_quantifier_free(phi):
        raise LatlogError("expansion must be quantifier-free")
    word, naming = abstract_ground_atoms(phi)
    report = is_valid_prop(word, lat, var_cap)
    countermodel = None
    if not report.valid and report.countervaluation:
        rev = {v: k for k, v in naming.items()}
        countermodel = {rev[v]: e for v, e in report.countervaluation.items()}
    return ExpansionCheck(report.valid, word, naming, report, countermodel)


@dataclass
class HerbrandSearch:
    status: str  # 'FOUND' | 'UNKNOWN'
    n: Optional[int]
    expansion: Optional[Formula]
    checks: list[tuple[int, bool]]
    terms: list[Term]
    exhausted_at: Optional[int] = None
    reason: Optional[str] = None
    added_constant: Optional[str] = None
    check: Optional[ExpansionCheck] = None  # the valid check of ``expansion``


def find_herbrand_expansion(phi: Formula, lat: Lattice,
                            max_n: int = FoBudgets.max_n,
                            var_cap: Optional[int] = None) -> HerbrandSearch:
    """Smallest n whose expansion is valid.  Validity of the input guarantees
    some expansion is valid in the limit; an invalid input never produces one,
    so the search is bounded by max_n (and by term exhaustion) and reports
    UNKNOWN when the bound is hit."""
    terms, added = _expansion_terms(phi, max_n, lat.signature)
    exhausted = len(terms) if len(terms) < max_n else None
    checks: list[tuple[int, bool]] = []
    for n in range(1, len(terms) + 1):
        expansion = _expand_with_terms(phi, terms[:n])
        try:
            check = check_valid_expansion(expansion, lat, var_cap)
        except BudgetExceeded as exc:
            return HerbrandSearch("UNKNOWN", None, None, checks, terms,
                                  exhausted_at=exhausted,
                                  reason=f"validity budget exceeded at n={n}: {exc.message}",
                                  added_constant=added)
        checks.append((n, check.valid))
        if check.valid:
            return HerbrandSearch("FOUND", n, expansion, checks, terms,
                                  exhausted_at=exhausted, added_constant=added,
                                  check=check)
    reason = ("all closed terms exhausted" if exhausted is not None
              else f"no valid expansion up to n={max_n}")
    return HerbrandSearch("UNKNOWN", None, None, checks, terms,
                          exhausted_at=exhausted, reason=reason, added_constant=added)


# ---------------------------------------------------------------------------
# generalization


@dataclass
class GeneralizationStep:
    term: Term
    variable: str
    quantifier: str


def _is_subterm(small: Term, big: Term) -> bool:
    return any(t == small for t in nodes(big))


def _replace_term(phi: Formula, old: Term, new: Term) -> Formula:
    return fold(phi, lambda f, kids: (new if isinstance(f, (Var, Func)) and f == old
                                      else with_children(f, kids)))


def generalize_interpolant(istar: Formula, sk_a: Formula, sk_b: Formula,
                           common: Optional[set[str]] = None
                           ) -> tuple[Formula, list[GeneralizationStep]]:
    """Eliminate every function symbol and constant of ``istar`` outside the
    common language of the two skolemized sides.

    Repeatedly select a maximal (by subterm inclusion) term with a non-common
    head, ties broken leftmost-outermost, replace all its occurrences by a
    fresh variable, and prefix an existential quantifier when the head occurs
    in the antecedent side (it then cannot occur in the succedent side) or a
    universal one otherwise.
    """
    funcs_a = set(functions_of(sk_a))
    funcs_b = set(functions_of(sk_b))
    if common is None:
        common = funcs_a & funcs_b
    steps: list[GeneralizationStep] = []
    current = istar
    used = all_identifiers(istar) | all_identifiers(sk_a) | all_identifiers(sk_b)
    counter = 1
    while True:
        # terms headed outside the common language, outer before inner, left
        # before right, each once; the common heads are dropped before the
        # hashing, which recurses once per term level
        candidates = list(dict.fromkeys(t for t in nodes(current)
                                        if isinstance(t, Func) and t.name not in common))
        if not candidates:
            break
        maximal = [t for t in candidates
                   if not any(t != o and _is_subterm(t, o) for o in candidates)]
        target = maximal[0]
        if target.name in funcs_a and target.name in funcs_b:
            raise SymbolInBoth(
                f"symbol {target.name!r} occurs in both sides yet was marked non-common",
                symbol=target.name,
            )
        kind = EXISTS if target.name in funcs_a else FORALL
        var = fresh_name(f"z{counter}", used)
        counter += 1
        used.add(var)
        current = Quant(kind, var, _replace_term(current, target, Var(var)))
        steps.append(GeneralizationStep(target, var, kind))
    return current, steps


# ---------------------------------------------------------------------------
# the pipeline


@dataclass
class PipelineTrace:
    original: Optional[Formula] = None
    skolemized: Optional[Formula] = None
    skolem_record: Optional[SkolemRecord] = None
    herbrand: Optional[HerbrandSearch] = None
    abstraction: dict[str, str] = field(default_factory=dict)
    prop_antecedent: Optional[Formula] = None
    prop_succedent: Optional[Formula] = None
    verdict: Optional[InterpolationVerdict] = None
    ground_interpolant: Optional[Formula] = None
    generalization: list[GeneralizationStep] = field(default_factory=list)
    interpolant: Optional[Formula] = None
    smoke: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


@dataclass
class FoInterpolationResult:
    interpolant: Formula
    trace: PipelineTrace


def _smoke_test(a: Formula, interpolant: Formula, b: Formula, lat: Lattice,
                budgets: FoBudgets, trace: PipelineTrace) -> None:
    """Check a <= interpolant <= b on every structure over domains of size 1
    to ``smoke_domain_cap``, within ``smoke_structure_cap`` structures, in
    the order of the predicate tables, then the function tables, each in name
    order with its entries by argument tuple, the last entry fastest."""
    lang = inferred_language(implies(implies(a, interpolant), b))
    evaluators = [_evaluator(f, lat) for f in (a, interpolant, b)]
    m = lat.m
    checked = 0
    domains_done = []

    for d in range(1, budgets.smoke_domain_cap + 1):
        domain = tuple(range(d))
        atoms, entries = ([(name, args) for name, ar in sorted(table.items())
                           for args in itertools.product(domain, repeat=ar)]
                          for table in (lang.predicates, lang.functions))
        cells = m ** len(atoms)
        space = cells * d ** len(entries)
        if checked + space > budgets.smoke_structure_cap:
            trace.notes.append(
                f"smoke test stopped before domain size {d}: "
                f"{space} interpretations exceed the budget")
            break
        # atom k holds the column of propositional variable k over all m**A
        # valuations: one cell per predicate interpretation, in the order above
        predicates = {p: {} for p in sorted(lang.predicates)}
        for k, (p, args) in enumerate(atoms):
            predicates[p][args] = _projection(m, len(atoms), k)
        columns = []
        for choice in itertools.product(domain, repeat=len(entries)):
            functions = {f: {} for f in sorted(lang.functions)}
            for (f, args), v in zip(entries, choice):
                functions[f][args] = v
            structure = FoStructure(domain, predicates, functions)
            columns.append([np.broadcast_to(evaluate(structure), cells)
                            for evaluate in evaluators])
        va, vi, vb = np.stack(columns, axis=-1)  # (predicate cell, function choice)
        low, high = ~lat.leq[va, vi], ~lat.leq[vi, vb]
        bad = np.flatnonzero(low | high)
        if len(bad):
            at = np.unravel_index(bad[0], va.shape)
            message, values = (("antecedent -> interpolant", (va[at], vi[at])) if low[at]
                               else ("interpolant -> succedent", (vi[at], vb[at])))
            raise SmokeTestFailed(
                f"{message} fails on a finite structure",
                domain=list(domain),
                predicates={p: {args: int(column[at[0]]) for args, column in t.items()}
                            for p, t in predicates.items()},
                values=tuple(lat.elements[v] for v in values),
            )
        checked += space
        domains_done.append(d)
    trace.smoke = {"domains": domains_done, "structures": checked}


def fo_interpolate(phi: Formula, lat: Lattice,
                   budgets: Optional[FoBudgets] = None) -> FoInterpolationResult:
    """Construct a first-order interpolant for a valid implication sentence.

    The returned interpolant mentions only predicate symbols common to both
    sides and no introduced witness functions; the trace records every step
    machine-checkably.  The final finite-structure sweep is a bounded smoke
    test, not a proof: full first-order validity is only semi-decidable here.
    """
    budgets = budgets or FoBudgets()
    trace = PipelineTrace(original=phi)
    if not isinstance(phi, App) or phi.conn != "->":
        raise LatlogError("input must be an implication A -> B")
    if free_object_vars(phi):
        raise LatlogError("input must be a sentence (no free object variables)")
    names = prop_variables(phi)
    if names:  # the abstraction names atoms by propositional variables of its own
        name = min(names)
        raise UninterpretedSymbol(f"propositional variable {name!r} has no first-order meaning",
                                  symbol=name)

    skolemized, record = skolemize(phi, lat)
    trace.skolemized = skolemized
    trace.skolem_record = record
    sk_a, sk_b = skolemized.args

    search = find_herbrand_expansion(skolemized, lat, max_n=budgets.max_n,
                                     var_cap=budgets.var_cap)
    trace.herbrand = search
    if search.status != "FOUND":
        raise UnknownValidity(
            f"no valid expansion found: {search.reason}", trace=trace)

    # the sides of the valid check's word, so that its envelope pair (when
    # the check was factored) is the pair of prop_a -> prop_b
    prop_a, prop_b = search.check.word.args
    naming = search.check.atom_names
    trace.abstraction = dict(naming)
    trace.prop_antecedent = prop_a
    trace.prop_succedent = prop_b

    verdict = find_prop_interpolant(prop_a, prop_b, lat, budget=budgets.closure,
                                    var_cap=budgets.var_cap,
                                    env=search.check.report.envelopes)
    trace.verdict = verdict
    if verdict.status != YES:
        raise PropInterpolationFailed(
            f"propositional interpolation returned {verdict.status}",
            verdict=verdict, trace=trace,
        )

    atom_tab = {render(atom): atom for atom in atoms_of(search.expansion)}
    ground = concretize(verdict.interpolant, naming, atom_tab)
    trace.ground_interpolant = ground
    trace.notes.append(
        "weak quantifiers are reintroduced implicitly: the expansion instances "
        "imply the skolemized sides, so the ground interpolant already sits "
        "between them; no witness-axiom rewriting is performed")

    interpolant, steps = generalize_interpolant(ground, sk_a, sk_b)
    trace.generalization = steps
    trace.interpolant = interpolant

    a_side, b_side = phi.args
    common_preds = set(predicates_of(a_side)) & set(predicates_of(b_side))
    used_preds = set(predicates_of(interpolant))
    if not used_preds <= common_preds:
        raise LatlogError(
            f"interpolant mentions non-common predicates {sorted(used_preds - common_preds)}; "
            "this is a bug")
    used_funcs = set(functions_of(interpolant))
    common_funcs = set(functions_of(sk_a)) & set(functions_of(sk_b))
    if not used_funcs <= common_funcs:
        raise LatlogError(
            f"interpolant mentions non-common function symbols {sorted(used_funcs - common_funcs)}; "
            "this is a bug")

    _smoke_test(a_side, interpolant, b_side, lat, budgets, trace)
    return FoInterpolationResult(interpolant, trace)
