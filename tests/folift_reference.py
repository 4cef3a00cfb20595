"""Slow references for the first-order evaluation and the smoke test.

``plain_fo_eval`` is the plain recursion: every quantifier evaluates its
body once per domain element, so nested quantifiers cost |domain| to the
power of their nesting.  ``reference_smoke`` evaluates all three formulas on
every structure, one structure at a time, in the smoke test's order.
"""
import itertools
import math

from latlog.algebra import JOIN, MEET
from latlog.errors import LatlogError, SmokeTestFailed, UninterpretedSymbol
from latlog.folift import FoStructure
from latlog.syntax import (
    FORALL,
    App,
    Atom,
    Const,
    PropVar,
    Quant,
    Var,
    implies,
    inferred_language,
)


def plain_fo_eval(phi, lat, structure, assignment=None) -> str:
    join_t, meet_t = lat.tables[JOIN], lat.tables[MEET]

    def ev_term(t, env):
        if isinstance(t, Var):
            if t.name not in env:
                raise UninterpretedSymbol(f"object variable {t.name!r} unassigned",
                                          symbol=t.name)
            return env[t.name]
        args = tuple(ev_term(a, env) for a in t.args)
        return structure.functions[t.name][args]

    def ev(f, env):
        if isinstance(f, Atom):
            return structure.predicates[f.pred][tuple(ev_term(t, env) for t in f.args)]
        if isinstance(f, Const):
            return lat.constants[f.name]
        if isinstance(f, PropVar):
            raise UninterpretedSymbol(f"propositional variable {f.name!r}", symbol=f.name)
        if isinstance(f, App):
            table = lat.tables[f.conn]
            return int(table[tuple(ev(a, env) for a in f.args)])
        if isinstance(f, Quant):
            op = meet_t if f.kind == FORALL else join_t
            acc = None
            for d in structure.domain:
                v = ev(f.body, {**env, f.var: d})
                acc = v if acc is None else int(op[acc, v])
            if acc is None:
                raise LatlogError("empty domain")
            return acc
        raise LatlogError(f"cannot evaluate {f!r}")

    return lat.elements[ev(phi, dict(assignment or {}))]


def reference_smoke(a, interpolant, b, lat, budgets) -> dict:
    """The smoke test's ``{"domains", "structures"}`` record, or its
    SmokeTestFailed on the first failing structure."""
    lang = inferred_language(implies(implies(a, interpolant), b))
    preds, funcs = sorted(lang.predicates), sorted(lang.functions)
    checked, done = 0, []
    for d in range(1, budgets.smoke_domain_cap + 1):
        domain = tuple(range(d))
        keys = ([list(itertools.product(domain, repeat=lang.predicates[p])) for p in preds]
                + [list(itertools.product(domain, repeat=lang.functions[f])) for f in funcs])
        spaces = [range(lat.m)] * len(preds) + [domain] * len(funcs)
        space = math.prod(len(s) ** len(k) for s, k in zip(spaces, keys))
        if checked + space > budgets.smoke_structure_cap:
            break
        for combo in itertools.product(*(itertools.product(s, repeat=len(k))
                                         for s, k in zip(spaces, keys))):
            checked += 1
            tables = [dict(zip(k, v)) for k, v in zip(keys, combo)]
            structure = FoStructure(domain, dict(zip(preds, tables[:len(preds)])),
                                    dict(zip(funcs, tables[len(preds):])))
            va, vi, vb = (lat.index(plain_fo_eval(f, lat, structure))
                          for f in (a, interpolant, b))
            for (x, y), side in (((va, vi), "antecedent -> interpolant"),
                                 ((vi, vb), "interpolant -> succedent")):
                if not lat.leq[x, y]:
                    raise SmokeTestFailed(
                        f"{side} fails on a finite structure",
                        domain=list(domain),
                        predicates={p: dict(t) for p, t in structure.predicates.items()},
                        values=(lat.elements[x], lat.elements[y]),
                    )
        done.append(d)
    return {"domains": done, "structures": checked}
