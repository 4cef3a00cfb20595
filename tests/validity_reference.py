"""Whole-grid reference for propositional validity.

Every variable keeps a grid axis, whatever its sign, and the word is
evaluated by ``syntax.fold`` one node at a time, a repeated subword as often
as it occurs.  The first cell that is not top gives the countervaluation.
``latlog.propcore.is_valid_prop`` must agree with it on the verdict, the
countervaluation, the count of valuations checked, the method and the class
of the error an ill-formed word raises.
"""
from typing import Optional

import numpy as np

from latlog.algebra import IMP, Lattice
from latlog.errors import BudgetExceeded, UnboundVariable, UndeclaredConstant
from latlog.propcore import (
    DEFAULT_VAR_CAP,
    ValidityReport,
    _decode_valuation,
    _ill_formed,
    _not_a_word,
    apply_connective,
    is_valid_implication,
)
from latlog.syntax import App, Const, Formula, PropVar, fold, prop_word_variables


def reference_column(phi: Formula, lat: Lattice, variables: tuple[str, ...]) -> np.ndarray:
    """The word's value on every valuation of ``variables``, lexicographic,
    the first variable most significant."""
    m, n = lat.m, len(variables)
    base = np.arange(m, dtype=np.uint8)
    leaves = {v: base.reshape((1,) * k + (m,) + (1,) * (n - 1 - k))
              for k, v in enumerate(variables)}

    def value(f: Formula, args):
        if isinstance(f, App):
            table = lat.tables.get(f.conn)
            if table is None or table.ndim != len(args):
                raise _ill_formed(f, lat)
            return apply_connective(lat.flat(f.conn), m, args)
        if isinstance(f, PropVar):
            if f.name not in leaves:
                raise UnboundVariable(f"variable {f.name!r} not in the valuation list",
                                      variable=f.name)
            return leaves[f.name]
        if isinstance(f, Const):
            if f.name not in lat.constants:
                raise UndeclaredConstant(f"constant {f.name!r} not declared", constant=f.name)
            return base[lat.constants[f.name]]
        raise _not_a_word(phi)

    return np.broadcast_to(fold(phi, value), (m,) * n).reshape(-1)


def reference_validity(phi: Formula, lat: Lattice,
                       var_cap: Optional[int] = None) -> ValidityReport:
    cap = DEFAULT_VAR_CAP if var_cap is None else var_cap
    names = prop_word_variables(phi)
    if names is None:
        raise _not_a_word(phi)
    variables = tuple(sorted(names))
    if len(variables) <= cap:
        col = reference_column(phi, lat, variables)
        bad = np.nonzero(col != lat.top)[0]
        if len(bad) == 0:
            return ValidityReport(True, None, variables, len(col))
        return ValidityReport(False, _decode_valuation(int(bad[0]), variables, lat),
                              variables, len(col))
    if isinstance(phi, App) and phi.conn == IMP:
        return is_valid_implication(phi.args[0], phi.args[1], lat, var_cap)
    raise BudgetExceeded(
        f"validity over {len(variables)} variables exceeds the cap of {cap}",
        cap=cap, variables=len(variables),
    )
