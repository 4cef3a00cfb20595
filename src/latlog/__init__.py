"""Workbench for finitely-valued lattice-based logics.

Validate finite lattice-oriented algebras, decide propositional validity and
interpolation, enumerate representable functions, compute interpolation
spectra, and construct first-order interpolants through skolemization and
Herbrand expansion.
"""
from . import errors
from .algebra import (
    Connective,
    KripkeFrame,
    Lattice,
    PolaritySignature,
    RawConnective,
    RawLattice,
    default_signature,
    derive_residuum,
    format_lattice_source,
    implication_mode_disagreements,
    kripke_frame,
    load_lattice,
    parse_frame_source,
    parse_lattice_source,
    upset_lattice,
    validate_lattice,
)
from .bundled import BUNDLED, bundled_lattice, bundled_source
from .syntax import (
    App,
    Atom,
    Const,
    Formula,
    Func,
    PredicateLanguage,
    PropVar,
    Quant,
    Term,
    Var,
    alpha_equal,
    classify_quantifiers,
    conjoin,
    disjoin,
    implies,
    inferred_language,
    parse_formula,
    polarity_of,
    render,
    substitute,
)
from .propcore import (
    ClosureBudget,
    ClosureResult,
    ValueColumn,
    column_of,
    constant_values,
    envelopes,
    eval_prop,
    is_valid_implication,
    is_valid_prop,
    representable_closure,
)
from .interp import (
    DecideBudget,
    DecisionReport,
    InterpolationVerdict,
    SpectrumReport,
    constructive_interpolant_all_constants,
    decide_interpolation,
    find_prop_interpolant,
    spectrum,
)
from .folift import (
    FoBudgets,
    FoStructure,
    SkolemRecord,
    check_valid_expansion,
    enumerate_closed_terms,
    expand_n,
    find_herbrand_expansion,
    fo_eval,
    fo_interpolate,
    generalize_interpolant,
    skolemize,
)

__version__ = "0.1.0"
