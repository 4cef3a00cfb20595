"""Formula syntax: ASTs, parser, printer, substitution and polarity bookkeeping.

Grammar (ASCII):

    formula := implication
    implication := disjunction ("->" implication)?        right associative
    disjunction := conjunction ("|" conjunction)*
    conjunction := unit ("&" unit)*
    unit := "(" formula ")"
          | "#" NAME                      lattice constant
          | ("forall" | "exists") var "." body
          | CONN "(" formula, ... ")"     extra signature connective
          | Pred ( "(" term, ... ")" )?   uppercase head: atom
          | var                           lowercase head: propositional variable

A quantifier body extends to the end of the enclosing parenthesis, except
that a parenthesis immediately after the dot delimits the scope, so
``exists x.(B(x)) -> C`` is an implication while ``exists x. B(x) -> C``
is a single quantified formula.  Predicate symbols begin uppercase, function
symbols and variables lowercase.  Propositional and object variables live in
distinct namespaces; using a bound object variable in formula position is a
parse error.  In term position an identifier that is not bound by a
quantifier is read as an object constant when no explicit predicate language
is supplied.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from .algebra import PolaritySignature, default_signature
from .errors import (
    ArityMismatchError,
    BadPathError,
    LatlogError,
    ParseError,
    UnknownSymbolError,
)

# ---------------------------------------------------------------------------
# terms and formulas


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Func:
    name: str
    args: tuple = ()

    def __str__(self):
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


Term = Union[Var, Func]


@dataclass(frozen=True)
class PropVar:
    name: str

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class App:
    conn: str
    args: tuple

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Quant:
    kind: str  # "forall" | "exists"
    var: str
    body: "Formula"

    def __str__(self):
        return render(self)


Formula = Union[PropVar, Const, Atom, App, Quant]

FORALL, EXISTS = "forall", "exists"


def conjoin(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction of one or more formulas."""
    parts = list(parts)
    out = parts[0]
    for p in parts[1:]:
        out = App("&", (out, p))
    return out


def disjoin(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    out = parts[0]
    for p in parts[1:]:
        out = App("|", (out, p))
    return out


def implies(a: Formula, b: Formula) -> Formula:
    return App("->", (a, b))


# ---------------------------------------------------------------------------
# predicate languages


@dataclass
class PredicateLanguage:
    """Predicate and function symbols with arities; 0-ary functions are
    object constants."""

    predicates: dict[str, int] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        overlap = set(self.predicates) & set(self.functions)
        if overlap:
            raise UnknownSymbolError(
                f"symbols declared as both predicate and function: {sorted(overlap)}",
                symbols=sorted(overlap),
            )

    def object_constants(self) -> list[str]:
        return sorted(n for n, a in self.functions.items() if a == 0)

    def copy(self) -> "PredicateLanguage":
        return PredicateLanguage(dict(self.predicates), dict(self.functions))


def _record_arity(table: dict[str, int], name: str, arity: int, kind: str) -> None:
    old = table.get(name)
    if old is None:
        table[name] = arity
    elif old != arity:
        raise ArityMismatchError(
            f"{kind} {name!r} used with arity {arity} but also {old}",
            symbol=name, arities=(old, arity),
        )


def inferred_language(phi: Formula) -> PredicateLanguage:
    """Predicate language read off a formula: every atom's head is a
    predicate, every term application head a function symbol."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}

    def walk_term(t: Term) -> None:
        if isinstance(t, Func):
            _record_arity(funcs, t.name, len(t.args), "function")
            for a in t.args:
                walk_term(a)

    def walk(f: Formula) -> None:
        if isinstance(f, Atom):
            _record_arity(preds, f.pred, len(f.args), "predicate")
            for t in f.args:
                walk_term(t)
        elif isinstance(f, App):
            for a in f.args:
                walk(a)
        elif isinstance(f, Quant):
            walk(f.body)

    walk(phi)
    return PredicateLanguage(preds, funcs)


def ensure_object_constant(lang: PredicateLanguage) -> tuple[PredicateLanguage, Optional[str]]:
    """Add a fresh constant c0 when the language has no object constant."""
    if lang.object_constants():
        return lang, None
    taken = set(lang.predicates) | set(lang.functions)
    k = 0
    while f"c{k}" in taken:
        k += 1
    out = lang.copy()
    out.functions[f"c{k}"] = 0
    return out, f"c{k}"


# ---------------------------------------------------------------------------
# tokenizer and parser

_TOKEN_RE = re.compile(r"->|[()&|.,#]|[A-Za-z0-9_]+")
_WS_RE = re.compile(r"\s+")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ws = _WS_RE.match(text, i)
        if ws:
            i = ws.end()
            continue
        if i >= n:
            break
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r} at position {i}", position=i)
        out.append((m.group(), i))
        i = m.end()
    return out


class _Parser:
    def __init__(self, text: str, signature: PolaritySignature,
                 language: Optional[PredicateLanguage]):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.sig = signature
        self.lang = language
        self.infer = language is None
        self.preds: dict[str, int] = dict(language.predicates) if language else {}
        self.funcs: dict[str, int] = dict(language.functions) if language else {}
        self.bound: list[str] = []
        conn_names = set(signature.names())
        clash = conn_names & (set(self.preds) | set(self.funcs))
        if clash:
            raise UnknownSymbolError(
                f"names declared both as connective and in the language: {sorted(clash)}",
                symbols=sorted(clash),
            )

    def peek(self) -> Optional[str]:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def pos(self) -> int:
        return self.toks[self.i][1] if self.i < len(self.toks) else len(self.text)

    def advance(self) -> str:
        tok = self.toks[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r} at position {self.pos()}", position=self.pos())
        self.advance()

    def error(self, msg: str) -> ParseError:
        return ParseError(f"{msg} at position {self.pos()}", position=self.pos())

    def parse(self) -> Formula:
        f = self.formula()
        if self.peek() is not None:
            raise self.error(f"unexpected token {self.peek()!r}")
        return f

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.advance()
            return App("->", (left, self.formula()))
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "|":
            self.advance()
            f = App("|", (f, self.conjunction()))
        return f

    def conjunction(self) -> Formula:
        f = self.unit()
        while self.peek() == "&":
            self.advance()
            f = App("&", (f, self.unit()))
        return f

    def unit(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise self.error("expected a formula")
        if tok == "(":
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        if tok == "#":
            self.advance()
            name = self.peek()
            if name is None or not re.fullmatch(r"[A-Za-z0-9_]+", name):
                raise self.error("expected a constant name after '#'")
            self.advance()
            return Const(name)
        if tok in (FORALL, EXISTS):
            return self.quantifier()
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
            return self.name_unit()
        raise self.error(f"unexpected token {tok!r}")

    def quantifier(self) -> Formula:
        kind = self.advance()
        var = self.peek()
        if var is None or not re.fullmatch(r"[a-z][A-Za-z0-9_]*", var):
            raise self.error("quantifiers bind object variables (lowercase names)")
        if var in self.funcs:
            raise self.error(f"cannot bind {var!r}: it is a function symbol")
        self.advance()
        self.expect(".")
        self.bound.append(var)
        try:
            if self.peek() == "(":
                self.advance()
                body = self.formula()
                self.expect(")")
            else:
                body = self.formula()
        finally:
            self.bound.pop()
        return Quant(kind, var, body)

    def name_unit(self) -> Formula:
        name = self.advance()
        conn = self.sig.get(name)
        if conn is not None and conn.name not in ("|", "&", "->"):
            self.expect("(")
            args = []
            if self.peek() != ")":
                args.append(self.formula())
                while self.peek() == ",":
                    self.advance()
                    args.append(self.formula())
            self.expect(")")
            if len(args) != conn.arity:
                raise ArityMismatchError(
                    f"connective {name!r} expects {conn.arity} arguments, got {len(args)}",
                    symbol=name, arities=(conn.arity, len(args)),
                )
            return App(name, tuple(args))
        if name[0].isupper():
            args: tuple = ()
            if self.peek() == "(":
                self.advance()
                terms = [self.term()]
                while self.peek() == ",":
                    self.advance()
                    terms.append(self.term())
                self.expect(")")
                args = tuple(terms)
            if self.infer:
                _record_arity(self.preds, name, len(args), "predicate")
            else:
                if name not in self.preds:
                    raise UnknownSymbolError(f"unknown predicate {name!r}", symbol=name)
                if self.preds[name] != len(args):
                    raise ArityMismatchError(
                        f"predicate {name!r} expects {self.preds[name]} arguments, got {len(args)}",
                        symbol=name, arities=(self.preds[name], len(args)),
                    )
            return Atom(name, args)
        # lowercase name in formula position
        if self.peek() == "(":
            raise self.error(f"function application {name!r}(...) cannot appear in formula position")
        if name in self.bound:
            raise self.error(
                f"object variable {name!r} used as a propositional variable"
            )
        if name in self.funcs:
            raise self.error(f"term symbol {name!r} used in formula position")
        return PropVar(name)

    def term(self) -> Term:
        tok = self.peek()
        if tok is None or not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
            raise self.error("expected a term")
        if tok[0].isupper():
            raise self.error(f"predicate symbol {tok!r} in term position")
        if tok in (FORALL, EXISTS):
            raise self.error("quantifier keyword in term position")
        name = self.advance()
        if self.peek() == "(":
            self.advance()
            args = [self.term()]
            while self.peek() == ",":
                self.advance()
                args.append(self.term())
            self.expect(")")
            if self.infer:
                _record_arity(self.funcs, name, len(args), "function")
            else:
                if name not in self.funcs:
                    raise UnknownSymbolError(f"unknown function symbol {name!r}", symbol=name)
                if self.funcs[name] != len(args):
                    raise ArityMismatchError(
                        f"function {name!r} expects {self.funcs[name]} arguments, got {len(args)}",
                        symbol=name, arities=(self.funcs[name], len(args)),
                    )
            return Func(name, tuple(args))
        if name in self.bound:
            return Var(name)
        if name in self.funcs:
            if self.funcs[name] != 0:
                raise ArityMismatchError(
                    f"function {name!r} expects {self.funcs[name]} arguments, got 0",
                    symbol=name, arities=(self.funcs[name], 0),
                )
            return Func(name, ())
        if self.infer:
            _record_arity(self.funcs, name, 0, "function")
            return Func(name, ())
        return Var(name)  # free object variable under an explicit language


def parse_formula(text: str, signature: Optional[PolaritySignature] = None,
                  language: Optional[PredicateLanguage] = None) -> Formula:
    """Parse a formula; symbols are resolved against the signature and, when
    given, the predicate language (unknown symbols are rejected).  Without a
    language, predicate and function arities are inferred from use and
    unbound lowercase identifiers in term position are read as constants."""
    sig = signature or default_signature()
    parser = _Parser(text, sig, language)
    f = parser.parse()
    if parser.infer:
        clash = set(parser.preds) & set(parser.funcs)
        if clash:
            raise UnknownSymbolError(
                f"symbols used as both predicate and function: {sorted(clash)}",
                symbols=sorted(clash),
            )
    return f


# ---------------------------------------------------------------------------
# rendering

_PREC = {"->": 1, "|": 2, "&": 3}
_ATOMIC = 5  # precedence of a word that never needs parentheses


def precedence(f: Formula) -> int:
    """Precedence of the top symbol: infix connectives by _PREC, quantifiers
    lowest, everything else atomic."""
    if isinstance(f, Quant):
        return 0
    return _PREC.get(f.conn, _ATOMIC) if isinstance(f, App) else _ATOMIC


def arg_parens(conn: str, precs):
    """Which arguments of ``conn`` are parenthesised, given the precedence of
    each argument's top symbol (elementwise on arrays).  ``->`` associates to
    the right, ``&`` and ``|`` to the left; prefix arguments stay bare."""
    prec = _PREC.get(conn)
    if prec is None:
        return [False] * len(precs)
    need = (prec + 1, prec) if conn == "->" else (prec, prec + 1)
    return [p < q for p, q in zip(precs, need)]


def join_args(conn: str, parts) -> str:
    """Text of ``conn`` applied to already rendered (and bracketed) arguments."""
    if conn in _PREC:
        return f"{parts[0]} {conn} {parts[1]}"
    return f"{conn}({', '.join(parts)})"


def render(f: Formula) -> str:
    """Canonical string form; parse(render(f)) == f."""
    return _render(f)


def _render(f: Formula) -> str:
    if isinstance(f, PropVar):
        return f.name
    if isinstance(f, Const):
        return "#" + f.name
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(str(t) for t in f.args)})"
    if isinstance(f, Quant):
        body = _render(f.body)
        if body.startswith("("):
            body = f"({body})"
        return f"{f.kind} {f.var}. {body}"
    if isinstance(f, App):
        parens = arg_parens(f.conn, [precedence(a) for a in f.args])
        return join_args(f.conn, [f"({_render(a)})" if p else _render(a)
                                  for a, p in zip(f.args, parens)])
    raise LatlogError(f"cannot render {f!r}")


# ---------------------------------------------------------------------------
# structural helpers


def children(f: Formula) -> tuple:
    if isinstance(f, App):
        return f.args
    if isinstance(f, Quant):
        return (f.body,)
    return ()


def subformula_at(f: Formula, path: tuple[int, ...]) -> Formula:
    node = f
    for step in path:
        kids = children(node)
        if step < 0 or step >= len(kids):
            raise BadPathError(f"path {path} leaves the formula at step {step}", path=path)
        node = kids[step]
    return node


def polarity_of(f: Formula, path: tuple[int, ...],
                signature: Optional[PolaritySignature] = None) -> str:
    """Sign of the position addressed by ``path``: product of the polarity
    annotations along the way; quantifiers contribute '+'."""
    sig = signature or default_signature()
    sign = 1
    node = f
    for step in path:
        if isinstance(node, App):
            conn = sig.get(node.conn)
            if conn is None:
                raise UnknownSymbolError(f"connective {node.conn!r} not in signature", symbol=node.conn)
            if step < 0 or step >= conn.arity:
                raise BadPathError(f"path {path} leaves the formula", path=path)
            if conn.polarity[step] == "-":
                sign = -sign
            node = node.args[step]
        elif isinstance(node, Quant):
            if step != 0:
                raise BadPathError(f"path {path} leaves the formula", path=path)
            node = node.body
        else:
            raise BadPathError(f"path {path} leaves the formula", path=path)
    return "+" if sign > 0 else "-"


@dataclass(frozen=True)
class Occurrence:
    path: tuple[int, ...]
    quantifier: str
    variable: str
    polarity: str
    strength: str  # "strong" | "weak"


def classify_quantifiers(f: Formula,
                         signature: Optional[PolaritySignature] = None) -> list[Occurrence]:
    """All quantifier occurrences with their polarity and strength.

    Strong: forall at + or exists at -; weak: exists at + or forall at -.
    """
    sig = signature or default_signature()
    out: list[Occurrence] = []

    def walk(node: Formula, sign: int, path: tuple[int, ...]) -> None:
        if isinstance(node, Quant):
            pol = "+" if sign > 0 else "-"
            strong = (node.kind == FORALL) == (sign > 0)
            out.append(Occurrence(path, node.kind, node.var, pol,
                                  "strong" if strong else "weak"))
            walk(node.body, sign, path + (0,))
        elif isinstance(node, App):
            conn = sig.get(node.conn)
            if conn is None:
                raise UnknownSymbolError(f"connective {node.conn!r} not in signature", symbol=node.conn)
            for i, a in enumerate(node.args):
                walk(a, -sign if conn.polarity[i] == "-" else sign, path + (i,))

    walk(f, 1, ())
    return out


def has_strong_quantifiers(f: Formula, signature=None) -> bool:
    return any(o.strength == "strong" for o in classify_quantifiers(f, signature))


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, Quant):
        return False
    return all(is_quantifier_free(c) for c in children(f))


def is_prop_word(f: Formula) -> bool:
    """True when the formula contains no atoms, terms or quantifiers."""
    if isinstance(f, (PropVar, Const)):
        return True
    if isinstance(f, App):
        return all(is_prop_word(a) for a in f.args)
    return False


def prop_variables(f: Formula) -> set[str]:
    if isinstance(f, PropVar):
        return {f.name}
    out: set[str] = set()
    for c in children(f):
        out |= prop_variables(c)
    return out


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


def free_object_vars(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        out: set[str] = set()
        for t in f.args:
            out |= term_vars(t)
        return out
    if isinstance(f, Quant):
        return free_object_vars(f.body) - {f.var}
    out = set()
    for c in children(f):
        out |= free_object_vars(c)
    return out


def atoms_of(f: Formula) -> list[Atom]:
    """Distinct atoms in pre-order of first occurrence."""
    seen: dict[Atom, None] = {}

    def walk(node: Formula) -> None:
        if isinstance(node, Atom):
            seen.setdefault(node)
        for c in children(node):
            walk(c)

    walk(f)
    return list(seen)


def predicates_of(f: Formula) -> dict[str, int]:
    return inferred_language(f).predicates


def functions_of(f: Formula) -> dict[str, int]:
    return inferred_language(f).functions


def all_identifiers(f: Formula) -> set[str]:
    """Every name occurring anywhere (variables, symbols, constants)."""
    out: set[str] = set()

    def walk_term(t: Term) -> None:
        if isinstance(t, Var):
            out.add(t.name)
        else:
            out.add(t.name)
            for a in t.args:
                walk_term(a)

    def walk(node: Formula) -> None:
        if isinstance(node, PropVar) or isinstance(node, Const):
            out.add(node.name)
        elif isinstance(node, Atom):
            out.add(node.pred)
            for t in node.args:
                walk_term(t)
        elif isinstance(node, App):
            out.add(node.conn)
            for a in node.args:
                walk(a)
        elif isinstance(node, Quant):
            out.add(node.var)
            walk(node.body)

    walk(f)
    return out


def fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


# ---------------------------------------------------------------------------
# substitution


def substitute(f: Formula, mapping: Mapping[str, object]) -> Formula:
    """Simultaneous substitution.

    Keys name propositional variables (values: formulas) or object variables
    (values: terms).  Bound occurrences are untouched; bound variables are
    renamed automatically when a substituted value would be captured.
    """
    return _subst(f, dict(mapping))


def _value_free_names(v: object) -> set[str]:
    if isinstance(v, (Var, Func)):
        return term_vars(v)
    return free_object_vars(v)  # formula value


def _subst_term(t: Term, m: Mapping[str, object]) -> Term:
    if isinstance(t, Var):
        v = m.get(t.name)
        if v is None:
            return t
        if not isinstance(v, (Var, Func)):
            raise LatlogError(
                f"object variable {t.name!r} must be mapped to a term", variable=t.name
            )
        return v
    return Func(t.name, tuple(_subst_term(a, m) for a in t.args))


def _subst(f: Formula, m: dict[str, object]) -> Formula:
    if not m:
        return f
    if isinstance(f, PropVar):
        v = m.get(f.name)
        if v is None:
            return f
        if isinstance(v, (Var, Func)):
            raise LatlogError(
                f"propositional variable {f.name!r} must be mapped to a formula",
                variable=f.name,
            )
        return v
    if isinstance(f, Const):
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_subst_term(t, m) for t in f.args))
    if isinstance(f, App):
        return App(f.conn, tuple(_subst(a, m) for a in f.args))
    if isinstance(f, Quant):
        inner = {k: v for k, v in m.items() if k != f.var}
        if not inner:
            return f
        relevant = {k for k in inner
                    if k in free_object_vars(f.body) or k in prop_variables(f.body)}
        if not relevant:
            return f
        capture = any(f.var in _value_free_names(inner[k]) for k in relevant)
        var, body = f.var, f.body
        if capture:
            taken = (free_object_vars(body) | prop_variables(body) | set(inner)
                     | {f.var})
            for k in relevant:
                taken |= _value_free_names(inner[k])
            var = fresh_name(f.var, taken)
            body = _subst(body, {f.var: Var(var)})
        return Quant(f.kind, var, _subst(body, inner))
    raise LatlogError(f"cannot substitute in {f!r}")


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound object variables."""

    def go(a: Formula, b: Formula, fw: dict[str, str], bw: dict[str, str]) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, (PropVar, Const)):
            return a.name == b.name
        if isinstance(a, Atom):
            return a.pred == b.pred and len(a.args) == len(b.args) and all(
                term_go(s, t, fw, bw) for s, t in zip(a.args, b.args)
            )
        if isinstance(a, App):
            return a.conn == b.conn and len(a.args) == len(b.args) and all(
                go(s, t, fw, bw) for s, t in zip(a.args, b.args)
            )
        if isinstance(a, Quant):
            if a.kind != b.kind:
                return False
            fw2 = dict(fw)
            bw2 = dict(bw)
            fw2[a.var] = b.var
            bw2[b.var] = a.var
            return go(a.body, b.body, fw2, bw2)
        return False

    def term_go(s: Term, t: Term, fw, bw) -> bool:
        if isinstance(s, Var) and isinstance(t, Var):
            return fw.get(s.name, s.name) == t.name and bw.get(t.name, t.name) == s.name
        if isinstance(s, Func) and isinstance(t, Func):
            return s.name == t.name and len(s.args) == len(t.args) and all(
                term_go(x, y, fw, bw) for x, y in zip(s.args, t.args)
            )
        return False

    return go(f, g, {}, {})
