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

The tokenizer checks the text for a character that starts no token with
one regular-expression match, then lists the tokens with one ``findall``;
token positions are found again only for an error message.  The parser is
one operator-precedence loop over an explicit stack of the infix
connectives waiting for a right argument and the groups still open
(brackets, connective calls, quantifiers); a quantifier with no bracket after
its dot closes when its group does.  Terms are read by a second loop that
keeps the open function applications on a stack.  Walks over a formula share
one traversal on an explicit stack: ``nodes`` yields every subformula and
term in pre-order, ``fold`` combines values bottom-up, left to right; and
``render`` is a loop of its own.  Substitution keeps a stack of tasks
(substitute into a node, substitute into a renamed quantifier body, build a
node from its children's values), and alpha-equality a stack of the pairs
of subtrees still to compare with their bound-variable maps.  Parsing,
printing, evaluation, substitution, alpha-equality and the collectors
therefore handle any nesting depth, and so do free variables and
quantifier classification.  Dataclass ``==`` and ``hash`` still recurse
once per level, so ``atoms_of`` tells atoms apart by their text.

Every walker raises ``ill_formed`` on an application outside the
signature or of the wrong arity, and the sign walks step by ``signed_args``,
which flips signs under a ``-`` position.  An infix connective on other
than two arguments prints in call form, so every error can render its formula.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Mapping, Optional, Union

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
        return render(self)


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
# traversal


def children(node) -> tuple:
    """Immediate parts of a formula or term: the arguments of an App, Atom or
    Func, the body of a Quant, nothing for a variable or constant."""
    if isinstance(node, Quant):
        return (node.body,)
    return getattr(node, "args", ())


def with_children(node, kids):
    """``node`` with its parts replaced by ``kids`` (as ``children`` lists
    them); variables and constants are returned as they are."""
    if isinstance(node, App):
        return App(node.conn, tuple(kids))
    if isinstance(node, Atom):
        return Atom(node.pred, tuple(kids))
    if isinstance(node, Func):
        return Func(node.name, tuple(kids))
    if isinstance(node, Quant):
        return Quant(node.kind, node.var, kids[0])
    return node


def nodes(root) -> Iterator:
    """``root`` and every subformula and term below it in pre-order, left to
    right."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        kids = children(node)
        if kids:
            stack.extend(reversed(kids))


def fold(root, combine):
    """Post-order fold, left to right: ``combine(node, values)`` receives the
    values of ``children(node)`` in order (an empty tuple for a leaf) and
    returns the value of ``node``."""
    # pre-order with the children taken right to left is, reversed, the
    # post-order with the children taken left to right
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        kids = (node.body,) if type(node) is Quant else getattr(node, "args", ())
        order.append((node, len(kids)))
        stack.extend(kids)
    values: list = []
    for node, n in reversed(order):
        if n:
            args = values[-n:]
            del values[-n:]
            values.append(combine(node, args))
        else:
            values.append(combine(node, ()))
    return values[0]


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
    for node in nodes(phi):
        if isinstance(node, Atom):
            _record_arity(preds, node.pred, len(node.args), "predicate")
        elif isinstance(node, Func):
            _record_arity(funcs, node.name, len(node.args), "function")
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

_TOKEN = r"->|[()&|.,#]|[A-Za-z0-9_]+"
_TOKEN_RE = re.compile(_TOKEN)
_TOKENS = _TOKEN_RE.findall
_TOKEN_MATCHES = _TOKEN_RE.finditer
# the longest prefix of tokens and whitespace: it ends at the first character
# that starts neither
_CLEAN = re.compile(rf"(?:{_TOKEN}|\s+)*").match
_WORD = re.compile(r"[A-Za-z0-9_]+").fullmatch
# open groups on the parser's operator stack
_PAREN, _SCOPED, _OPEN, _CALL = ("(",), "scoped", "open", "call"


def _tokenize(text: str) -> list[Optional[str]]:
    """The tokens of ``text`` followed by a None sentinel.  Their positions
    are not kept; ``_position`` finds one again for an error message."""
    end = _CLEAN(text).end()
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r} at position {end}",
                         position=end)
    toks: list[Optional[str]] = _TOKENS(text)
    toks.append(None)
    return toks


def _position(text: str, i: int) -> int:
    """Position in ``text`` of its token number ``i``; ``len(text)`` for the
    sentinel."""
    for k, match in enumerate(_TOKEN_MATCHES(text)):
        if k == i:
            return match.start()
    return len(text)


class _Parser:
    """Reads a token list through the cursor ``i``.  Tokens are names
    (``[A-Za-z0-9_]+``) or punctuation, so a token is a name when its first
    character is a letter and a lowercase name when that letter is."""

    def __init__(self, text: str, signature: PolaritySignature,
                 language: Optional[PredicateLanguage]):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.conns = signature.by_name
        self.lang = language
        self.infer = language is None
        self.preds: dict[str, int] = dict(language.predicates) if language else {}
        self.funcs: dict[str, int] = dict(language.functions) if language else {}
        self.bound: list[str] = []
        if language is not None:
            clash = self.conns.keys() & (self.preds.keys() | self.funcs.keys())
            if clash:
                raise UnknownSymbolError(
                    f"names declared both as connective and in the language: {sorted(clash)}",
                    symbols=sorted(clash),
                )

    def error(self, msg: str) -> ParseError:
        """``msg`` at the position of the token under the cursor."""
        pos = _position(self.text, self.i)
        return ParseError(f"{msg} at position {pos}", position=pos)

    def expect(self, tok: str) -> None:
        if self.toks[self.i] != tok:
            raise self.error(f"expected {tok!r}")
        self.i += 1

    def parse(self) -> Formula:
        """One operator-precedence loop.  ``values`` holds finished
        subformulas; ``ops`` holds the infix connectives still waiting for
        their right argument and the groups still open: brackets,
        connective calls and quantifiers.  A quantifier with no bracket
        right after its dot stays open until its group ends."""
        toks = self.toks
        values: list = []
        ops: list = []
        while True:
            unit = self.unit(ops)
            if unit is None:
                continue  # a group opened: read its first unit
            values.append(unit)
            while True:  # after a unit: an infix connective or a group's end
                tok = toks[self.i]
                need = _NEED.get(tok)
                if need is not None:
                    while ops and type(ops[-1]) is str and _PREC[ops[-1]] >= need[0]:
                        self._reduce(ops.pop(), values)
                    ops.append(tok)
                    self.i += 1
                    break
                while ops and (type(ops[-1]) is str or ops[-1][0] == _OPEN):
                    self._reduce(ops.pop(), values)
                if not ops:
                    if tok is not None:
                        raise self.error(f"unexpected token {tok!r}")
                    return values[0]
                frame = ops[-1]
                if frame[0] == _CALL and tok == ",":
                    frame[3].append(values.pop())
                    self.i += 1
                    break
                self.expect(")")
                ops.pop()
                if frame[0] == _SCOPED:
                    self._reduce(frame, values)
                elif frame[0] == _CALL:
                    frame[3].append(values.pop())
                    values.append(self.call(frame[1], frame[2], frame[3]))

    def _reduce(self, op, values: list) -> None:
        """Close an infix connective or a quantifier over the values on top."""
        if type(op) is str:
            right = values.pop()
            values[-1] = App(op, (values[-1], right))
        else:
            self.bound.pop()
            values[-1] = Quant(op[1], op[2], values[-1])

    def unit(self, ops: list) -> Optional[Formula]:
        """A formula read whole, or None after opening a group on ``ops``."""
        toks, i = self.toks, self.i
        tok = toks[i]
        if tok is None:
            raise self.error("expected a formula")
        if tok == "(":
            self.i = i + 1
            ops.append(_PAREN)
            return None
        if tok == "#":
            self.i = i + 1
            name = toks[i + 1]
            if name is None or not _WORD(name):
                raise self.error("expected a constant name after '#'")
            self.i = i + 2
            return Const(name)
        if not tok[0].isalpha():
            raise self.error(f"unexpected token {tok!r}")
        if tok == FORALL or tok == EXISTS:
            self.i = i + 1
            var = toks[i + 1]
            if var is None or not var[0].islower():
                raise self.error("quantifiers bind object variables (lowercase names)")
            if var in self.funcs:
                raise self.error(f"cannot bind {var!r}: it is a function symbol")
            self.i = i + 2
            self.expect(".")
            self.bound.append(var)
            if toks[self.i] == "(":
                self.i += 1
                ops.append((_SCOPED, tok, var))
            else:
                ops.append((_OPEN, tok, var))
            return None
        self.i = i = i + 1
        conn = self.conns.get(tok)
        if conn is not None and conn.name not in _PREC:
            self.expect("(")
            if toks[i + 1] != ")":
                ops.append((_CALL, tok, conn, []))
                return None
            self.i = i + 2
            return self.call(tok, conn, [])
        if tok[0].isupper():
            return self.atom(tok)
        # lowercase name in formula position
        if toks[i] == "(":
            raise self.error(f"function application {tok!r}(...) cannot appear in formula position")
        if tok in self.bound:
            raise self.error(
                f"object variable {tok!r} used as a propositional variable"
            )
        if tok in self.funcs:
            raise self.error(f"term symbol {tok!r} used in formula position")
        return PropVar(tok)

    def call(self, name: str, conn, args: list) -> Formula:
        if len(args) != conn.arity:
            raise _arity_error("connective", name, conn.arity, len(args))
        return App(name, tuple(args))

    def atom(self, name: str) -> Formula:
        args: tuple = ()
        if self.toks[self.i] == "(":
            self.i += 1
            args = self.terms()
        self.use(self.preds, name, len(args), "predicate")
        return Atom(name, args)

    def terms(self) -> tuple:
        """Comma-separated terms through the closing bracket.  Each function
        application still open keeps its name and arguments on ``pending``;
        the bottom entry collects the atom's own arguments."""
        toks = self.toks
        pending: list = [(None, [])]
        while True:
            name = toks[self.i]
            if name is None or not name[0].isalpha():
                raise self.error("expected a term")
            if name[0].isupper():
                raise self.error(f"predicate symbol {name!r} in term position")
            if name == FORALL or name == EXISTS:
                raise self.error("quantifier keyword in term position")
            self.i += 1
            if toks[self.i] == "(":
                self.i += 1
                pending.append((name, []))
                continue
            term = self.constant_or_var(name)
            while True:
                pending[-1][1].append(term)
                if toks[self.i] == ",":
                    self.i += 1
                    break
                self.expect(")")
                name, args = pending.pop()
                if name is None:
                    return tuple(args)
                self.use(self.funcs, name, len(args), "function")
                term = Func(name, tuple(args))

    def constant_or_var(self, name: str) -> Term:
        if name in self.bound:
            return Var(name)
        if name in self.funcs:
            if self.funcs[name] != 0:
                raise _arity_error("function", name, self.funcs[name], 0)
            return Func(name, ())
        if self.infer:
            _record_arity(self.funcs, name, 0, "function")
            return Func(name, ())
        return Var(name)  # free object variable under an explicit language

    def use(self, table: dict[str, int], name: str, arity: int, kind: str) -> None:
        """Record a predicate or function symbol's arity, or check it against
        the given language."""
        if self.infer:
            _record_arity(table, name, arity, kind)
        elif name not in table:
            what = "function symbol" if kind == "function" else kind
            raise UnknownSymbolError(f"unknown {what} {name!r}", symbol=name)
        elif table[name] != arity:
            raise _arity_error(kind, name, table[name], arity)


def _arity_error(kind: str, name: str, want: int, got: int) -> ArityMismatchError:
    return ArityMismatchError(f"{kind} {name!r} expects {want} arguments, got {got}",
                              symbol=name, arities=(want, got))


def parse_formula(text: str, signature: Optional[PolaritySignature] = None,
                  language: Optional[PredicateLanguage] = None) -> Formula:
    """Parse a formula; symbols are resolved against the signature and, when
    given, the predicate language (unknown symbols are rejected).  Without a
    language, predicate and function arities are inferred from use and
    unbound lowercase identifiers in term position are read as constants."""
    parser = _Parser(text, signature or default_signature(), language)
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
# least precedence each argument of an infix connective takes without
# brackets: ``->`` associates to the right, ``&`` and ``|`` to the left
_NEED = {conn: (p + 1, p) if conn == "->" else (p, p + 1) for conn, p in _PREC.items()}
_ATOMIC = 5  # precedence of a word that never needs parentheses


def _infix(f) -> bool:
    """Whether ``f`` prints infix: an infix connective on two arguments."""
    return type(f) is App and f.conn in _PREC and len(f.args) == 2


def precedence(f: Formula) -> int:
    """Precedence of the top symbol: infix connectives by _PREC, quantifiers
    lowest, everything else atomic."""
    if isinstance(f, Quant):
        return 0
    return _PREC[f.conn] if _infix(f) else _ATOMIC


def arg_parens(conn: str, precs):
    """Which arguments of ``conn`` are parenthesised, given the precedence of
    each argument's top symbol (elementwise on arrays); prefix arguments stay
    bare."""
    need = _NEED.get(conn) if len(precs) == 2 else None
    if need is None:
        return [False] * len(precs)
    return [p < q for p, q in zip(precs, need)]


def join_args(conn: str, parts) -> str:
    """Text of ``conn`` applied to already rendered (and bracketed) arguments."""
    if conn in _PREC and len(parts) == 2:
        return f"{parts[0]} {conn} {parts[1]}"
    return f"{conn}({', '.join(parts)})"


def _opens_with_paren(f: Formula) -> bool:
    """Whether the text of ``f`` starts with '(': some leftmost infix
    argument is bracketed."""
    while _infix(f):
        if precedence(f.args[0]) < _NEED[f.conn][0]:
            return True
        f = f.args[0]
    return False


def _push_call(stack: list, head: str, args: tuple) -> None:
    """Push ``head(arg, ..., arg)`` onto a render stack, last piece first."""
    stack.append(")")
    for i in range(len(args) - 1, -1, -1):
        stack.append(args[i])
        if i:
            stack.append(", ")
    stack.append(head + "(")


def render(f) -> str:
    """Canonical string form of a formula or term; parse(render(f)) == f.

    Pieces of text and nodes still to render share one stack, so the text
    comes out left to right at any depth."""
    out: list[str] = []
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, (PropVar, Var)):
            out.append(node.name)
        elif isinstance(node, Const):
            out.append("#" + node.name)
        elif _infix(node):
            (a, b), need = node.args, _NEED[node.conn]
            stack.extend((")", b, "(") if precedence(b) < need[1] else (b,))
            stack.append(f" {node.conn} ")
            stack.extend((")", a, "(") if precedence(a) < need[0] else (a,))
        elif isinstance(node, App):
            _push_call(stack, node.conn, node.args)
        elif isinstance(node, (Atom, Func)):
            head = node.pred if isinstance(node, Atom) else node.name
            if node.args:
                _push_call(stack, head, node.args)
            else:
                out.append(head)
        elif isinstance(node, Quant):
            out.append(f"{node.kind} {node.var}. ")
            body = node.body
            stack.extend((")", body, "(") if _opens_with_paren(body) else (body,))
        else:
            raise LatlogError(f"cannot render {node!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# structural helpers


def ill_formed(node: App, signature: PolaritySignature) -> LatlogError:
    """The error of ``node``, which applies a connective outside the
    signature or one given a wrong number of arguments."""
    conn = signature.get(node.conn)
    if conn is None:
        return UnknownSymbolError(f"connective {node.conn!r} not in signature", symbol=node.conn)
    return _arity_error("connective", node.conn, conn.arity, len(node.args))


def signed_args(node: Formula, sign: int, signature: PolaritySignature) -> tuple:
    """The subformulas of ``node``, each with its sign (1 or -1): an
    argument of a connective flips ``sign`` at a ``-`` position, a
    quantifier's body keeps it, and an atom has none.  An application that
    the signature does not allow raises ``ill_formed``."""
    if type(node) is App:
        conn = signature.get(node.conn)
        if conn is None or conn.arity != len(node.args):
            raise ill_formed(node, signature)
        return tuple((a, -sign if p == "-" else sign) for a, p in zip(node.args, conn.polarity))
    return ((node.body, sign),) if type(node) is Quant else ()


def polarity_of(f: Formula, path: tuple[int, ...],
                signature: Optional[PolaritySignature] = None) -> str:
    """Sign of the position addressed by ``path``: product of the polarity
    annotations along the way; quantifiers contribute '+'."""
    sig = signature or default_signature()
    node, sign = f, 1
    for step in path:
        kids = signed_args(node, sign, sig)
        if not 0 <= step < len(kids):
            raise BadPathError(f"path {path} leaves the formula", path=path)
        node, sign = kids[step]
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
    stack = [(f, 1, ())]
    while stack:
        node, sign, path = stack.pop()
        if isinstance(node, Quant):
            pol = "+" if sign > 0 else "-"
            strong = (node.kind == FORALL) == (sign > 0)
            out.append(Occurrence(path, node.kind, node.var, pol,
                                  "strong" if strong else "weak"))
        # pushed right to left, so that the arguments are popped left to right
        kids = signed_args(node, sign, sig)
        stack.extend((kid, s, path + (i,)) for i, (kid, s) in reversed(tuple(enumerate(kids))))
    return out


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(node, Quant) for node in nodes(f))


def prop_word_variables(f: Formula) -> Optional[set[str]]:
    """The variables of a propositional word, in one walk; None when the
    formula contains an atom, a term or a quantifier."""
    names: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is App:
            stack.extend(node.args)
        elif kind is PropVar:
            names.add(node.name)
        elif kind is not Const:
            return None
    return names


def prop_variables(f: Formula) -> set[str]:
    return {node.name for node in nodes(f) if isinstance(node, PropVar)}


def term_vars(t: Term) -> set[str]:
    return {node.name for node in nodes(t) if isinstance(node, Var)}


def free_object_vars(f: Formula) -> set[str]:
    def free(node, kids) -> set[str]:
        if isinstance(node, Var):
            return {node.name}
        if isinstance(node, Quant):
            return kids[0] - {node.var}
        return set().union(*kids)

    return fold(f, free)


def atoms_of(f: Formula) -> list[Atom]:
    """Distinct atoms in pre-order of first occurrence, told apart by their
    text (so that no atom is hashed, which recurses once per term level)."""
    atoms: dict[str, Atom] = {}
    for node in nodes(f):
        if isinstance(node, Atom):
            atoms.setdefault(render(node), node)
    return list(atoms.values())


def predicates_of(f: Formula) -> dict[str, int]:
    return inferred_language(f).predicates


def functions_of(f: Formula) -> dict[str, int]:
    return inferred_language(f).functions


def all_identifiers(f: Formula) -> set[str]:
    """Every name occurring anywhere (variables, symbols, constants)."""
    out: set[str] = set()
    for node in nodes(f):
        if isinstance(node, Atom):
            out.add(node.pred)
        elif isinstance(node, App):
            out.add(node.conn)
        elif isinstance(node, Quant):
            out.add(node.var)
        else:
            out.add(node.name)
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


_SUBST, _RESUBST, _BUILD = "subst", "resubst", "build"  # task kinds of ``substitute``


def substitute(f: Formula, mapping: Mapping[str, object]) -> Formula:
    """Simultaneous substitution.

    Keys name propositional variables (values: formulas) or object variables
    (values: terms).  Bound occurrences are untouched; bound variables are
    renamed automatically when a substituted value would be captured.

    The walk keeps its work on an explicit stack of tasks: substitute a
    mapping into a node, substitute a mapping into the value just built (a
    renamed quantifier body), or build a node from the values of its
    children, which are substituted left to right.
    """
    values: list = []
    tasks: list = [(_SUBST, f, dict(mapping))]
    while tasks:
        task = tasks.pop()
        kind = task[0]
        if kind is _BUILD:
            _, make, n = task
            args = tuple(values[len(values) - n:])
            del values[len(values) - n:]
            values.append(make(args))
            continue
        if kind is _RESUBST:
            node, m = values.pop(), task[1]
        else:
            _, node, m = task
        if not m:
            values.append(node)
        elif isinstance(node, PropVar):
            v = m.get(node.name)
            if isinstance(v, (Var, Func)):
                raise LatlogError(
                    f"propositional variable {node.name!r} must be mapped to a formula",
                    variable=node.name,
                )
            values.append(node if v is None else v)
        elif isinstance(node, Const):
            values.append(node)
        elif isinstance(node, Atom):
            values.append(Atom(node.pred, tuple(_subst_term(t, m) for t in node.args)))
        elif isinstance(node, App):
            tasks.append((_BUILD, partial(App, node.conn), len(node.args)))
            tasks.extend((_SUBST, a, m) for a in reversed(node.args))
        elif isinstance(node, Quant):
            _subst_quant(node, m, values, tasks)
        else:
            raise LatlogError(f"cannot substitute in {node!r}")
    return values[0]


def _subst_quant(f: Quant, m: dict[str, object], values: list, tasks: list) -> None:
    """Queue the substitution of ``m`` into the quantifier ``f``: its body
    under the mapping without ``f.var``, after renaming the bound variable
    when a substituted value would be captured."""
    inner = {k: v for k, v in m.items() if k != f.var}
    relevant = {k for k in inner
                if k in free_object_vars(f.body) or k in prop_variables(f.body)} if inner else ()
    if not relevant:
        values.append(f)
        return
    var, body = f.var, f.body
    capture = any(f.var in _value_free_names(inner[k]) for k in relevant)
    if capture:
        taken = free_object_vars(body) | prop_variables(body) | set(inner) | {f.var}
        for k in relevant:
            taken |= _value_free_names(inner[k])
        var = fresh_name(f.var, taken)
    tasks.append((_BUILD, lambda args: Quant(f.kind, var, *args), 1))
    if capture:
        tasks.append((_RESUBST, inner))
        tasks.append((_SUBST, body, {f.var: Var(var)}))
    else:
        tasks.append((_SUBST, body, inner))


def _value_free_names(v: object) -> set[str]:
    if isinstance(v, (Var, Func)):
        return term_vars(v)
    return free_object_vars(v)  # formula value


def _subst_term(t: Term, m: Mapping[str, object]) -> Term:
    def value(node: Term, args) -> Term:
        if isinstance(node, Func):
            return Func(node.name, tuple(args)) if args else node
        v = m.get(node.name)
        if v is None:
            return node
        if not isinstance(v, (Var, Func)):
            raise LatlogError(
                f"object variable {node.name!r} must be mapped to a term", variable=node.name
            )
        return v

    return value(t, ()) if type(t) is Var or not t.args else fold(t, value)


_HEADS = {Atom: "pred", App: "conn", Func: "name"}  # what ``alpha_equal`` compares besides args


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality up to renaming of bound object variables.  Pairs
    of subformulas or terms still to compare wait on an explicit stack, each
    with the maps between the bound variables of its two sides."""
    stack = [(f, g, {}, {})]
    while stack:
        a, b, fw, bw = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, Var):
            if fw.get(a.name, a.name) != b.name or bw.get(b.name, b.name) != a.name:
                return False
        elif isinstance(a, (PropVar, Const)):
            if a.name != b.name:
                return False
        elif type(a) in _HEADS:
            head = _HEADS[type(a)]
            if getattr(a, head) != getattr(b, head) or len(a.args) != len(b.args):
                return False
            stack.extend((s, t, fw, bw) for s, t in zip(a.args, b.args))
        elif isinstance(a, Quant):
            if a.kind != b.kind:
                return False
            stack.append((a.body, b.body, {**fw, a.var: b.var}, {**bw, b.var: a.var}))
        else:
            return False
    return True
