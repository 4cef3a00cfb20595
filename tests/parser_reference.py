"""Recursive-descent parser kept as the differential reference for
``latlog.syntax.parse_formula``.

One method per grammar rule, each calling the next by recursion, so deep
input ends in a RecursionError here.  The tokenizer is the original
one-token-at-a-time loop; the arity bookkeeping and the AST classes come
from ``latlog.syntax``.
"""
import re
from typing import Optional

from latlog.algebra import PolaritySignature, default_signature
from latlog.errors import ArityMismatchError, ParseError, UnknownSymbolError
from latlog.syntax import (
    EXISTS,
    FORALL,
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
    _record_arity,
)

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
