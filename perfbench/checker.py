"""Independent re-check of YES answers, by brute force.

Nothing here uses latlog: the lattice is read from its ``.lat`` file by a
small reader of its own (elements, covering pairs, the ``->`` table and
constants), and formulas are parsed from their text and evaluated on every
valuation with numpy.  A YES interpolant I for a -> b must satisfy
``a <= I <= b`` pointwise and mention only variables shared by a and b.
Each inequality is checked on every valuation of the variables its two
sides mention, which is the same as checking it on all of them.
"""
from __future__ import annotations

import itertools
import re
from pathlib import Path

import numpy as np


class TableLattice:
    """Join, meet, implication and order tables indexed by element position."""

    def __init__(self, elements, leq, imp, constants):
        self.elements = list(elements)
        self.m = len(self.elements)
        self.leq = np.array(leq, dtype=bool)
        m = self.m
        join = np.zeros((m, m), dtype=np.int64)
        meet = np.zeros((m, m), dtype=np.int64)
        for a, b in itertools.product(range(m), repeat=2):
            uppers = [c for c in range(m) if self.leq[a, c] and self.leq[b, c]]
            lowers = [c for c in range(m) if self.leq[c, a] and self.leq[c, b]]
            join[a, b] = next(c for c in uppers if all(self.leq[c, d] for d in uppers))
            meet[a, b] = next(c for c in lowers if all(self.leq[d, c] for d in lowers))
        self.tables = {"|": join, "&": meet, "->": np.array(imp, dtype=np.int64)}
        self.constants = dict(constants)


def read_lattice(path: Path) -> TableLattice:
    """Read the subset of the lattice file format the bundled files use."""
    elements: list[str] = []
    covers: list[tuple[str, str]] = []
    constants: dict[str, int] = {}
    imp_rows: list[list[str]] = []
    reading_imp = False
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        if line[0] == "elements":
            elements = line[1:]
        elif line[0] == "order":
            covers.append((line[1], line[3]))
        elif line[0] == "connective":
            if line[1] != "->":
                raise ValueError(f"{path}: only the -> connective is supported")
            reading_imp = True
        elif line[0] == "constant":
            constants[line[1]] = elements.index(line[3])
        elif reading_imp:
            imp_rows.append(line)
            reading_imp = len(imp_rows) < len(elements)
        else:
            raise ValueError(f"{path}: unsupported line {raw!r}")
    m = len(elements)
    leq = np.eye(m, dtype=bool)
    for lo, hi in covers:
        leq[elements.index(lo), elements.index(hi)] = True
    for k in range(m):  # transitive closure
        leq |= leq[:, [k]] & leq[[k], :]
    imp = [[elements.index(v) for v in row] for row in imp_rows]
    return TableLattice(elements, leq, imp, constants)


_TOKEN = re.compile(r"\s*(->|[()&|]|#[A-Za-z0-9_]+|[a-z][A-Za-z0-9_]*)")


def parse(text: str):
    """Propositional word as nested tuples: ('var', name), ('const', name) or
    (connective, left, right); -> is right associative and binds weakest."""
    toks = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"cannot read {text[pos:]!r}")
        toks.append(match.group(1))
        pos = match.end()
    i = 0

    def peek():
        return toks[i] if i < len(toks) else None

    def take():
        nonlocal i
        i += 1
        return toks[i - 1]

    def implication():
        left = chain("|", conjunction)
        if peek() == "->":
            take()
            return ("->", left, implication())
        return left

    def conjunction():
        return chain("&", unit)

    def chain(op, sub):
        node = sub()
        while peek() == op:
            take()
            node = (op, node, sub())
        return node

    def unit():
        tok = take()
        if tok == "(":
            node = implication()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return node
        if tok.startswith("#"):
            return ("const", tok[1:])
        return ("var", tok)

    node = implication()
    if peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return node


def variables(node) -> set[str]:
    if node[0] == "var":
        return {node[1]}
    if node[0] == "const":
        return set()
    return variables(node[1]) | variables(node[2])


def evaluate(node, lat: TableLattice, var_list: list[str]) -> np.ndarray:
    """Values of the word on every valuation of var_list, as an array with one
    axis per variable."""
    n = len(var_list)
    if node[0] == "var":
        k = var_list.index(node[1])
        return np.arange(lat.m).reshape((1,) * k + (lat.m,) + (1,) * (n - 1 - k))
    if node[0] == "const":
        return np.full((1,) * n, lat.constants[node[1]])
    left = evaluate(node[1], lat, var_list)
    right = evaluate(node[2], lat, var_list)
    return lat.tables[node[0]][left, right]


def below_everywhere(lo, hi, lat: TableLattice) -> bool:
    var_list = sorted(variables(lo) | variables(hi))
    shape = (lat.m,) * len(var_list)
    vlo = np.broadcast_to(evaluate(lo, lat, var_list), shape)
    vhi = np.broadcast_to(evaluate(hi, lat, var_list), shape)
    return bool(lat.leq[vlo, vhi].all())


def check_interpolant(lat: TableLattice, a_text: str, b_text: str, i_text: str) -> str | None:
    """None when I is an interpolant for a -> b, otherwise the reason it is not."""
    a, b, i = parse(a_text), parse(b_text), parse(i_text)
    extra = variables(i) - (variables(a) & variables(b))
    if extra:
        return f"interpolant mentions non-shared variables {sorted(extra)}"
    if not below_everywhere(a, i, lat):
        return "a <= I fails on some valuation"
    if not below_everywhere(i, b, lat):
        return "I <= b fails on some valuation"
    return None


def check_valid_implication(lat: TableLattice, a_text: str, b_text: str) -> str | None:
    if below_everywhere(parse(a_text), parse(b_text), lat):
        return None
    return "a <= b fails on some valuation"


def check_column(lat: TableLattice, word: str, var_list: list[str], values) -> str | None:
    """A closure column's witness word must evaluate to the column."""
    shape = (lat.m,) * len(var_list)
    got = np.broadcast_to(evaluate(parse(word), lat, var_list), shape).reshape(-1)
    if not np.array_equal(got, np.asarray(values, dtype=np.int64)):
        return f"witness {word!r} does not evaluate to its column"
    return None
