"""Workload inputs for the latlog benchmark.

Everything here is plain data built with the standard library: this module
never imports latlog, so no input is chosen by the code under test.  A query
is a dict with an ``id``, a ``kind`` and the lattice name and formula text the
library receives.
"""
from __future__ import annotations

import random

WORKLOADS = ("fo-pipeline", "decide-closure", "prop-batch")

# Bundled lattices with their element count and constant names, as declared
# in the lattice files.  Used only to shape the random words.
LATTICES = {
    "classical": (2, ()),
    "classical-0": (2, ("0",)),
    "classical-1": (2, ("1",)),
    "classical-01": (2, ("0", "1")),
    "godel3": (3, ("0",)),
    "lukasiewicz3": (3, ("0",)),
    "three-01": (3, ("0", "1")),
    "three-0a": (3, ("0", "a")),
    "mc": (5, ("0",)),
    "diamond": (4, ()),
}

README_SENTENCE = "exists x.(B(x) & forall y. C(y)) -> exists x.(A(x) | B(x))"

FO_QUERIES = [
    # the slow one: n=5 expansion, closure over 5 shared atoms, 15,750
    # smoke-test structures
    {"id": "fo-readme-mc", "kind": "fo", "lattice": "mc", "formula": README_SENTENCE},
    *({"id": f"fo-readme-{lat}", "kind": "fo", "lattice": lat, "formula": README_SENTENCE}
      for lat in ("godel3", "lukasiewicz3", "three-0a", "diamond", "classical")),
    {"id": "fo-universal-instance", "kind": "fo", "lattice": "classical",
     "formula": "(forall x. P(x)) -> P(c)"},
    {"id": "fo-weak-only", "kind": "fo", "lattice": "godel3",
     "formula": "(forall x. P(x)) & Q(c) -> Q(c) | R(d)"},
    {"id": "fo-herbrand-mc", "kind": "fo", "lattice": "mc",
     "formula": "P(c,d,d) -> exists x. P(c,x,d)"},
    # expected non-YES outcomes
    {"id": "fo-unknown-max-n", "kind": "fo", "lattice": "mc",
     "formula": "P(c) -> exists x. Q(x)", "max_n": 3},
    {"id": "fo-prop-no", "kind": "fo", "lattice": "three-01",
     "formula": "P(c) & (P(c) -> #0) -> Q(c) | (Q(c) -> #0)"},
]

DECIDE_QUERIES = [
    {"id": "decide-three-01", "kind": "decide", "lattice": "three-01"},
    {"id": "decide-lukasiewicz3", "kind": "decide", "lattice": "lukasiewicz3"},
    {"id": "decide-classical", "kind": "decide", "lattice": "classical"},
    {"id": "decide-three-0a", "kind": "decide", "lattice": "three-0a"},
    {"id": "decide-classical-01", "kind": "decide", "lattice": "classical-01"},
    # stops at a pair budget; the literature answer is YES.  The budget is
    # smaller than the library's default (200k pairs, 500k applications per
    # closure level) so that a pass takes seconds and a run holds several.
    {"id": "decide-classical-1", "kind": "decide", "lattice": "classical-1",
     "max_pairs": 20_000, "max_apps_per_level": 100_000},
    {"id": "decide-godel3-k1", "kind": "decide", "lattice": "godel3", "k": 1},
    # two NO subsets (each the work of decide-lukasiewicz3) and two quick YES
    # ones, not all eight: the eight-entry spectrum alone took 2-3.5 s
    {"id": "spectrum-lukasiewicz3", "kind": "spectrum", "lattice": "lukasiewicz3",
     "subsets": [[], ["1"], ["h"], ["0", "h", "1"]]},
    {"id": "closure-godel3-xy", "kind": "closure", "lattice": "godel3", "vars": ["x", "y"]},
    {"id": "closure-classical-1-xyz", "kind": "closure", "lattice": "classical-1",
     "vars": ["x", "y", "z"]},
]

# prop-batch draws from a fixed pool so that every query it can send has a
# recorded answer; the workload seed picks the sample and its order.
POOL_SEED = 20200213
POOL_SIZE = 4000
BATCH_SIZE = 3000
# largest valuation grid a validity query may span (m ** variables)
VALID_GRID_CAP = 1 << 17


def _word(rng: random.Random, variables: list[str], consts: tuple[str, ...],
          depth: int) -> str:
    """Random word over &, |, -> as fully parenthesised text."""
    if depth <= 0 or rng.random() < 0.25:
        if consts and rng.random() < 0.15:
            return "#" + rng.choice(consts)
        return rng.choice(variables)
    left = _word(rng, variables, consts, depth - 1)
    right = _word(rng, variables, consts, depth - 1)
    return f"{_wrap(left)} {rng.choice(('&', '|', '->'))} {_wrap(right)}"


def _wrap(text: str) -> str:
    return text if " " not in text else f"({text})"


def _covering_word(rng: random.Random, variables: list[str], consts: tuple[str, ...],
                   depth: int) -> str:
    """Random word that mentions every variable at least once."""
    parts = [_word(rng, variables, consts, depth) for _ in range(2)]
    missing = [v for v in variables if not any(v in p.replace("(", " ").replace(")", " ").split()
                                               for p in parts)]
    for v in missing:
        parts.append(v)
    rng.shuffle(parts)
    out = parts[0]
    for p in parts[1:]:
        out = f"{_wrap(out)} {rng.choice(('&', '|', '->'))} {_wrap(p)}"
    return out


def _interpolate_query(rng: random.Random, lat: str) -> dict:
    """a -> b whose shared word S is an interpolant whenever a -> b is valid.

    With a = S & P and b = S | Q the implication is valid in every lattice.
    With a = S | P and b = S & Q it is mostly not valid; when it is, S still
    lies between a and b.  Either way the closure search stops by the level
    of S, which keeps every query cheap."""
    _, consts = LATTICES[lat]
    shared = [f"y{i + 1}" for i in range(rng.choice((1, 2)))]
    left = [f"x{i + 1}" for i in range(rng.randint(1, 4))]
    right = [f"z{i + 1}" for i in range(rng.randint(1, 4))]
    s_word = _word(rng, shared, consts, 2)
    p_word = _covering_word(rng, left + shared[:1], consts, 2)
    q_word = _covering_word(rng, right + shared[-1:], consts, 2)
    if rng.random() < 0.7:
        a, b = f"{_wrap(s_word)} & {_wrap(p_word)}", f"{_wrap(s_word)} | {_wrap(q_word)}"
    else:
        a, b = f"{_wrap(s_word)} | {_wrap(p_word)}", f"{_wrap(s_word)} & {_wrap(q_word)}"
    return {"kind": "interpolate", "lattice": lat, "a": a, "b": b}


def _valid_query(rng: random.Random, lat: str) -> dict:
    m, consts = LATTICES[lat]
    top = 6
    while top < 10 and m ** (top + 1) <= VALID_GRID_CAP:
        top += 1
    variables = [f"p{i + 1}" for i in range(rng.randint(6, top))]
    shape = rng.random()
    w = _covering_word(rng, variables, consts, 3)
    if shape < 0.4:
        formula = w  # almost never valid
    elif shape < 0.7:
        v = _word(rng, variables, consts, 2)
        formula = f"{_wrap(w)} -> ({_wrap(w)} | {_wrap(v)})"  # valid
    else:
        v = _word(rng, variables, consts, 2)
        formula = f"({_wrap(v)} & {_wrap(w)}) -> {_wrap(v)}"  # valid
    return {"kind": "valid", "lattice": lat, "formula": formula}


def prop_pool() -> list[dict]:
    """The fixed pool of prop-batch queries, half interpolation, half validity."""
    rng = random.Random(POOL_SEED)
    names = sorted(LATTICES)
    pool = []
    for i in range(POOL_SIZE):
        lat = names[i % len(names)]
        q = _interpolate_query(rng, lat) if i % 2 == 0 else _valid_query(rng, lat)
        q["id"] = f"prop-{i:04d}"
        pool.append(q)
    return pool


def workload_queries(workload: str, seed: int) -> list[dict]:
    """The queries of one pass, in the seeded order they are sent."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "fo-pipeline":
        queries = list(FO_QUERIES)
    elif workload == "decide-closure":
        queries = list(DECIDE_QUERIES)
    elif workload == "prop-batch":
        queries = rng.sample(prop_pool(), BATCH_SIZE)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(queries)
    return queries


def workload_lattices(workload: str) -> list[str]:
    """Bundled lattices a workload loads during set-up."""
    if workload == "prop-batch":
        return sorted(LATTICES)
    queries = FO_QUERIES if workload == "fo-pipeline" else DECIDE_QUERIES
    return sorted({q["lattice"] for q in queries})
