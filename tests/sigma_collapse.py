"""Variable-collapse substitutions and the merge of per-substitution
interpolants.

A substitution sigma collapses a list of variables onto representatives of
a partition with at most n classes.  Given an interpolant for each sigma,
the merged word is the join over all sigma of (interpolant_sigma and the
collapse word of sigma).  The property suites and the interpolation tests
use these to check interpolants built one substitution at a time.
"""
from typing import Mapping, Sequence

from latlog.errors import LatlogError
from latlog.syntax import App, Formula, PropVar, conjoin, disjoin, implies


def sigma_substitutions(variables: Sequence[str], n: int) -> list[dict[str, str]]:
    """All substitutions collapsing ``variables`` onto representatives of a
    partition with at most n classes (the representative is the first member).
    Deterministic order: restricted-growth strings, lexicographic."""
    variables = list(variables)
    if not variables:
        return [{}]
    if n < 1:
        raise LatlogError("at least one partition class is needed", n=n)
    out: list[dict[str, str]] = []

    def rgs(assign: list[int], top: int) -> None:
        if len(assign) == len(variables):
            reps: dict[int, str] = {}
            sigma = {}
            for v, cls in zip(variables, assign):
                reps.setdefault(cls, v)
                sigma[v] = reps[cls]
            out.append(sigma)
            return
        for cls in range(min(top + 1, n - 1) + 1):
            rgs(assign + [cls], max(top, cls))

    rgs([], -1)
    return out


def sigma_key(sigma: Mapping[str, str], variables: Sequence[str]) -> tuple[str, ...]:
    return tuple(sigma[v] for v in variables)


def collapse_word(sigma: Mapping[str, str], variables: Sequence[str]) -> Formula:
    """The word forcing a valuation to respect sigma: the conjunction over the
    variables of (x sigma -> x) and (x -> x sigma)."""
    parts = []
    for v in variables:
        img = PropVar(sigma[v])
        parts.append(App("&", (implies(img, PropVar(v)), implies(PropVar(v), img))))
    return conjoin(parts)


def merge_interpolants_sigma(interpolants: Mapping[tuple[str, ...], Formula],
                             variables: Sequence[str], n: int) -> Formula:
    """Combine per-substitution interpolants into one: the join over all
    sigma of (interpolant_sigma and collapse word of sigma)."""
    variables = list(variables)
    disjuncts = []
    for sigma in sigma_substitutions(variables, n):
        key = sigma_key(sigma, variables)
        if key not in interpolants:
            raise LatlogError(f"missing interpolant for substitution {key}", key=key)
        disjuncts.append(App("&", (interpolants[key], collapse_word(sigma, variables))))
    return disjoin(disjuncts)
