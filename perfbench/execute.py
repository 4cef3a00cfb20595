"""Send one benchmark query to latlog and reduce the answer to an outcome.

An outcome is ``(verdict, witness)``: the verdict word and the text that
certifies it (interpolant, witness pair, countervaluation, closure digest).
``decided`` says whether the verdict is final: YES, NO, VALID, NOT_VALID, a
complete closure or an expected named error, as opposed to UNKNOWN or a run
stopped by a budget.

Library functions are looked up on the ``latlog`` package at call time, so
the tracer's wrappers see these calls too.
"""
from __future__ import annotations

import dataclasses
import hashlib

import latlog
from latlog.errors import (
    BudgetExceeded,
    LatlogError,
    NotValidError,
    PropInterpolationFailed,
    UnknownValidity,
)

# EXCEPTION marks an unexpected exception, which the caller counts as failed
UNDECIDED = ("UNKNOWN", "INCOMPLETE", "EXCEPTION")


def load_lattices(names) -> dict:
    return {name: latlog.bundled_lattice(name) for name in names}


def _valuation_text(valuation: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(valuation.items()))


def run_query(q: dict, lattices: dict):
    """Answer one query; returns (outcome, raw result) where the raw result
    feeds the independent checker after the timed region."""
    lat = lattices[q["lattice"]]
    kind = q["kind"]
    if kind == "interpolate":
        a, b = latlog.parse_formula(q["a"]), latlog.parse_formula(q["b"])
        try:
            verdict = latlog.find_prop_interpolant(a, b, lat)
        except NotValidError as exc:
            return ("NOT_VALID", _valuation_text(exc.details["countervaluation"])), None
        return (verdict.status, verdict.interpolant_word), verdict
    if kind == "valid":
        report = latlog.is_valid_prop(latlog.parse_formula(q["formula"]), lat)
        if report.valid:
            return ("VALID", None), report
        return ("NOT_VALID", _valuation_text(report.countervaluation)), report
    if kind == "fo":
        budgets = latlog.FoBudgets(max_n=q["max_n"]) if "max_n" in q else None
        try:
            result = latlog.fo_interpolate(latlog.parse_formula(q["formula"]), lat, budgets)
        except UnknownValidity:
            return ("UNKNOWN", None), None
        except PropInterpolationFailed as exc:
            return (exc.verdict.status, None), exc.verdict
        return ("YES", latlog.render(result.interpolant)), result
    if kind == "decide":
        budget = None
        if "max_pairs" in q:
            default = latlog.DecideBudget()
            budget = latlog.DecideBudget(
                max_pairs=q["max_pairs"],
                closure=dataclasses.replace(default.closure,
                                            max_apps_per_level=q["max_apps_per_level"]))
        report = latlog.decide_interpolation(lat, k=q.get("k"), budget=budget)
        if report.witness_pair is not None:
            witness = " ; ".join(latlog.render(w) for w in report.witness_pair)
        elif report.sample_interpolant is not None:
            witness = latlog.render(report.sample_interpolant)
        else:
            witness = None
        return (report.status, witness), report
    if kind == "spectrum":
        report = latlog.spectrum(lat, subsets=q.get("subsets"))
        entries = sorted(("{" + ",".join(sorted(s)) + "}", v) for s, v in report.entries.items())
        status = "UNKNOWN" if any(v == "UNKNOWN" for _, v in entries) else "COMPLETE"
        return (status, " ".join(f"{s}:{v}" for s, v in entries)), report
    if kind == "closure":
        result = latlog.representable_closure(lat, tuple(q["vars"]))
        words = "\n".join(c.word for c in result.columns)
        digest = hashlib.sha256(words.encode()).hexdigest()[:16]
        status = "COMPLETE" if result.complete else "INCOMPLETE"
        return (status, f"{len(result.columns)} columns {result.cumulative} sha256:{digest}"), result
    raise ValueError(f"unknown query kind {kind!r}")


def answer(q: dict, lattices: dict):
    """run_query with named errors turned into outcomes; anything else raises."""
    try:
        return run_query(q, lattices)
    except BudgetExceeded:
        return ("UNKNOWN", None), None
    except LatlogError as exc:
        return (f"ERROR:{type(exc).__name__}", None), None


def is_decided(outcome) -> bool:
    return outcome[0] not in UNDECIDED
