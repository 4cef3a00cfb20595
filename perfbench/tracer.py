"""Spans around latlog's public functions, recorded from outside the library.

``Tracer.install`` replaces each traced function in every loaded ``latlog``
module that holds it (so ``interp.envelopes`` and ``folift.find_prop_interpolant``
are traced too) and the traced ``ClosureState`` methods on the class.  A span
is (name, start, end, parent span, query id); spans are kept in memory in
flat arrays and reported when the run ends.  ``layer_report`` turns them
into per-function calls, busy time and self time, where self time is busy
time minus the time covered by direct child spans.
"""
from __future__ import annotations

import sys
import time
from array import array

# (module, attribute) of every traced function, grouped by layer.
TRACED = {
    "algebra": [("latlog.algebra", "validate_lattice")],
    "syntax": [("latlog.syntax", "parse_formula"), ("latlog.syntax", "render")],
    "propcore": [
        ("latlog.propcore", "column_of"),
        ("latlog.propcore", "is_valid_prop"),
        ("latlog.propcore", "is_valid_implication"),
        ("latlog.propcore", "envelopes"),
        ("latlog.propcore", "representable_closure"),
        ("latlog.propcore", "ClosureState.grow"),
        ("latlog.propcore", "ClosureState.stream_scan"),
        ("latlog.propcore", "ClosureState.scan_existing"),
    ],
    "interp": [
        ("latlog.interp", "find_prop_interpolant"),
        ("latlog.interp", "decide_interpolation"),
        ("latlog.interp", "spectrum"),
    ],
    "folift": [
        ("latlog.folift", "skolemize"),
        ("latlog.folift", "find_herbrand_expansion"),
        ("latlog.folift", "check_valid_expansion"),
        ("latlog.folift", "generalize_interpolant"),
        ("latlog.folift", "fo_eval"),
        ("latlog.folift", "fo_interpolate"),
    ],
}

FUNCTIONS = [attr for entries in TRACED.values() for _, attr in entries]
VALIDITY = ("is_valid_prop", "is_valid_implication")


class Counters:
    """Counts read from the objects the traced functions return."""

    def __init__(self):
        self.closure_columns = 0
        self.closures_built = 0
        self.closures_complete = 0
        self.stream_scan_calls = 0
        self.stream_scan_hits = 0
        self.validity_cells = 0
        self.decide_pairs = 0
        self.herbrand_checks = 0
        self.smoke_structures = 0

    def metrics(self) -> dict:
        built, scans = self.closures_built, self.stream_scan_calls
        return {
            "propcore.closure.columns": (self.closure_columns, "count"),
            "propcore.closure.complete_frac":
                (self.closures_complete / built if built else 0.0, "ratio"),
            "propcore.stream_scan.hit_frac":
                (self.stream_scan_hits / scans if scans else 0.0, "ratio"),
            "propcore.validity.cells": (self.validity_cells, "count"),
            "interp.decide.pairs_checked": (self.decide_pairs, "count"),
            "folift.herbrand.checks": (self.herbrand_checks, "count"),
            "folift.smoke.structures": (self.smoke_structures, "count"),
        }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("q")
        self.query: array = array("q")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack: list[int] = [-1]
        self.query_id = -1
        self.counters = Counters()
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_return=None):
        """Wrap fn so that every call records one span."""
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, query = self.name_of, self.parent, self.query
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            query.append(tracer.query_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _on_return(self, attr: str):
        c = self.counters
        if attr == "representable_closure":
            def hook(result):
                c.closures_built += 1
                c.closures_complete += bool(result.complete)
                c.closure_columns += len(result.columns)
        elif attr == "ClosureState.stream_scan":
            def hook(result):
                c.stream_scan_calls += 1
                c.stream_scan_hits += result is not None
        elif attr in VALIDITY:
            def hook(result):
                # is_valid_prop may fall back to is_valid_implication: count
                # only the outermost validity call
                if not any(self.names[self.name_of[s]] in VALIDITY for s in self.stack[1:]):
                    c.validity_cells += result.checked
        elif attr == "decide_interpolation":
            def hook(result):
                c.decide_pairs += result.pairs_checked
        elif attr == "find_herbrand_expansion":
            def hook(result):
                c.herbrand_checks += len(result.checks)
        elif attr == "fo_interpolate":
            def hook(result):
                c.smoke_structures += result.trace.smoke.get("structures", 0)
        else:
            hook = None
        return hook

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "latlog" or name.startswith("latlog."))]
        for entries in TRACED.values():
            for module_name, attr in entries:
                home = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, self.span(attr, original, self._on_return(attr)))
                    continue
                original = getattr(home, attr)
                wrapper = self.span(attr, original, self._on_return(attr))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        """(name, start, end, parent, query) per span, in call order."""
        return [(self.names[n], s, e, p, q) for n, s, e, p, q in
                zip(self.name_of, self.start, self.end, self.parent, self.query)]


def layer_report(spans) -> dict[str, dict[str, float]]:
    """Per-function calls, busy_s and self_s from spans listed in call order.

    busy_s adds the outermost spans of each name only, so a function that
    reaches itself through another traced function is not counted twice."""
    child_time = [0.0] * len(spans)
    for name, s, e, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += e - s
    report: dict[str, dict[str, float]] = {}
    active: dict[str, int] = {}
    stack: list[int] = []
    for i, (name, s, e, parent, _) in enumerate(spans):
        while stack and stack[-1] != parent:
            active[spans[stack.pop()][0]] -= 1
        row = report.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (e - s) - child_time[i]
        if not active.get(name):
            row["busy_s"] += e - s
        active[name] = active.get(name, 0) + 1
        stack.append(i)
    return report
