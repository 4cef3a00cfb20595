"""Command-line front end.

Every command reads a lattice (a file path or a bundled name), runs one
operation and writes a report either as text or as JSON with the same fields
in the same order.  Exit codes: 0 for YES/valid/success (and ``--help``), 1
for NO/invalid, 2 for UNKNOWN (budget), 3 for input errors (usage errors
such as an unknown flag or a missing option included), 4 for internal errors
(any exception that is not a LatlogError, reported as INTERNAL_ERROR).  Budgets
are flags, accepted only by the commands that read them.  Handlers read the
parsed arguments directly, and each budget flag takes its default from the
library code that owns the budget.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Optional

from .algebra import (
    Lattice,
    derive_residuum,
    format_lattice_source,
    implication_mode_disagreements,
    load_lattice,
    parse_frame_source,
    upset_lattice,
)
from .bundled import BUNDLED, bundled_source
from .errors import (
    BudgetExceeded,
    LatlogError,
    NotValidError,
    PropInterpolationFailed,
    UnknownValidity,
)
from .folift import (
    FoBudgets,
    check_valid_expansion,
    expand_n,
    find_herbrand_expansion,
    fo_interpolate,
    skolemize,
)
from .interp import (
    decide_interpolation,
    find_prop_interpolant,
    spectrum,
)
from .propcore import (
    DEFAULT_VAR_CAP,
    ClosureBudget,
    constant_values,
    eval_prop,
    is_valid_prop,
    representable_closure,
)
from .syntax import parse_formula, render

EXIT_YES, EXIT_NO, EXIT_UNKNOWN, EXIT_INPUT, EXIT_INTERNAL = 0, 1, 2, 3, 4
EXIT_CODES = {"YES": EXIT_YES, "NO": EXIT_NO, "UNKNOWN": EXIT_UNKNOWN}


def _load_lattice_arg(spec: str) -> Lattice:
    path = Path(spec)
    if path.exists():
        return load_lattice(path.read_text())
    if spec in BUNDLED:
        return load_lattice(bundled_source(spec))
    raise LatlogError(
        f"no lattice file {spec!r} and no bundled lattice of that name "
        f"(bundled: {', '.join(BUNDLED)})"
    )


def _render_value(value, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_value(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return lines
    if isinstance(value, list):
        lines = []
        for v in value:
            if isinstance(v, dict):
                sub = _render_value(v, indent + 1)
                if sub:
                    lines.append(f"{pad}- {sub[0].lstrip()}")
                    lines.extend(sub[1:])
            elif isinstance(v, list):
                lines.extend(_render_value(v, indent))
            else:
                lines.append(f"{pad}- {v}")
        return lines
    return [f"{pad}{value}"]


def emit(report: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2)
    else:
        text = "\n".join(_render_value(report, 0))
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# command handlers; each returns (exit code, report)


def cmd_validate(args: argparse.Namespace) -> tuple[int, dict]:
    try:
        lat = _load_lattice_arg(args.lattice)
    except LatlogError as exc:
        if exc.code in ("PARSE_ERROR", "UNKNOWN_SYMBOL", "ERROR"):
            raise
        return EXIT_NO, {
            "command": "validate", "status": "invalid",
            "code": exc.code, "message": exc.message,
            "details": {k: _plain(v) for k, v in exc.details.items()},
        }
    return EXIT_YES, {
        "command": "validate", "status": "valid",
        "elements": list(lat.elements),
        "top": lat.elements[lat.top],
        "connectives": [f"{c.name}/{c.arity} {''.join(c.polarity) or '()'}"
                        for c in lat.signature.connectives],
        "constants": {k: lat.elements[v] for k, v in lat.constants.items()},
    }


def cmd_eval(args: argparse.Namespace) -> tuple[int, dict]:
    assignment = _assignment(args.assign)
    lat = _load_lattice_arg(args.lattice)
    phi = parse_formula(args.formula, lat.signature)
    value = eval_prop(phi, lat, assignment)
    return EXIT_YES, {
        "command": "eval", "formula": render(phi),
        "assignment": dict(sorted(assignment.items())),
        "value": value,
    }


def cmd_valid(args: argparse.Namespace) -> tuple[int, dict]:
    lat = _load_lattice_arg(args.lattice)
    phi = parse_formula(args.formula, lat.signature)
    report = is_valid_prop(phi, lat, args.var_cap)
    out = {
        "command": "valid", "formula": render(phi),
        "status": "valid" if report.valid else "invalid",
        "checked": report.checked, "method": report.method,
    }
    if report.countervaluation:
        out["countervaluation"] = report.countervaluation
    return (EXIT_YES if report.valid else EXIT_NO), out


def cmd_closure(args: argparse.Namespace) -> tuple[int, dict]:
    lat = _load_lattice_arg(args.lattice)
    variables = _names(args.vars)
    # "--connectives ''" keeps them all, "--connectives ','" keeps none
    connectives = _names(args.connectives) if args.connectives else None
    clo = representable_closure(lat, variables,
                                budget=ClosureBudget(max_levels=args.level_cap),
                                connectives=connectives)
    rows = [
        {"values": " ".join(c.value_names(lat)), "witness": c.word, "level": c.level}
        for c in clo.columns
    ]
    out = {
        "command": "closure", "variables": variables,
        "connectives": list(clo.connectives),
        "complete": clo.complete,
        "columns": len(clo.columns),
        "cumulative": clo.cumulative,
        "added_per_level": clo.added,
        "table": rows,
    }
    if clo.budget_note:
        out["budget_note"] = clo.budget_note
    return (EXIT_YES if clo.complete else EXIT_UNKNOWN), out


def cmd_constants(args: argparse.Namespace) -> tuple[int, dict]:
    lat = _load_lattice_arg(args.lattice)
    values = constant_values(lat)
    return EXIT_YES, {
        "command": "constants",
        "values": {elt: render(wit) for elt, wit in values.items()},
        "count": len(values),
        "all_values": set(values) == set(lat.elements),
    }


def cmd_interpolate(args: argparse.Namespace) -> tuple[int, dict]:
    lat = _load_lattice_arg(args.lattice)
    a = parse_formula(args.antecedent, lat.signature)
    b = parse_formula(args.succedent, lat.signature)
    verdict = find_prop_interpolant(a, b, lat, var_cap=args.var_cap)
    out = {
        "command": "interpolate",
        "antecedent": render(a), "succedent": render(b),
        "status": verdict.status,
        "shared": list(verdict.shared),
        "lower_envelope": " ".join(verdict.lower.value_names(lat)),
        "upper_envelope": " ".join(verdict.upper.value_names(lat)),
    }
    if verdict.status == "YES":
        out["interpolant"] = verdict.interpolant_word
    if verdict.status == "NO":
        out["closure_complete"] = verdict.closure_complete
        out["closure"] = [
            {"values": " ".join(c.value_names(lat)), "witness": c.word}
            for c in verdict.closure_columns
        ]
    if verdict.budget_note:
        out["budget_note"] = verdict.budget_note
    return EXIT_CODES[verdict.status], out


def cmd_decide(args: argparse.Namespace) -> tuple[int, dict]:
    lat = _load_lattice_arg(args.lattice)
    report = decide_interpolation(lat, k=args.k)
    out = {
        "command": "decide", "status": report.status, "path": report.path,
        "constant_values": list(report.constant_values),
        "k": report.k, "complete": report.complete,
        "pairs_checked": report.pairs_checked,
    }
    if report.bucket is not None:
        out["bucket"] = dict(zip(("left", "shared", "right"), report.bucket))
    if report.witness_pair:
        out["witness_antecedent"] = render(report.witness_pair[0])
        out["witness_succedent"] = render(report.witness_pair[1])
    cert = report.certificate
    if cert is not None:
        out["certificate"] = {
            "shared": list(cert.shared),
            "upper_envelope": " ".join(cert.upper.value_names(lat)),
            "lower_envelope": " ".join(cert.lower.value_names(lat)),
            "points": [dict(p) for p in cert.points],
            "relation": [f"({a}, {b})" for a, b in cert.relation],
        }
    if report.sample_interpolant is not None:
        out["sample_interpolant"] = render(report.sample_interpolant)
    if report.notes:
        out["notes"] = report.notes
    return EXIT_CODES[report.status], out


def cmd_spectrum(args: argparse.Namespace) -> tuple[int, dict]:
    lat = _load_lattice_arg(args.lattice)
    report = spectrum(lat, k=args.k)
    entries = []
    for subset, status in report.entries.items():
        entries.append({
            "subset": "{" + ", ".join(sorted(subset)) + "}",
            "status": status,
            "path": report.reports[subset].path,
        })
    entries.sort(key=lambda e: (e["subset"].count(",") if e["subset"] != "{}" else -1,
                                e["subset"]))
    any_unknown = any(e["status"] == "UNKNOWN" for e in entries)
    out = {
        "command": "spectrum", "elements": list(lat.elements),
        "k": args.k if args.k is not None else lat.m,
        "entries": entries,
    }
    return (EXIT_UNKNOWN if any_unknown else EXIT_YES), out


def cmd_skolemize(args: argparse.Namespace) -> tuple[int, dict]:
    lat = _load_lattice_arg(args.lattice)
    phi = parse_formula(args.formula, lat.signature)
    result, record = skolemize(phi, lat)
    return EXIT_YES, {
        "command": "skolemize",
        "input": render(phi),
        "output": render(result),
        "family_size": record.family_size,
        "replacements": [
            {"path": list(e.path), "quantifier": e.quantifier, "variable": e.variable,
             "functions": list(e.functions), "arguments": list(e.arguments)}
            for e in record.entries
        ],
    }


def cmd_expand(args: argparse.Namespace) -> tuple[int, dict]:
    lat = _load_lattice_arg(args.lattice)
    phi = parse_formula(args.formula, lat.signature)
    expansion = expand_n(phi, args.n, signature=lat.signature)
    check = check_valid_expansion(expansion, lat, args.var_cap)
    return (EXIT_YES if check.valid else EXIT_NO), {
        "command": "expand", "n": args.n,
        "input": render(phi),
        "expansion": render(expansion),
        "valid": check.valid,
        "atoms": check.atom_names,
        **({"countermodel": check.countermodel} if check.countermodel else {}),
    }


def cmd_herbrand(args: argparse.Namespace) -> tuple[int, dict]:
    lat = _load_lattice_arg(args.lattice)
    phi = parse_formula(args.formula, lat.signature)
    search = find_herbrand_expansion(phi, lat, max_n=args.max_n, var_cap=args.var_cap)
    out = {
        "command": "herbrand", "input": render(phi),
        "status": search.status,
        "terms": [str(t) for t in search.terms],
        "checks": [{"n": n, "valid": ok} for n, ok in search.checks],
    }
    if search.added_constant:
        out["added_constant"] = search.added_constant
    if search.exhausted_at is not None:
        out["terms_exhausted_at"] = search.exhausted_at
    if search.status == "FOUND":
        out["n"] = search.n
        out["expansion"] = render(search.expansion)
        return EXIT_YES, out
    out["reason"] = search.reason
    return EXIT_UNKNOWN, out


def cmd_fo_interpolate(args: argparse.Namespace) -> tuple[int, dict]:
    lat = _load_lattice_arg(args.lattice)
    phi = parse_formula(args.formula, lat.signature)
    budgets = FoBudgets(max_n=args.max_n, var_cap=args.var_cap,
                        smoke_domain_cap=args.domain_cap)
    try:
        result = fo_interpolate(phi, lat, budgets)
    except UnknownValidity as exc:
        return EXIT_UNKNOWN, {
            "command": "fo-interpolate", "input": render(phi),
            "status": "UNKNOWN", "reason": exc.message,
            **_trace_report(exc.trace),
        }
    except PropInterpolationFailed as exc:
        status = exc.verdict.status if exc.verdict else "NO"
        return EXIT_CODES[status], {
            "command": "fo-interpolate", "input": render(phi),
            "status": status, "reason": exc.message,
            **_trace_report(exc.trace),
        }
    trace = result.trace
    out = {
        "command": "fo-interpolate", "input": render(phi),
        "status": "YES",
        "interpolant": render(result.interpolant),
        **_trace_report(trace),
    }
    return EXIT_YES, out


def _trace_report(trace) -> dict:
    if trace is None:
        return {}
    out: dict = {"trace": {}}
    t = out["trace"]
    if trace.skolemized is not None:
        t["skolemized"] = render(trace.skolemized)
        t["skolem_functions"] = [
            {"quantifier": e.quantifier, "functions": list(e.functions)}
            for e in trace.skolem_record.entries
        ]
    if trace.herbrand is not None and trace.herbrand.n is not None:
        t["expansion_n"] = trace.herbrand.n
        t["expansion"] = render(trace.herbrand.expansion)
    if trace.abstraction:
        t["abstraction"] = dict(trace.abstraction)
    if trace.verdict is not None:
        t["prop_status"] = trace.verdict.status
        if trace.verdict.interpolant_word:
            t["prop_interpolant"] = trace.verdict.interpolant_word
    if trace.ground_interpolant is not None:
        t["ground_interpolant"] = render(trace.ground_interpolant)
    if trace.generalization:
        t["generalization"] = [
            {"term": str(s.term), "variable": s.variable, "quantifier": s.quantifier}
            for s in trace.generalization
        ]
    if trace.smoke:
        t["smoke_test"] = trace.smoke
    if trace.notes:
        t["notes"] = list(trace.notes)
    return out


def cmd_kripke(args: argparse.Namespace) -> tuple[int, dict]:
    frame = parse_frame_source(Path(args.frame).read_text())
    lat = upset_lattice(frame, args.mode)
    disagreements = implication_mode_disagreements(frame)
    out = {
        "command": "kripke", "worlds": list(frame.worlds),
        "mode": args.mode,
        "elements": list(lat.elements),
        "lattice": format_lattice_source(lat).splitlines(),
        "mode_disagreements": [
            {"u": u, "v": v, "heyting": h, "godel": g}
            for u, v, h, g in disagreements
        ],
    }
    if args.out_lattice:
        Path(args.out_lattice).write_text(format_lattice_source(lat))
        out["written"] = args.out_lattice
    return EXIT_YES, out


def cmd_residuum(args: argparse.Namespace) -> tuple[int, dict]:
    lat = _load_lattice_arg(args.lattice)
    report = derive_residuum(lat)
    if report.residuated:
        return EXIT_YES, {
            "command": "residuum", "status": "residuated",
            "table": [" ".join(row) for row in report.table],
        }
    out = {
        "command": "residuum", "status": "NOT_RESIDUATED",
        "failing_pair": list(report.failing_pair),
    }
    if report.cases:
        out["cases"] = [
            {"candidate": c.candidate, "law": c.law, "detail": c.detail}
            for c in report.cases
        ]
    if report.law_violation:
        out["law_violation"] = {k: _plain(v) for k, v in report.law_violation.items()}
    return EXIT_NO, out


def _names(text: str) -> list[str]:
    """The non-empty entries of a comma-separated list, stripped."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _assignment(text: str) -> dict[str, str]:
    assignment: dict[str, str] = {}
    for part in text.split(",") if text else ():
        if "=" not in part:
            raise LatlogError(f"bad assignment entry {part!r}")
        name, value = (side.strip() for side in part.split("=", 1))
        if name in assignment:
            raise LatlogError(f"variable {name!r} assigned twice", variable=name)
        assignment[name] = value
    return assignment


def _plain(v):
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


HANDLERS = {
    "validate": cmd_validate,
    "eval": cmd_eval,
    "valid": cmd_valid,
    "closure": cmd_closure,
    "constants": cmd_constants,
    "interpolate": cmd_interpolate,
    "decide": cmd_decide,
    "spectrum": cmd_spectrum,
    "skolemize": cmd_skolemize,
    "expand": cmd_expand,
    "herbrand": cmd_herbrand,
    "fo-interpolate": cmd_fo_interpolate,
    "kripke": cmd_kripke,
    "residuum": cmd_residuum,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors (an unknown flag, a missing option) are input errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latlog",
        description="Workbench for finitely-valued lattice-based logics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, lattice: bool = True, var_cap: bool = False,
            max_n: bool = False):
        p = sub.add_parser(name, help=help_text)
        if lattice:
            p.add_argument("--lattice", required=True,
                           help="lattice file path or bundled name")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the report to this file")
        if var_cap:
            p.add_argument("--var-cap", type=int, default=DEFAULT_VAR_CAP,
                           help="validity sweep variable cap (default %(default)s)")
        if max_n:
            p.add_argument("--max-n", type=int, default=FoBudgets.max_n,
                           help="expansion search depth (default %(default)s)")
        return p

    add("validate", "check every lattice axiom")

    p = add("eval", "evaluate a propositional word")
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", required=True,
                   help="comma-separated assignment, e.g. x=1,y=a")

    p = add("valid", "exhaustive validity check", var_cap=True)
    p.add_argument("--formula", required=True)

    p = add("closure", "representable-function closure")
    p.add_argument("--vars", default="", help="comma-separated variable names")
    p.add_argument("--level-cap", type=int, default=None,
                   help="closure levels to grow (default: to the fixpoint)")
    p.add_argument("--connectives", default=None,
                   help="restrict to these connectives, comma-separated")

    add("constants", "values of closed words")

    p = add("interpolate", "propositional interpolant search", var_cap=True)
    p.add_argument("antecedent")
    p.add_argument("succedent")

    p = add("decide", "decide the interpolation property")
    p.add_argument("--k", type=int, default=None,
                   help="at most k variables per group (default |L|)")

    p = add("spectrum", "interpolation verdict for every constant extension")
    p.add_argument("--k", type=int, default=None,
                   help="bounded mode per subset (default |L|)")

    p = add("skolemize", "replace strong quantifiers")
    p.add_argument("--formula", required=True)

    p = add("expand", "n-th expansion of the weak quantifiers", var_cap=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("herbrand", "search for a valid expansion", var_cap=True, max_n=True)
    p.add_argument("--formula", required=True)

    p = add("fo-interpolate", "first-order interpolation pipeline", var_cap=True, max_n=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--domain-cap", type=int, default=FoBudgets.smoke_domain_cap,
                   help="smoke-test domain size (default %(default)s)")

    p = add("kripke", "build the up-set lattice of a frame", lattice=False)
    p.add_argument("--frame", required=True, help="frame file path")
    p.add_argument("--mode", choices=("godel", "heyting"), default="godel")
    p.add_argument("--out-lattice", help="also write the lattice file here")

    add("residuum", "derive the monoid operation or refute residuation")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    def fail(status: str, code: str, message: str, details: dict, exit_code: int) -> int:
        emit({"status": status, "code": code, "message": message,
              "details": _plain(details)}, args)
        return exit_code

    try:
        budgets = (getattr(args, name, None) for name in ("var_cap", "max_n", "domain_cap"))
        if any(value is not None and value <= 0 for value in budgets):
            raise LatlogError("budgets must be positive")
        if getattr(args, "level_cap", None) is not None and args.level_cap < 0:
            raise LatlogError("level cap must not be negative")  # a cap of 0 keeps level 0
        code, report = HANDLERS[args.command](args)
        if report is not None:
            emit(report, args)
        return code
    except NotValidError as exc:
        return fail("NOT_VALID", exc.code, exc.message, exc.details, EXIT_INPUT)
    except BudgetExceeded as exc:
        return fail("UNKNOWN", exc.code, exc.message, exc.details, EXIT_UNKNOWN)
    except LatlogError as exc:
        return fail("error", exc.code, exc.message, exc.details, EXIT_INPUT)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug: never let it read as a verdict
        logging.getLogger("latlog").debug("internal error", exc_info=True)
        return fail("error", "INTERNAL_ERROR", f"{type(exc).__name__}: {exc}", {},
                    EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
