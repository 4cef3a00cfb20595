import json
import shlex
from pathlib import Path

import pytest

from latlog import cli
from latlog.cli import main

from genutil import DEEP_SENTENCES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_bundled(capsys):
    code, out = run(capsys, "validate", "--lattice", "mc")
    assert code == 0
    assert "status: valid" in out


def test_validate_every_bundled_lattice(capsys):
    from latlog.bundled import BUNDLED

    for name in BUNDLED:
        code, _ = run(capsys, "validate", "--lattice", name)
        assert code == 0, name


def test_validate_broken_lattice(tmp_path, capsys):
    bad = tmp_path / "bad.lat"
    bad.write_text("elements 0 1\norder 0 < 1\nconnective -> -+\n1 1\n1 1\n")
    code, report = run_json(capsys, "validate", "--lattice", str(bad))
    assert code == 1
    assert report["code"] == "IMPLICATION_LAW_VIOLATION"
    assert report["details"]["witness"] == ["1", "0"]


def test_lattice_beyond_256_elements_is_an_input_error(tmp_path, capsys):
    names = [f"e{i}" for i in range(257)]
    chain = tmp_path / "chain257.lat"
    chain.write_text("elements " + " ".join(names) + "\n"
                     + "".join(f"order {a} < {b}\n" for a, b in zip(names, names[1:])))
    code, report = run_json(capsys, "validate", "--lattice", str(chain))
    assert code == 3
    assert report["code"] == "ERROR" and "at most 256" in report["message"]


def test_valid_command_exit_codes(capsys):
    code, _ = run(capsys, "valid", "--lattice", "classical", "--formula", "x -> x")
    assert code == 0
    code, out = run(capsys, "valid", "--lattice", "classical", "--formula", "x -> y")
    assert code == 1
    assert "countervaluation" in out


def test_eval_command(capsys):
    code, report = run_json(capsys, "eval", "--lattice", "godel3",
                            "--formula", "x -> y", "--assign", "x=1,y=h")
    assert code == 0
    assert report["value"] == "h"


def test_interpolate_command_no(capsys):
    code, report = run_json(capsys, "interpolate", "--lattice", "three-01",
                            "x & (x -> #0)", "y | (y -> #0)")
    assert code == 1
    assert report["status"] == "NO"
    assert report["lower_envelope"] == "a"
    assert report["upper_envelope"] == "a"
    assert [c["values"] for c in report["closure"]] == ["0", "1"]


def test_interpolate_command_yes(capsys):
    code, report = run_json(capsys, "interpolate", "--lattice", "classical-01",
                            "x & y", "y | z")
    assert code == 0
    assert report["interpolant"] == "y"


def test_closure_command_with_connective_restriction(capsys):
    # "--connectives=->" because a bare "->" looks like an option to argparse
    code, report = run_json(capsys, "closure", "--lattice", "lukasiewicz3",
                            "--vars", "x", "--connectives=->")
    assert code == 0
    assert report["cumulative"] == [2, 4, 6, 9, 11, 12]
    assert report["columns"] == 12


def test_constants_command(capsys):
    code, report = run_json(capsys, "constants", "--lattice", "three-0a")
    assert code == 0
    assert report["all_values"] is True
    assert report["values"]["1"] == "#0 -> #0"


def test_decide_command(capsys):
    code, report = run_json(capsys, "decide", "--lattice", "classical")
    assert code == 1
    assert report["path"] == "no_constant_values"
    code, report = run_json(capsys, "decide", "--lattice", "three-0a")
    assert code == 0


def test_decide_command_names_the_bucket(capsys, monkeypatch):
    code, report = run_json(capsys, "decide", "--lattice", "three-01")
    assert code == 1
    assert report["bucket"] == {"left": 1, "shared": 0, "right": 1}
    assert report["pairs_checked"] == 2
    assert report["witness_antecedent"] == "(x1 -> #0) & x1"
    code, report = run_json(capsys, "decide", "--lattice", "godel3")
    assert code == 2
    assert report["bucket"] == {"left": 1, "shared": 3, "right": 1}
    # closures too small for witness words: the value-level certificate
    import functools

    from latlog import cli
    from latlog.interp import DecideBudget, decide_interpolation
    from latlog.propcore import ClosureBudget

    small = DecideBudget(closure=ClosureBudget(max_columns=4))
    monkeypatch.setattr(cli, "decide_interpolation",
                        functools.partial(decide_interpolation, budget=small))
    code, report = run_json(capsys, "decide", "--lattice", "mc")
    assert code == 1 and "witness_antecedent" not in report
    cert = report["certificate"]
    assert cert["shared"] == ["y1"] and len(cert["points"]) == 2
    assert cert["lower_envelope"] == "0 u1 u2 0 0"


def test_spectrum_command(capsys):
    code, report = run_json(capsys, "spectrum", "--lattice", "classical", "--k", "1")
    entries = {e["subset"]: e["status"] for e in report["entries"]}
    assert entries["{}"] == "NO"
    assert entries["{0}"] == "YES"
    assert entries["{0, 1}"] == "YES"
    assert code == 2  # the {1} entry stays UNKNOWN in bounded mode


def test_spectrum_default_k_is_the_lattice_size(capsys):
    code, out = run(capsys, "spectrum", "--lattice", "classical")
    assert code == 0
    assert "k: 2" in out.splitlines()
    code, report = run_json(capsys, "spectrum", "--lattice", "classical")
    entries = {e["subset"]: e["status"] for e in report["entries"]}
    assert code == 0 and entries["{1}"] == "YES"


def test_skolemize_command(capsys):
    code, report = run_json(capsys, "skolemize", "--lattice", "mc", "--formula",
                            "(exists x. B(x)) -> exists y. forall z. C(y,z)")
    assert code == 0
    assert len(report["replacements"]) == 2
    assert report["family_size"] == 5


def test_expand_command(capsys):
    code, report = run_json(capsys, "expand", "--lattice", "mc",
                            "--formula", "P(c,d,d) -> exists x. P(c,x,d)", "--n", "2")
    assert code == 0
    assert report["expansion"] == "P(c, d, d) -> P(c, c, d) | P(c, d, d)"


def test_herbrand_command(capsys):
    code, report = run_json(capsys, "herbrand", "--lattice", "mc",
                            "--formula", "P(c,d,d) -> exists x. P(c,x,d)")
    assert code == 0
    assert report["n"] == 2
    assert report["expansion"] == "P(c, d, d) -> P(c, c, d) | P(c, d, d)"
    assert report["checks"] == [{"n": 1, "valid": False}, {"n": 2, "valid": True}]


def test_herbrand_unknown_exit(capsys):
    code, report = run_json(capsys, "herbrand", "--lattice", "mc",
                            "--formula", "P(c) -> exists x. Q(x)", "--max-n", "3")
    assert code == 2
    assert report["status"] == "UNKNOWN"


def test_kripke_command(tmp_path, capsys):
    frame = tmp_path / "fork.frame"
    frame.write_text("worlds a b g\norder a < b\norder a < g\n")
    out_lat = tmp_path / "fork.lat"
    code, report = run_json(capsys, "kripke", "--frame", str(frame),
                            "--out-lattice", str(out_lat))
    assert code == 0
    assert len(report["elements"]) == 5
    assert report["mode_disagreements"]
    # the emitted lattice file loads and validates
    code2, rep2 = run_json(capsys, "validate", "--lattice", str(out_lat))
    assert code2 == 0


def test_residuum_command_exit_codes(capsys):
    code, report = run_json(capsys, "residuum", "--lattice", "godel3")
    assert code == 0
    code, report = run_json(capsys, "residuum", "--lattice", "diamond")
    assert code == 1
    assert len(report["cases"]) == 4


def test_fo_interpolate_command(capsys):
    code, report = run_json(
        capsys, "fo-interpolate", "--lattice", "classical",
        "--formula", "(forall x. P(x)) -> P(c)")
    assert code == 0
    assert report["interpolant"] == "forall z1. P(z1)"
    assert report["trace"]["expansion_n"] == 1


def test_fo_interpolate_smoke_test_on_a_one_element_lattice(tmp_path, capsys):
    """Over a one-element lattice every domain up to 9 fits the structure
    budget; at domain size 9 the smoke test covers 81 ground atoms of R."""
    one = tmp_path / "one.lat"
    one.write_text("elements 0\nmeet\n0\njoin\n0\nconnective -> -+\n0\n")
    code, out = run(capsys, "fo-interpolate", "--lattice", str(one), "--formula",
                    "(forall x. forall y. R(x,y)) -> R(c,c)", "--domain-cap", "9")
    assert code == 0
    assert "interpolant: forall z1. R(z1, z1)" in out.splitlines()
    assert "    structures: 45" in out.splitlines()


@pytest.mark.parametrize("formula", ["x -> x", "P(c) & x -> P(c)"])
def test_fo_interpolate_rejects_propositional_variables(capsys, formula):
    """A propositional variable has no first-order meaning; an atom-free
    formula used to crash while the interpolant was turned back into atoms."""
    code, report = run_json(capsys, "fo-interpolate", "--lattice", "mc", "--formula", formula)
    assert code == 3
    assert report["code"] == "UNINTERPRETED_SYMBOL"
    assert report["message"] == "propositional variable 'x' has no first-order meaning"
    assert report["details"] == {"symbol": "x"}


@pytest.mark.parametrize("argv, message", [
    (["closure", "--lattice", "mc", "--vars", "x,y,x"], "variable 'x' listed twice"),
    (["eval", "--lattice", "mc", "--formula", "x", "--assign", "x=1,x=h"],
     "variable 'x' assigned twice"),
])
def test_repeated_names_are_input_errors(capsys, argv, message):
    code, report = run_json(capsys, *argv)
    assert code == 3
    assert report["message"] == message and report["details"] == {"variable": "x"}


@pytest.mark.parametrize("name", ["#0", "x y", "1", "_", "forall", "X"])
def test_closure_rejects_names_that_are_not_variables(capsys, name):
    """A name the parser does not read as a propositional variable would give
    witness words that do not parse back to it (``#0`` reads as a constant)."""
    code, report = run_json(capsys, "closure", "--lattice", "classical-1", "--vars", name)
    assert code == 3
    assert report["message"] == f"{name!r} is not a propositional variable"
    assert report["details"] == {"variable": name}


def test_level_cap_must_not_be_negative(capsys):
    code, report = run_json(capsys, "closure", "--lattice", "mc", "--vars", "x",
                            "--level-cap", "-1")
    assert code == 3
    assert report["message"] == "level cap must not be negative"
    code, report = run_json(capsys, "closure", "--lattice", "godel3", "--vars", "x,y",
                            "--level-cap", "0")
    assert code == 2 and report["budget_note"] == "level budget 0 reached"
    assert report["columns"] == 3 and report["cumulative"] == [3]
    code, report = run_json(capsys, "closure", "--lattice", "mc", "--vars", "x",
                            "--level-cap", "1")
    assert code == 2 and report["budget_note"] == "level budget 1 reached"


def test_input_error_exit_code(capsys):
    code, _ = run(capsys, "valid", "--lattice", "no-such-lattice",
                  "--formula", "x")
    assert code == 3
    code, _ = run(capsys, "valid", "--lattice", "classical", "--formula", "x &")
    assert code == 3


def test_negative_k_is_an_input_error(capsys):
    for command in ("decide", "spectrum"):
        code, report = run_json(capsys, command, "--lattice", "three-01", "--k", "-1")
        assert code == 3, command
        assert report["details"]["k"] == -1


def test_usage_errors_are_input_errors(capsys):
    for argv in (["valid", "--lattice", "classical", "--formula", "x -> x", "--bogus"],
                 ["valid", "--lattice", "classical"],
                 ["decide", "--lattice", "classical", "--var-cap", "3"],  # read by 5 commands
                 []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3, argv
    with pytest.raises(SystemExit) as exc:
        main(["valid", "--help"])
    assert exc.value.code == 0


def test_text_and_json_reports_mirror(capsys):
    code_t = main(["decide", "--lattice", "three-0a"])
    text = capsys.readouterr().out
    code_j, report = run_json(capsys, "decide", "--lattice", "three-0a")
    assert code_t == code_j
    for key in report:
        assert f"{key}:" in text


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["valid", "--lattice", "classical", "--formula", "x -> x",
                 "--format", "json", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["status"] == "valid"


def test_var_cap_budget_exceeded(capsys):
    code, report = run_json(capsys, "valid", "--lattice", "classical",
                            "--formula", "x & y & x", "--var-cap", "1")
    assert code == 2  # two variables exceed the cap: UNKNOWN
    assert report["code"] == "BUDGET_EXCEEDED"
    code, _ = run(capsys, "valid", "--lattice", "classical", "--formula", "x", "--var-cap", "0")
    assert code == 3


def test_determinism_of_reports(capsys):
    _, first = run_json(capsys, "interpolate", "--lattice", "three-01",
                        "x & (x -> #0)", "y | (y -> #0)")
    _, second = run_json(capsys, "interpolate", "--lattice", "three-01",
                         "x & (x -> #0)", "y | (y -> #0)")
    assert first == second


def test_internal_error_is_not_a_verdict(capsys, monkeypatch):
    """A handler failing with an exception that is not a LatlogError ends
    with exit code 4 and an INTERNAL_ERROR report, never 1 (NO) or a traceback."""
    def broken(config):
        raise RuntimeError("broken handler")

    monkeypatch.setitem(cli.HANDLERS, "valid", broken)
    code, report = run_json(capsys, "valid", "--lattice", "classical", "--formula", "x")
    assert code == 4
    assert report["code"] == "INTERNAL_ERROR"
    assert report["message"] == "RuntimeError: broken handler"


ARROWS_3000 = " -> ".join(["x"] * 3001)
PARENS_600 = "(" * 600 + "x -> x" + ")" * 600


@pytest.mark.parametrize("formula", [ARROWS_3000, PARENS_600], ids=["3000-arrows", "600-parens"])
def test_deep_formula_gets_a_verdict(capsys, formula):
    code, report = run_json(capsys, "valid", "--lattice", "classical", "--formula", formula)
    assert code == 0
    assert report["status"] == "valid"


def test_interpolate_deep_antecedent(capsys):
    antecedent = "x" + " & y" * 3000  # left-nested 3000 deep
    code, report = run_json(capsys, "interpolate", "--lattice", "three-01", antecedent, "x | z")
    assert code == 0
    assert report["interpolant"] == "x"
    assert report["antecedent"] == antecedent


@pytest.mark.parametrize("shape", DEEP_SENTENCES)
@pytest.mark.parametrize("command", [["skolemize"], ["expand", "--n", "1"], ["herbrand"],
                                     ["fo-interpolate"]], ids=lambda c: c[0])
def test_first_order_commands_answer_deep_sentences(capsys, command, shape):
    code, _ = run_json(capsys, command[0], "--lattice", "mc",
                       "--formula", DEEP_SENTENCES[shape], *command[1:])
    assert code == 0


def test_herbrand_search_reads_the_lattice_signature(tmp_path, capsys):
    """A connective that only the lattice file declares is known to the
    Herbrand search, as it is to skolemization and expansion."""
    lat = tmp_path / "neg.lat"
    lat.write_text("elements 0 1\norder 0 < 1\nconnective -> -+\n1 1\n0 1\n"
                   "connective neg -\n1 0\n")
    for command in ("herbrand", "fo-interpolate"):
        code, report = run_json(capsys, command, "--lattice", str(lat),
                                "--formula", "neg(P(c)) -> neg(P(c))")
        assert code == 0, report
    assert report["interpolant"] == "neg(P(c))"


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading: str) -> str:
    """The body of the first fenced block under a README heading."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Every ``latlog`` line of the README's usage block runs to a verdict or
    a budget stop (exit 0, 1 or 2), never to an input or internal error."""
    (tmp_path / "fork.frame").write_text(_readme_block("Frame files"))
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _readme_block("Command line").splitlines()
             if line.startswith("latlog ")]
    assert len(lines) == 14
    for line in lines:
        code, out = run(capsys, *shlex.split(line)[1:])
        assert code in (0, 1, 2), (line, out)
        assert "INTERNAL_ERROR" not in out, line
