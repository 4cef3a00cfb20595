"""Rewrite the recorded answers in expected.json from the current code.

Usage (from the repository root): python3 perfbench/record.py

Runs every query any workload can send (the prop-batch pool included) once
and stores its (verdict, witness).  The hand-written "oracles" section is
kept as it is; an answer that violates an oracle is reported and the file is
left unchanged.  Record only from a commit whose answers are trusted.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import execute  # noqa: E402


def _rows(mapping: dict) -> str:
    """One JSON entry per line, so a changed answer is a one-line diff."""
    return ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in mapping.items())


def main() -> int:
    path = HERE / "expected.json"
    expected = json.loads(path.read_text())
    oracles = expected["oracles"]
    queries = gen.FO_QUERIES + gen.DECIDE_QUERIES + gen.prop_pool()
    lattices = execute.load_lattices(sorted(gen.LATTICES))
    answers = {}
    bad = 0
    for q in queries:
        outcome, _ = execute.answer(q, lattices)
        answers[q["id"]] = list(outcome)
        oracle = oracles.get(q["lattice"]) if q["kind"] == "decide" else None
        if oracle and outcome[0] not in oracle["allowed"]:
            print(f"{q['id']}: {outcome[0]} violates the oracle {oracle}", file=sys.stderr)
            bad += 1
    if bad:
        return 1
    path.write_text('{\n "oracles": {\n' + _rows(oracles) + '\n },\n "answers": {\n'
                    + _rows(answers) + "\n }\n}\n")
    print(f"recorded {len(answers)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
