"""Self-tests of the benchmark's own code.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

_DIGEST = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import gen
data = {w: gen.workload_queries(w, int(sys.argv[2])) for w in gen.WORKLOADS}
data["pool"] = gen.prop_pool()
data["lattices"] = {w: gen.workload_lattices(w) for w in gen.WORKLOADS}
loaded = sorted(m for m in sys.modules if m == "latlog" or m.startswith("latlog."))
print(json.dumps({"digest": hashlib.sha256(json.dumps(data).encode()).hexdigest(),
                  "latlog": loaded}))
"""


def _generate(seed: int, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, "-c", _DIGEST, str(BENCH), str(seed)],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    return json.loads(proc.stdout)


def test_generator_is_deterministic_per_seed_and_never_imports_latlog():
    first = _generate(7, "1")
    again = _generate(7, "2")
    other = _generate(8, "1")
    assert first["latlog"] == [] and other["latlog"] == []
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


def test_seed_changes_order_and_sample_but_not_the_query_universe():
    pool_ids = {q["id"] for q in gen.prop_pool()}
    a = gen.workload_queries("prop-batch", 1)
    b = gen.workload_queries("prop-batch", 2)
    assert len(a) == len(b) == gen.BATCH_SIZE
    assert [q["id"] for q in a] != [q["id"] for q in b]
    assert {q["id"] for q in a} <= pool_ids
    fo = gen.workload_queries("fo-pipeline", 1)
    assert sorted(q["id"] for q in fo) == sorted(q["id"] for q in gen.FO_QUERIES)


def test_every_query_has_a_recorded_answer():
    expected = json.loads((BENCH / "expected.json").read_text())
    ids = [q["id"] for q in gen.FO_QUERIES + gen.DECIDE_QUERIES + gen.prop_pool()]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(expected["answers"])


def test_self_time_on_a_hand_built_span_tree():
    # A[0,10] > B[1,4] > C[2,3];  A > B[5,9] > A[6,8];  C[11,12] at the root
    spans = [
        ("A", 0.0, 10.0, -1, 0),
        ("B", 1.0, 4.0, 0, 0),
        ("C", 2.0, 3.0, 1, 0),
        ("B", 5.0, 9.0, 0, 0),
        ("A", 6.0, 8.0, 3, 0),
        ("C", 11.0, 12.0, -1, 1),
    ]
    report = tracer.layer_report(spans)
    assert report["A"] == {"calls": 2, "busy_s": 10.0, "self_s": 5.0}
    assert report["B"] == {"calls": 2, "busy_s": 7.0, "self_s": 4.0}
    assert report["C"] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0}
    # self times partition the covered time
    assert sum(r["self_s"] for r in report.values()) == 11.0


def test_norm_pass_is_the_median_pass_in_reference_units():
    # three passes, each of two chunks, with a different chunk count in one
    chunks = [[2.0, 1.0], [3.0, 0.5], [4.0]]
    refs = [[1.0, 1.0], [2.0, 0.25], [0.5]]
    # the passes read 2/1 + 1/1 = 3, 3/2 + 0.5/0.25 = 3.5 and 4/0.5 = 8
    assert run.norm_pass(chunks, refs) == 3.5


@pytest.fixture(scope="module")
def classical():
    return checker.read_lattice(SRC / "latlog" / "lattices" / "classical.lat")


@pytest.fixture(scope="module")
def three_01():
    return checker.read_lattice(SRC / "latlog" / "lattices" / "three-01.lat")


def test_lattice_reader_derives_the_chain_tables(three_01):
    assert three_01.elements == ["0", "a", "1"]
    assert three_01.tables["&"].tolist() == [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
    assert three_01.tables["|"].tolist() == [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
    assert three_01.tables["->"].tolist() == [[2, 2, 2], [1, 2, 2], [0, 1, 2]]
    assert three_01.constants == {"0": 0, "1": 2}


def test_checker_accepts_a_true_interpolant(classical, three_01):
    assert checker.check_interpolant(classical, "x1 & y1", "y1 | z1", "y1") is None
    assert checker.check_interpolant(three_01, "(y1 & #0) | (x1 & y1)", "y1 -> (y1 | z1)",
                                      "y1") is None


def test_checker_rejects_wrong_interpolants(classical, three_01):
    # mentions a private variable
    assert "non-shared" in checker.check_interpolant(classical, "x1 & y1", "y1 | z1", "x1")
    # too weak: top is not below y1 | z1
    assert "I <= b" in checker.check_interpolant(classical, "x1 & y1", "y1 | z1", "y1 -> y1")
    # too strong: a is not below #0
    assert "a <= I" in checker.check_interpolant(three_01, "x1 & y1", "y1", "#0")


def test_checker_rejects_an_invalid_witness_pair(three_01):
    assert checker.check_valid_implication(three_01, "(x1 -> #0) & x1", "(z1 -> #0) | z1") is None
    assert checker.check_valid_implication(three_01, "x1", "z1") is not None


def test_checker_evaluates_closure_columns(three_01):
    # lexicographic valuations of (x, y), first variable most significant
    assert checker.check_column(three_01, "x & y", ["x", "y"],
                                [0, 0, 0, 0, 1, 1, 0, 1, 2]) is None
    assert checker.check_column(three_01, "x | y", ["x", "y"],
                                [0, 0, 0, 0, 1, 1, 0, 1, 2]) is not None


def test_tracer_wraps_every_importing_module_and_restores_them():
    sys.path.insert(0, str(SRC))
    import latlog
    import latlog.folift
    import latlog.interp
    import latlog.propcore

    originals = (latlog.interp.envelopes, latlog.folift.find_prop_interpolant,
                 latlog.propcore.ClosureState.__dict__["grow"])
    t = tracer.Tracer()
    t.install()
    try:
        assert latlog.interp.envelopes is not originals[0]
        assert latlog.folift.find_prop_interpolant is latlog.interp.find_prop_interpolant
        lat = latlog.bundled_lattice("three-01")
        a, b = latlog.parse_formula("x & (x -> #0)"), latlog.parse_formula("y | (y -> #0)")
        verdict = latlog.find_prop_interpolant(a, b, lat)
    finally:
        t.uninstall()
    assert verdict.status == "NO"
    assert (latlog.interp.envelopes, latlog.folift.find_prop_interpolant,
            latlog.propcore.ClosureState.__dict__["grow"]) == originals
    spans = t.spans()
    names = [s[0] for s in spans]
    top = names.index("find_prop_interpolant")
    env = names.index("envelopes")
    assert spans[env][3] == top
    assert "ClosureState.grow" in names and "render" in names
    report = tracer.layer_report(spans)
    assert report["find_prop_interpolant"]["calls"] == 1
    assert t.counters.stream_scan_calls == report["ClosureState.stream_scan"]["calls"]
