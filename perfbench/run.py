"""latlog benchmark: one workload, one process, one client in a closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload prop-batch --seed 1 --seconds 42 --trace 0

The library is imported from ``src/`` next to this directory and driven
in-process from one thread; the next query is sent only after the previous
verdict returns.  Passes over the workload's queries repeat while they fit
in ``--seconds``; the lattices are loaded afresh before each pass, outside
the timed region, so no state kept on them carries from one pass to the
next.  A fixed reference computation (``reference.py``) is timed around
chunks of about 0.5 s of queries; the gated time is the median pass in
units of it, which takes the machine's changing speed out.  Every outcome is
compared with ``expected.json`` (answers recorded from the seed commit,
plus literature oracles), and every YES
interpolant, NO witness pair and closure is re-checked by ``checker.py``
outside the timed region.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics.  The full layer table and the spans of the traced passes
are written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker
import gen
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up samples taken before the passes and after them, so that a slow or
# fast spell of the machine does not decide the median alone
SETUP_SAMPLES = (4, 4)
# setup_s is each set-up sample over the import reference timed next to it,
# times this: set-up seconds on a machine where the reference takes 0.1 s
IMPORT_REFERENCE_S = 0.1
# numpy's import starts one OpenBLAS thread per core and waits for them, so
# set-up time followed the load on the other core (+50% with one busy
# neighbour, against +15% with one thread).  latlog makes no BLAS calls.
PROBE_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
# query time after which a chunk ends and the reference computation is
# timed again: after every long query, and a few times per prop-batch pass
REFERENCE_EVERY_S = 0.5

# Functions and layers whose busy and self time go into the per-layer
# metrics: the ones every workload reaches, so no reported time is zero by
# construction.  The full table, every traced function with its calls, busy
# and self time, is printed and written to perfbench/out/.
TIMED_FUNCTIONS = (
    "validate_lattice", "render", "column_of", "is_valid_implication", "envelopes",
    "ClosureState.grow", "ClosureState.stream_scan", "ClosureState.scan_existing",
    "find_prop_interpolant",
)
TIMED_LAYERS = ("algebra", "syntax", "propcore", "interp")


def probe(*args: str) -> float:
    """Seconds printed by one setup_probe.py run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                          capture_output=True, text=True, timeout=120, check=True,
                          env=PROBE_ENV)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(lattices: list[str], count: int) -> list[tuple[float, float]]:
    """Samples of import + lattice loading, each in a fresh interpreter so
    the import is real every time, each paired with an import reference
    timed right after it, which slows down with the machine."""
    return [(probe(str(SRC), *lattices), probe("--reference")) for _ in range(count)]


def timed_answer(q, lattices, execute):
    """(seconds to verdict, outcome, raw result) of one query."""
    t0 = time.perf_counter()
    try:
        outcome, raw = execute.answer(q, lattices)
    except Exception as exc:  # an unexpected exception is a failed query
        traceback.print_exc(file=sys.stderr)
        outcome, raw = ("EXCEPTION", f"{type(exc).__name__}: {exc}"), None
    return time.perf_counter() - t0, outcome, raw


def run_pass(queries, lattices, execute, tracer=None):
    """Send every query once, in chunks with the reference timed around each.

    The reference computation is timed before the first query and after the
    last query of every chunk.  A chunk ends at the query that completes
    REFERENCE_EVERY_S of query time, or at the last query.  Returns
    (per-query seconds, index of each chunk's last query, reference seconds
    (one more than chunks), outcomes, raw results)."""
    times, found, outcomes, raws = [], [], [], []
    refs = [reference.seconds()]
    since = 0.0
    for qi, q in enumerate(queries):
        if tracer is not None:
            tracer.query_id = qi
        seconds, outcome, raw = timed_answer(q, lattices, execute)
        times.append(seconds)
        outcomes.append(outcome)
        raws.append(raw)
        since += seconds
        if since >= REFERENCE_EVERY_S or qi == len(queries) - 1:
            refs.append(reference.seconds())
            found.append(qi)
            since = 0.0
    return times, found, refs, outcomes, raws


def judge(q, outcome, expected, execute) -> str | None:
    """Reason the outcome counts as failed, or None."""
    verdict = outcome[0]
    if verdict == "EXCEPTION":
        return f"unexpected exception {outcome[1]}"
    if q["kind"] == "decide" and q["lattice"] in expected["oracles"]:
        allowed = expected["oracles"][q["lattice"]]["allowed"]
        if verdict not in allowed:
            return f"literature oracle violated: {verdict} not in {allowed}"
    recorded = expected["answers"].get(q["id"])
    if recorded is None:
        return "no recorded answer"
    if not execute.is_decided(tuple(recorded)):
        return None  # UNKNOWN before: any decided answer is a win
    if not execute.is_decided(outcome):
        return None  # shows in decided_frac
    if list(outcome) != list(recorded):
        return f"answer changed: expected {recorded}, got {list(outcome)}"
    return None


def independent_check(q, outcome, raw, tables) -> str | None:
    """Re-check certificates with the brute-force checker; None when fine."""
    lat = tables.get(q["lattice"])
    if lat is None:
        lat = tables[q["lattice"]] = checker.read_lattice(
            SRC / "latlog" / "lattices" / f"{q['lattice']}.lat")
    verdict, witness = outcome
    if q["kind"] == "interpolate" and verdict == "YES":
        return checker.check_interpolant(lat, q["a"], q["b"], witness)
    if q["kind"] == "fo" and verdict == "YES":
        from latlog.syntax import render

        trace = raw.trace
        return checker.check_interpolant(lat, render(trace.prop_antecedent),
                                         render(trace.prop_succedent),
                                         trace.verdict.interpolant_word)
    if q["kind"] == "decide" and verdict == "NO":
        a_text, b_text = witness.split(" ; ")
        return checker.check_valid_implication(lat, a_text, b_text)
    if q["kind"] == "decide" and verdict == "YES" and witness is not None:
        return checker.check_interpolant(lat, "x1 & y1", "y1", witness)
    if q["kind"] == "closure" and verdict == "COMPLETE":
        if len({c.values.tobytes() for c in raw.columns}) != len(raw.columns):
            return "closure holds a column twice"
        for col in raw.columns:
            problem = checker.check_column(lat, col.word, list(raw.var_list), col.values)
            if problem:
                return problem
    return None


def norm_pass(chunk_times: list[list[float]], chunk_refs: list[list[float]]) -> float:
    """The median pass in units of the reference computation: each chunk's
    time over the mean of the reference times before and after it, summed
    over the pass.

    The median, not the fastest pass: the fastest over fewer passes reads
    higher, and a slow spell of the machine fits fewer passes in a run
    (README.md gives the figures)."""
    return statistics.median(sum(t / r for t, r in zip(ts, rs))
                             for ts, rs in zip(chunk_times, chunk_refs))


def percentile(samples: list[float], k: int) -> float:
    """k-th percentile (k a multiple of 10), interpolated between samples."""
    return statistics.quantiles(samples, n=10)[k // 10 - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "latlog" / "__init__.py").is_file():
        print(f"latlog sources not found under {SRC}", file=sys.stderr)
        return 2
    queries = gen.workload_queries(args.workload, args.seed)
    lattice_names = gen.workload_lattices(args.workload)

    setup_samples = measure_setup(lattice_names, SETUP_SAMPLES[0]) if not args.trace else []
    sys.path.insert(0, str(SRC))
    import latlog

    if Path(latlog.__file__).resolve().parent != SRC / "latlog":
        print(f"imported latlog from {latlog.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import execute
    import tracer as tracing

    expected = json.loads((HERE / "expected.json").read_text())

    plain = {"walls": [], "times": [], "chunks": [], "refs": []}
    traced = {"walls": [], "times": [], "chunks": [], "refs": []}
    first_outcomes = first_raws = None
    mismatched = [0] * len(queries)
    tracer = tracing.Tracer() if args.trace else None

    def one_pass(record, with_tracer):
        nonlocal first_outcomes, first_raws
        active = None
        if with_tracer:
            tracer.install()
            tracer.query_id = -1  # set-up spans: validate_lattice
            active = tracer
        try:
            # fresh Lattice objects: a cache kept on them cannot make later
            # passes cheaper than the first
            lattices = execute.load_lattices(lattice_names)
            gc.collect()
            times, found, refs, outcomes, raws = run_pass(queries, lattices, execute, active)
        finally:
            if with_tracer:
                tracer.uninstall()
        starts = [0] + [i + 1 for i in found]
        wall = sum(times)
        record["walls"].append(wall)
        record["times"].append(times)
        record["chunks"].append([sum(times[a:b]) for a, b in zip(starts, starts[1:])])
        record["refs"].append([(r0 + r1) / 2 for r0, r1 in zip(refs, refs[1:])])
        if first_outcomes is None:
            first_outcomes, first_raws = outcomes, raws
        else:
            for i, o in enumerate(outcomes):
                mismatched[i] += o != first_outcomes[i]
        return wall

    begin = time.perf_counter()
    while True:
        if not args.trace:
            step = one_pass(plain, False)
        elif len(plain["walls"]) % 2 == 0:  # alternate the order of each pair
            step = one_pass(plain, False) + one_pass(traced, True)
        else:
            step = one_pass(traced, True) + one_pass(plain, False)
        if time.perf_counter() - begin + step > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup_samples += measure_setup(lattice_names, SETUP_SAMPLES[1])

    passes = len(plain["walls"]) + len(traced["walls"])
    attempted = passes * len(queries)
    tables: dict = {}
    failed = 0
    decided = 0
    for i, q in enumerate(queries):
        outcome = first_outcomes[i]
        reason = judge(q, outcome, expected, execute)
        if reason is None:
            reason = independent_check(q, outcome, first_raws[i], tables)
        if reason is not None:
            print(f"FAILED {q['id']}: {reason}", file=sys.stderr)
            failed += passes
        else:
            failed += mismatched[i]
            if mismatched[i]:
                print(f"FAILED {q['id']}: outcome differs between passes", file=sys.stderr)
        decided += execute.is_decided(outcome)

    # each query's median over the untraced passes, then deciles over the queries
    times = [statistics.median(ts) for ts in zip(*plain["times"])]
    query_p50_ms, query_p90_ms = percentile(times, 50) * 1e3, percentile(times, 90) * 1e3
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        metrics["setup_s"] = (statistics.median(s / r for s, r in setup_samples)
                              * IMPORT_REFERENCE_S, "s")
        metrics["wall_norm"] = (norm_pass(plain["chunks"], plain["refs"]), "ref")
        metrics["decided_frac"] = (decided / len(queries), "ratio")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        metrics["wall_s"] = (statistics.median(plain["walls"]), "s")
        metrics["wall_first_s"] = (plain["walls"][0], "s")
        metrics["query_p50_ms"] = (query_p50_ms, "ms")
        metrics["query_p90_ms"] = (query_p90_ms, "ms")
        n_traced = len(traced["walls"])
        report = tracing.layer_report(tracer.spans())
        per_pass = {}
        for name in tracing.FUNCTIONS:
            row = report.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            per_pass[name] = {k: v / n_traced for k, v in row.items()}
            metrics[f"{name}.calls"] = (per_pass[name]["calls"], "count")
            if name in TIMED_FUNCTIONS:
                metrics[f"{name}.busy_s"] = (per_pass[name]["busy_s"], "s")
                metrics[f"{name}.self_s"] = (per_pass[name]["self_s"], "s")
        for layer in TIMED_LAYERS:
            metrics[f"{layer}.self_s"] = (
                sum(per_pass[attr]["self_s"] for _, attr in tracing.TRACED[layer]), "s")
        for key, (value, unit) in tracer.counters.metrics().items():
            if unit == "count":
                value = value / n_traced
            metrics[key] = (value, unit)
        # the difference in reference units, turned back into seconds at the
        # run's median reference time, so a change of machine speed between
        # the traced and untraced passes cancels out
        ref_s = statistics.median(r for rs in plain["refs"] + traced["refs"] for r in rs)
        metrics["tracing.overhead_s"] = ((norm_pass(traced["chunks"], traced["refs"])
                                          - norm_pass(plain["chunks"], plain["refs"]))
                                         * ref_s, "s")
        OUT.mkdir(exist_ok=True)
        (OUT / f"layers-{args.workload}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "traced_passes": n_traced,
            "untraced_wall_s": statistics.median(plain["walls"]),
            "traced_wall_s": statistics.median(traced["walls"]),
            "functions": per_pass,
        }, indent=1))
        with open(OUT / f"spans-{args.workload}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "queries": [q["id"] for q in queries],
                       "spans": tracer.spans()}, fh)
        for name in tracing.FUNCTIONS:
            row = per_pass[name]
            print(f"layer {name:28s} calls {row['calls']:10.0f}  busy {row['busy_s']:9.4f} s"
                  f"  self {row['self_s']:9.4f} s")

    print(f"workload {args.workload} seed {args.seed}: {len(queries)} queries, "
          f"{len(plain['walls'])} untraced and {len(traced['walls'])} traced passes, "
          f"failed_frac {failed / attempted:.4f}, query p50 {query_p50_ms:.3f} ms and "
          f"p90 {query_p90_ms:.3f} ms over {len(times)} per-query medians")
    print("untraced pass walls (s): " + " ".join(f"{w:.3f}" for w in plain["walls"]))
    # the first pass runs with nothing warm from an earlier one: a gain that
    # shows in the median pass wall but not here comes from work kept across passes
    print(f"wall_first_s {plain['walls'][0]} s")
    print(f"wall_s {statistics.median(plain['walls'])} s")
    print("reference median {:.5f} s, fastest {:.5f} s".format(
        statistics.median(r for rs in plain["refs"] for r in rs),
        min(r for rs in plain["refs"] for r in rs)))
    if traced["walls"]:
        print("traced pass walls (s): " + " ".join(f"{w:.3f}" for w in traced["walls"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    if setup_samples:
        print("setup samples (s): " + " ".join(f"{s:.4f}" for s, _ in setup_samples))
        print("import reference samples (s): "
              + " ".join(f"{r:.4f}" for _, r in setup_samples))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
