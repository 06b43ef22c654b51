"""Time each planning stage of two source trees, in alternating rounds.

The queries are the ones `bench/run.py --workload W --seed 42` plans: 240
per workload, each planned from its SQL text through the stages parse ->
normalize -> analyze -> estimate -> features -> decide -> rewrite, called
one by one in the benchmark's order.  `decide` runs a regress CART trained
on the workload's own queries, labelled by the exact intermediate-tuple
counts of Base and Rewriting, so the model repeats exactly.

    python tools/bench_plan.py --parent ../parent/src

runs ROUNDS rounds.  Each round measures both trees, the parent (`--parent`,
a source tree such as a checkout of the parent commit) and the change (this
repository's `src/`), each in a fresh subprocess, in alternating order from
round to round.  A subprocess plans every query of both workloads once,
untimed, then PASSES times, the workloads in alternating order, with the
garbage collector off during each pass.  Every stage of every query is
timed with `time.perf_counter` and rescaled to reference speed with the
factor `bench/clock.py` reads at that moment; a query during which the
clock took a reading is left out of that pass.  As in the benchmark, a
stage's output is freed when the next query's same stage replaces it.  A stage's time for a query
is its median over the passes, and the subprocess reports, per stage, the
median of those over the queries ("total" is the median of the per-query
sums).  BENCH_plan.json records, per side, workload and stage, the median
and quartiles of those round values in microseconds, and per round the
ratio change / parent of the selector_wide and two_regime totals.

After the rounds, one more subprocess per side counts, in one untimed pass,
the Python opcodes each stage runs per query (`sys.settrace` opcode
events); the file records per stage the median over the queries, and the
median of the per-query sums as "total".  These counts do not drift with
the machine's speed.  Every subprocess also reports a SHA-256 over every
query's feature vector, decision and statement forms, so equal digests
mean equal plans.  Both trees must have `harness.plan_query`, which the
shared set-up in `bench_cart.py` labels the queries through.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROUNDS = 5
PASSES = 5
STAGES = ("parse", "normalize", "analyze", "estimate", "features", "decide",
          "rewrite")


def stage_calls(db, model):
    """The seven stages as functions of the previous stage's output."""
    from smash import acyclic, engine, features, frontend, ml, rewriter

    def analyze(cq):
        return cq, acyclic.analyze(cq)[0]

    def estimate(planned):
        cq, tree = planned
        return cq, tree, engine.estimate_cardinalities(cq, db)

    def extract(planned):
        cq, tree, est = planned
        return cq, tree, features.extract_features(cq, tree, est)

    def decide(planned):
        cq, tree, fv = planned
        return cq, tree, fv, ml.decide(model, fv, 0.0)

    def rewrite(planned):
        cq, tree, fv, decision = planned
        return fv, decision, rewriter.rewrite(tree, cq, db)

    return (frontend.parse_query, lambda spec: frontend.normalize(spec, db), analyze,
            estimate, extract, decide, rewrite)


def plan_digest(db, queries, model):
    """SHA-256 over every query's feature vector, decision and statement forms."""
    calls = stage_calls(db, model)
    digest = hashlib.sha256()
    for _, sql in queries:
        planned = sql
        for call in calls:
            planned = call(planned)
        fv, decision, seq = planned
        digest.update(repr((fv.as_list(), decision,
                            [(s.name, s.form) for s in seq.statements])).encode())
    return digest.hexdigest()


def plan_pass(calls, queries, clock):
    """Per query, each stage's reference-speed seconds, or None for a
    query during which the clock took a reading."""
    perf = time.perf_counter
    out = []
    # each stage's output lives until the next query's same stage replaces
    # it, as the benchmark's loop variables do, so freeing a query's plan is
    # timed in the stages of the next query
    outputs = [None] * len(calls)
    gc.collect()
    gc.disable()
    try:
        for _, sql in queries:
            paused = clock.paused
            scale = clock.scale()
            value = sql
            marks = [perf()]
            for k, call in enumerate(calls):
                value = outputs[k] = call(value)
                marks.append(perf())
            if clock.paused != paused:
                out.append(None)
                continue
            out.append([(end - start) * scale for start, end in zip(marks, marks[1:])])
    finally:
        gc.enable()
    return out


def stage_p50_us(passes):
    """Per stage and "total": the median over queries of the query's
    median over passes, in microseconds."""
    per_query = []
    for timings in zip(*passes):
        kept = [t for t in timings if t is not None]
        if kept:
            per_query.append([statistics.median(s) for s in zip(*kept)])
    result = {stage: statistics.median(q[i] for q in per_query) * 1e6
              for i, stage in enumerate(STAGES)}
    result["total"] = statistics.median(sum(q) for q in per_query) * 1e6
    return result


def opcode_counts(calls, queries):
    """Per stage and "total": the median over queries of the opcodes run."""
    count = [0]

    def local(frame, event, arg):
        if event == "opcode":
            count[0] += 1
        return local

    def tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    per_query = []
    for _, sql in queries:
        value, row = sql, []
        for call in calls:
            count[0] = 0
            sys.settrace(tracer)
            try:
                value = call(value)
            finally:
                sys.settrace(None)
            row.append(count[0])
        per_query.append(row)
    result = {stage: statistics.median(q[i] for q in per_query)
              for i, stage in enumerate(STAGES)}
    result["total"] = statistics.median(sum(q) for q in per_query)
    return result


def worker(src, opcodes):
    """One side's measurement, as one JSON object on standard output."""
    # this script's directory is on sys.path
    from bench_cart import count_examples, use_source, workload

    use_source(src)
    from clock import Clock
    from smash import ml
    from smashbench import WORKLOADS

    loads = {name: workload(name) for name in WORKLOADS}
    calls = {}
    digests = {}
    for name, (db, queries) in loads.items():
        model = ml.train_cart(count_examples(db, queries), task="regress")
        calls[name] = stage_calls(db, model)
        digests[name] = plan_digest(db, queries, model)
    if opcodes:
        result = {name: opcode_counts(calls[name], queries)
                  for name, (_, queries) in loads.items()}
        print(json.dumps({"opcodes": result, "plan_sha256": digests}))
        return
    passes = {name: [] for name in loads}
    order = list(loads)
    with Clock() as clock:
        for name, (_, queries) in loads.items():  # warm-up, untimed
            plan_pass(calls[name], queries, clock)
        for p in range(PASSES):
            for name in (order if p % 2 == 0 else order[::-1]):
                passes[name].append(plan_pass(calls[name], loads[name][1], clock))
    print(json.dumps({"p50_us": {name: stage_p50_us(v) for name, v in passes.items()},
                      "plan_sha256": digests}))


def run_side(src, opcodes=False):
    cmd = [sys.executable, __file__, "--worker", str(src)]
    if opcodes:
        cmd.append("--opcodes")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path,
                        help="source tree of the parent side, e.g. ../parent/src")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_plan.json")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--opcodes", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        worker(args.worker, args.opcodes)
        return
    if args.parent is None:
        parser.error("--parent is required")
    from bench_cart import SEED, machine

    sources = {"parent": args.parent.resolve(), "change": REPO / "src"}
    rounds = {side: [] for side in sources}
    digests = {side: set() for side in sources}
    for r in range(ROUNDS):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            result = run_side(sources[side])
            rounds[side].append(result["p50_us"])
            digests[side].add(json.dumps(result["plan_sha256"], sort_keys=True))
            print(f"round {r} {side}: " + ", ".join(
                f"{name} {stages['total']:.1f} us"
                for name, stages in result["p50_us"].items()), file=sys.stderr)
    opcodes = {side: run_side(src, opcodes=True) for side, src in sources.items()}
    workloads = list(rounds["parent"][0])
    sides = {}
    for side in sources:
        (plans,) = digests[side] | {json.dumps(opcodes[side]["plan_sha256"],
                                               sort_keys=True)}
        sides[side] = {
            "rounds": ROUNDS,
            "p50_us": {name: {stage: summary([r[name][stage] for r in rounds[side]])
                              for stage in STAGES + ("total",)}
                       for name in workloads},
            "opcodes": opcodes[side]["opcodes"],
            "plan_sha256": json.loads(plans),
            "machine": machine(),
        }
    ratios = {name: [c[name]["total"] / p[name]["total"]
                     for p, c in zip(rounds["parent"], rounds["change"])]
              for name in workloads}
    record = {
        "queries": f"two_regime and selector_wide seed {SEED}, 240 queries each, "
                   "planned from SQL text",
        "unit": (f"microseconds at reference speed (bench/clock.py): per round, one "
                 f"subprocess per side; per query a stage's median over {PASSES} "
                 "passes, then the median over queries; median and quartiles over "
                 "rounds.  opcodes: Python opcodes per query, median over queries"),
        "sides": sides,
        "ratio_change_over_parent": {
            name: {"per_round": values, **summary(values)}
            for name, values in ratios.items()},
        "same_plans_on_all_sides": len({json.dumps(s["plan_sha256"], sort_keys=True)
                                        for s in sides.values()}) == 1,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({name: {"ratio": record["ratio_change_over_parent"][name]["median"],
                             **{side: sides[side]["p50_us"][name]["total"]["median"]
                                for side in sides},
                             "opcodes": {side: sides[side]["opcodes"][name]["total"]
                                         for side in sides}}
                      for name in workloads} | {
                          "same_plans_on_all_sides": record["same_plans_on_all_sides"]},
                     indent=2))


if __name__ == "__main__":
    main()
