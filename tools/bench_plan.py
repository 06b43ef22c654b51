"""Time each planning stage on the benchmark's two workloads at seed 42.

The queries are the ones `bench/run.py --workload W --seed 42` plans: 240
per workload, each planned from its SQL text through the stages parse ->
normalize -> analyze -> estimate -> features -> decide -> rewrite, in the
benchmark's order.  `decide` runs a regress CART trained on the workload's
own queries, labelled by the exact intermediate-tuple counts of Base and
Rewriting, so the model repeats exactly.  After one untimed warm-up pass
the script runs ROUNDS rounds; each round plans every query of both
workloads once, the workloads in alternating order from round to round,
with the garbage collector off during each workload's pass.  Each stage of
each query is timed with raw `time.perf_counter` (no clock rescaling);
normalize through decide are the stage-boundary timestamps that
`harness.plan_query` takes, so `parse` also holds the call into it and
`rewrite` the return from it.
Per round and stage it takes the median over the queries; BENCH_plan.json
records, per workload and stage, the median and quartiles of those round
medians in microseconds, under a side name.  Sides already in the file are
kept, so one file holds a before/after pair measured on the same machine.

    python tools/bench_plan.py --side change
    python tools/bench_plan.py --side parent --src ../parent/src

`--src` imports `smash` from another source tree, such as a checkout of
the parent commit; the tree must have `harness.plan_query` (an older tree is
measured with its own copy of this script).  Every side also records a
SHA-256 over every query's feature vector, decision and statement forms,
so equal digests mean equal plans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROUNDS = 15
STAGES = ("parse", "normalize", "analyze", "estimate", "features", "decide",
          "rewrite")


def plan_pass(db, queries, model):
    """Per stage, the seconds of each query."""
    from smash import frontend, harness, rewriter

    clock = time.perf_counter
    seconds = {stage: [] for stage in STAGES + ("total",)}
    gc.collect()
    gc.disable()
    try:
        for _, sql in queries:
            t0 = clock()
            plan = harness.plan_query(frontend.parse_query(sql), db, model)
            # bound as the benchmark binds it, so the previous query's plan
            # is freed inside this stage, as it is there
            seq = rewriter.rewrite(plan.tree, plan.cq, db)  # noqa: F841
            t7 = clock()
            marks = (t0, *plan.marks, t7)
            for stage, start, end in zip(STAGES, marks, marks[1:]):
                seconds[stage].append(end - start)
            seconds["total"].append(t7 - t0)
    finally:
        gc.enable()
    return seconds


def plan_digest(db, queries, model):
    """SHA-256 over every query's feature vector, decision and statement forms."""
    from smash import frontend, harness, rewriter

    digest = hashlib.sha256()
    for _, sql in queries:
        plan = harness.plan_query(frontend.parse_query(sql), db, model)
        seq = rewriter.rewrite(plan.tree, plan.cq, db)
        digest.update(repr((plan.features.as_list(), plan.decision,
                            [(s.name, s.form) for s in seq.statements])).encode())
    return digest.hexdigest()


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", required=True,
                        help="name to record the run under, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="source tree to import smash from")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_plan.json")
    args = parser.parse_args(argv)
    # this script's directory is on sys.path
    from bench_cart import SEED, count_examples, machine, use_source, workload

    use_source(args.src)
    from smash import ml
    from smashbench import N_QUERIES, WORKLOADS

    loads = {name: workload(name) for name in WORKLOADS}
    models = {name: ml.train_cart(count_examples(db, queries), task="regress")
              for name, (db, queries) in loads.items()}
    digests = {name: plan_digest(db, queries, models[name])
               for name, (db, queries) in loads.items()}
    for name, (db, queries) in loads.items():  # warm-up, untimed
        plan_pass(db, queries, models[name])
    round_p50 = {name: {} for name in loads}  # workload -> stage -> [us]
    order = list(loads)
    for r in range(ROUNDS):
        for name in (order if r % 2 == 0 else order[::-1]):
            db, queries = loads[name]
            for stage, values in plan_pass(db, queries, models[name]).items():
                round_p50[name].setdefault(stage, []).append(
                    statistics.median(values) * 1e6)
    result = {
        "rounds": ROUNDS,
        "p50_us": {name: {stage: summary(values) for stage, values in stages.items()}
                   for name, stages in round_p50.items()},
        "plan_sha256": digests,
        "machine": machine(),
    }
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("queries", f"two_regime and selector_wide seed {SEED}, "
                      f"{N_QUERIES} queries each, planned from SQL text")
    record["unit"] = ("microseconds: per round, the median over queries of a "
                      "stage's raw perf_counter time; median and quartiles over rounds")
    record.setdefault("sides", {})[args.side] = result
    plans = {json.dumps(side["plan_sha256"], sort_keys=True)
             for side in record["sides"].values()}
    record["same_plans_on_all_sides"] = len(plans) == 1
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.side: {name: stages["total"]["median"]
                                  for name, stages in result["p50_us"].items()},
                      "same_plans_on_all_sides": record["same_plans_on_all_sides"]},
                     indent=2))


if __name__ == "__main__":
    main()
