"""Time CART training on the benchmark's seed-42 selector_wide dataset.

The dataset is the one `bench/run.py --workload selector_wide --seed 42`
trains on: its 240 queries, taken from the benchmark's own workload
definition, each planned from its SQL text through `harness.plan_query`
and labelled by the exact intermediate-tuple counts of Base and Rewriting,
so it repeats exactly.  `tools/bench_plan.py` takes its workloads and
labels from the same `workload` and `count_examples`.
The script times `train_cart` (regress and classify) on the training pool
and `cross_validate(folds, "regress")`.

    python tools/bench_cart.py --parent ../parent/src

runs the rounds of `bench_plan.alternate`: per round one fresh subprocess
per side, the parent tree (`--parent`, such as a checkout of the parent
commit, which must have `harness.plan_query`) and this repository's
`src/`, in alternating order.  A subprocess runs the three calls once,
untimed, then REPEATS times, with the garbage collector off during each
call, timed with `bench/clock.py` so that they read in seconds at the
clock's reference speed; it reports per call, and for the sum of the
three, the median over its repeats.  BENCH_cart.json records per side the
median and quartiles of those round values, the round and repeat counts,
the machine and the SHA-256 of both pool models' `model_to_json` (equal
digests mean equal models), and the ratios change / parent of the total
per round.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from bench_plan import ROUNDS, alternate, ratio_summary, summary

REPO = Path(__file__).resolve().parent.parent
REPEATS = 5
SEED = 42


def use_source(src):
    """Import `smash` from the source tree `src`, and the benchmark's
    workload definitions from `bench/`."""
    sys.path[:0] = [str(Path(src).resolve()), str(REPO / "bench")]


def count_examples(db, queries):
    """One example per (query id, SQL text): planned through
    `harness.plan_query` and labelled by the exact intermediate-tuple
    counts of Base and Rewriting."""
    from smash import engine, frontend, harness, ml, rewriter

    examples = []
    for qid, sql in queries:
        plan = harness.plan_query(frontend.parse_query(sql), db)
        cq = plan.cq
        base, rewritten = engine.OpCounter(), engine.OpCounter()
        engine.evaluate_baseline(cq, db, base)
        rewriter.interpret_sequence(rewriter.rewrite(plan.tree, cq, db), cq, db, rewritten)
        examples.append(ml.label(qid, plan.features, base.intermediate_tuples,
                                 rewritten.intermediate_tuples))
    return examples


def workload(name):
    """The benchmark's own workload `name` at SEED: (Database, [(query id,
    SQL text)])."""
    from smash import frontend
    from smashbench import WORKLOADS

    db, queries = WORKLOADS[name].generate(SEED)
    return db, [(qid, frontend.to_sql(spec)) for qid, spec in queries]


def build_examples():
    """The selector_wide queries, count-labelled."""
    return count_examples(*workload("selector_wide"))


def timed(clock, fn):
    """Reference-speed seconds of `fn()`, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        return clock.call(fn)[1]
    finally:
        gc.enable()


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy as np

    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def measure(repeats):
    from clock import Clock
    from smash import ml

    examples = build_examples()
    splits = ml.split_dataset(examples, SEED)
    calls = {
        "train_cart_regress_s": lambda: ml.train_cart(splits.pool, task="regress"),
        "train_cart_classify_s": lambda: ml.train_cart(splits.pool, task="classify"),
        "cross_validate_regress_s": lambda: ml.cross_validate(splits.folds, "regress"),
    }
    for call in calls.values():  # warm-up, untimed
        call()
    seconds = {name: [] for name in calls}
    totals = []
    with Clock() as clock:
        for _ in range(repeats):
            total = 0.0
            for name, call in calls.items():
                s = timed(clock, call)
                seconds[name].append(s)
                total += s
            totals.append(total)
    models = {task: ml.train_cart(splits.pool, task=task)
              for task in ("regress", "classify")}
    return {
        "seconds": {**{k: statistics.median(v) for k, v in seconds.items()},
                    "total_s": statistics.median(totals)},
        "model_sha256": {task: hashlib.sha256(ml.model_to_json(m).encode()).hexdigest()
                         for task, m in models.items()},
        "n_examples": len(examples),
        "n_pool": len(splits.pool),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path,
                        help="source tree of the parent side, e.g. ../parent/src")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_cart.json")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        use_source(args.worker)
        print(json.dumps(measure(REPEATS)))
        return
    if args.parent is None:
        parser.error("--parent is required")
    sources, results = alternate(
        __file__, args.parent, lambda result: f"total {result['seconds']['total_s']:.3f} s")
    sides = {}
    for side in sources:
        (models,) = {json.dumps(r["model_sha256"], sort_keys=True) for r in results[side]}
        first = results[side][0]
        sides[side] = {
            "rounds": ROUNDS,
            "repeats": REPEATS,
            "seconds": {name: summary([r["seconds"][name] for r in results[side]])
                        for name in first["seconds"]},
            "model_sha256": json.loads(models),
            "n_examples": first["n_examples"],
            "n_pool": first["n_pool"],
            "machine": machine(),
        }
    record = {
        "dataset": f"selector_wide seed {SEED}, {first['n_examples']} queries, "
                   "count labels; pool models and 10-fold regress CV",
        "unit": (f"seconds at reference speed (bench/clock.py): per round, one "
                 f"subprocess per side; per call the median of {REPEATS} repeats "
                 "after an untimed one; median and quartiles over rounds"),
        "sides": sides,
        "ratio_change_over_parent": ratio_summary(
            *([r["seconds"]["total_s"] for r in results[side]]
              for side in ("parent", "change"))),
        "same_models_on_all_sides": len({json.dumps(s["model_sha256"], sort_keys=True)
                                         for s in sides.values()}) == 1,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({**{side: sides[side]["seconds"]["total_s"]["median"]
                         for side in sides},
                      "ratio": record["ratio_change_over_parent"]["median"],
                      "model_sha256": sides["change"]["model_sha256"],
                      "same_models_on_all_sides": record["same_models_on_all_sides"]},
                     indent=2))


if __name__ == "__main__":
    main()
