"""Time CART training on the benchmark's seed-42 selector_wide dataset.

The dataset is the one `bench/run.py --workload selector_wide --seed 42`
trains on: 240 random 4-8 table queries, each labelled by the exact
intermediate-tuple counts of Base and Rewriting, so it repeats exactly.
The script times `train_cart` (regress and classify) on the training pool
and `cross_validate(folds, "regress")`, REPEATS rounds of the three calls,
with the garbage collector off during each call.  It records per call the
median and quartiles in seconds, the repeat count, the machine and the
SHA-256 of both pool models' `model_to_json`, under a side name in
BENCH_cart.json; sides already in the file are kept, so one file holds a
before/after pair measured on the same machine.

    python tools/bench_cart.py --side change
    python tools/bench_cart.py --side parent --src ../parent/src

`--src` imports `smash` from another source tree, such as a checkout of
the parent commit.  Equal SHA-256s across sides mean equal models.
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
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REPEATS = 15
SEED = 42
N_QUERIES = 240


def build_examples():
    """Plan each query from its SQL text and label it by its counts, as the
    benchmark's selector_wide workload does."""
    from smash import acyclic, augmentation, engine, features, frontend, ml, rewriter

    db, queries = augmentation.generate_workload(augmentation.WorkloadSpec(
        seed=SEED, n_base_queries=N_QUERIES, n_relations=(4, 8),
        rows=(20, 60), fanout=(1, 2), shape="random", filter_prob=0.5,
        aggregate_prob=0.5, name_prefix="sw",
    ))
    examples = []
    for qid, spec in queries:
        cq = frontend.normalize(frontend.parse_query(frontend.to_sql(spec)), db)
        tree, _ = acyclic.analyze(cq)
        fv = features.extract_features(
            cq, tree, engine.estimate_cardinalities(cq, db))
        base, rewritten = engine.OpCounter(), engine.OpCounter()
        engine.evaluate_baseline(cq, db, base)
        rewriter.interpret_sequence(rewriter.rewrite(tree, cq, db), cq, db, rewritten)
        examples.append(ml.label(qid, fv, base.intermediate_tuples,
                                 rewritten.intermediate_tuples))
    return examples


def timed(fn, *args, **kwargs):
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start
    finally:
        gc.enable()


def summary(seconds):
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(seconds),
            "max": max(seconds)}


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
    for _ in range(repeats):
        total = 0.0
        for name, call in calls.items():
            _, s = timed(call)
            seconds[name].append(s)
            total += s
        totals.append(total)
    models = {task: ml.train_cart(splits.pool, task=task)
              for task in ("regress", "classify")}
    return {
        "repeats": repeats,
        "seconds": {**{k: summary(v) for k, v in seconds.items()},
                    "total_s": summary(totals)},
        "model_sha256": {task: hashlib.sha256(ml.model_to_json(m).encode()).hexdigest()
                         for task, m in models.items()},
        "n_examples": len(examples),
        "n_pool": len(splits.pool),
        "machine": machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", required=True,
                        help="name to record the run under, e.g. parent or change")
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="source tree to import smash from")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_cart.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    result = measure(REPEATS)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("dataset", f"selector_wide seed {SEED}, {N_QUERIES} queries, "
                      "count labels; pool models and 10-fold regress CV")
    record.setdefault("sides", {})[args.side] = result
    digests = {json.dumps(side["model_sha256"], sort_keys=True)
               for side in record["sides"].values()}
    record["same_models_on_all_sides"] = len(digests) == 1
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.side: result["seconds"]["total_s"],
                      "model_sha256": result["model_sha256"],
                      "same_models_on_all_sides": record["same_models_on_all_sides"]},
                     indent=2))


if __name__ == "__main__":
    main()
