"""A/B timings of two source trees of smash, in alternating subprocess rounds.

    python tools/ab.py {plan,cart,setup,exec} --parent ../parent/src [--out FILE]

compares the parent tree (`--parent`, the `src/` of a checkout such as the
parent commit's) with the change, this repository's `src/`.  Each of ROUNDS
rounds runs one fresh subprocess per side, in alternating order from round
to round (Kalibera and Jones, "Rigorous Benchmarking in Reasonable Time",
ISMM 2013).  The subprocess imports `smash` from its side's tree, and
`bench/clock.py` and the benchmark's workloads (`bench/smashbench.py`, seed
SEED) from this repository.  It runs one measurement:

- plan: the seven planning stages of `harness.plan_query`'s pipeline, per
  query of both workloads, planned from SQL text, and the Python opcodes
  each stage runs per query;
- cart: `train_cart` and 10-fold `cross_validate`, regress and classify,
  on the selector_wide pool;
- setup: the generation of both workloads, as `bench/run.py`'s `setup_s`;
- exec: one Base pass and one Rewriting pass over each regime's queries of
  both workloads, planned untimed, as `bench/run.py`'s `exec_*_ms`.

Every duration is rescaled to reference speed with `bench/clock.py`, with
the garbage collector off.  A measurement returns `values`, each timed
metric of the round, and `exact`, outputs that must repeat: digests, opcode
counts and dataset sizes.  The record (default `BENCH_<measurement>.json`)
is one JSON object:

    measurement, description   the measurement's name and what it times
    rounds, passes, machine    ROUNDS, PASSES and the machine it ran on
    sides.<side>.values.<metric>       median, q1, q3 over the rounds
    sides.<side>.exact                 the outputs every round repeated
    ratio_change_over_parent.<metric>  per_round change / parent, and
                                       their median, q1, q3
    exact_agree.<key>                  whether both sides' exact.<key> agree

A side whose rounds disagree on an `exact` key is an error, not a record.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEED = 42
ROUNDS = 5
PASSES = 5
STAGES = ("parse", "normalize", "analyze", "estimate", "features", "decide",
          "rewrite")


def use_source(src):
    """Import `smash` from the source tree `src`, and the benchmark's clock
    and workloads from `bench/`; fail unless `smash` came from `src`."""
    src = Path(src).resolve()
    sys.path[:0] = [str(src), str(REPO / "bench")]
    import smash

    found = Path(smash.__file__).resolve().parent.parent
    if found != src:
        raise SystemExit(f"smash was imported from {found}, not from {src}")


def workload(name):
    """The benchmark's own workload `name` at SEED: (Database, [(query id,
    SQL text)])."""
    from smash import frontend
    from smashbench import WORKLOADS

    db, queries = WORKLOADS[name].generate(SEED)
    return db, [(qid, frontend.to_sql(spec)) for qid, spec in queries]


def prepared_plans(db, queries):
    """Per (query id, SQL text), untimed: the id, `harness.plan_query`'s
    plan and the Rewriting statement sequence."""
    from smash import frontend, harness, rewriter

    plans = []
    for qid, sql in queries:
        plan = harness.plan_query(frontend.parse_query(sql), db)
        plans.append((qid, plan, rewriter.rewrite(plan.tree, plan.cq, db)))
    return plans


def execute(strategy, db, plan, seq, counter=None):
    """The result of one planned query under `strategy` ("base" or
    "rewriting")."""
    from smash import engine, rewriter

    if strategy == "base":
        return engine.evaluate_baseline(plan.cq, db, counter)
    return rewriter.interpret_sequence(seq, plan.cq, db, counter)


def count_examples(db, queries):
    """One example per (query id, SQL text), labelled by the exact
    intermediate-tuple counts of Base and Rewriting, so the models trained
    on it repeat."""
    from smash import engine, ml

    examples = []
    for qid, plan, seq in prepared_plans(db, queries):
        base, rewritten = engine.OpCounter(), engine.OpCounter()
        execute("base", db, plan, seq, base)
        execute("rewriting", db, plan, seq, rewritten)
        examples.append(ml.label(qid, plan.features, base.intermediate_tuples,
                                 rewritten.intermediate_tuples))
    return examples


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


def workload_digest(db, queries):
    """SHA-256 over every table's name, schema and rows (their repr, in
    order) and every query's id and SQL text."""
    from smash import frontend

    digest = hashlib.sha256()
    for name, rel in db.tables.items():
        digest.update(repr((name, rel.schema, rel.rows)).encode())
    for qid, spec in queries:
        digest.update(repr((qid, frontend.to_sql(spec))).encode())
    return digest.hexdigest()


def alternating_passes(jobs):
    """Each job once, untimed, then PASSES times, the jobs in alternating
    order from pass to pass; per job the list of its PASSES results."""
    order = list(jobs)
    for job in jobs.values():
        job()
    results = {name: [] for name in jobs}
    for p in range(PASSES):
        for name in (order if p % 2 == 0 else order[::-1]):
            results[name].append(jobs[name]())
    return results


def timed(clock, fn):
    """Reference-speed seconds of `fn()`, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        return clock.call(fn)[1]
    finally:
        gc.enable()


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


def per_stage(per_query):
    """Per stage, and the per-query sum as "total": the median over queries."""
    result = {stage: statistics.median(q[i] for q in per_query)
              for i, stage in enumerate(STAGES)}
    result["total"] = statistics.median(sum(q) for q in per_query)
    return result


def opcode_counts(calls, queries):
    """Per query, the Python opcodes each stage runs (`sys.settrace`)."""
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
    return per_query


def measure_plan():
    """Microseconds per planning stage, and their per-query sum ("total"),
    on both workloads: per query the stage's median over the passes (a query
    during which the clock took a reading is left out of that pass), then
    the median over queries.  regress CART on the workload's count labels
    decides.  exact: plan_sha256 over every query's features, decision and
    statement forms; opcodes per stage, median over queries, counted in one
    untimed pass after the timed ones."""
    from clock import Clock
    from smash import ml
    from smashbench import WORKLOADS

    loads, calls, digests = {}, {}, {}
    for name in WORKLOADS:
        db, queries = loads[name] = workload(name)
        model = ml.train_cart(count_examples(db, queries), task="regress")
        calls[name] = stage_calls(db, model)
        digests[name] = plan_digest(db, queries, model)
    with Clock() as clock:
        passes = alternating_passes({
            name: lambda name=name: plan_pass(calls[name], loads[name][1], clock)
            for name in loads})
    values = {}
    for name, timings in passes.items():
        per_query = []
        for query in zip(*timings):
            kept = [t for t in query if t is not None]
            if kept:
                per_query.append([statistics.median(s) for s in zip(*kept)])
        values |= {f"{name}.{stage}_us": s * 1e6 for stage, s in per_stage(per_query).items()}
    opcodes = {name: per_stage(opcode_counts(calls[name], queries))
               for name, (_, queries) in loads.items()}
    return {"values": values, "exact": {"plan_sha256": digests, "opcodes": opcodes}}


def measure_cart():
    """Seconds per call, and their sum per pass ("total_s"), median over the
    passes: train_cart regress and classify on the pool of the count-labelled
    selector_wide queries, and 10-fold regress and classify cross_validate.
    exact: the SHA-256 of both pool models' model_to_json, the per-fold
    cross_validate accuracies of both tasks, and the dataset sizes."""
    from clock import Clock
    from smash import ml

    examples = count_examples(*workload("selector_wide"))
    splits = ml.split_dataset(examples, SEED)
    calls = {
        "train_cart_regress_s": lambda: ml.train_cart(splits.pool, task="regress"),
        "train_cart_classify_s": lambda: ml.train_cart(splits.pool, task="classify"),
        "cross_validate_regress_s": lambda: ml.cross_validate(splits.folds, "regress"),
        "cross_validate_classify_s": lambda: ml.cross_validate(splits.folds, "classify"),
    }
    with Clock() as clock:
        seconds = alternating_passes({name: lambda call=call: timed(clock, call)
                                      for name, call in calls.items()})
    values = {name: statistics.median(s) for name, s in seconds.items()}
    values["total_s"] = statistics.median(map(sum, zip(*seconds.values())))
    models = {task: ml.model_to_json(ml.train_cart(splits.pool, task=task))
              for task in ("regress", "classify")}
    return {"values": values, "exact": {
        "model_sha256": {task: hashlib.sha256(m.encode()).hexdigest()
                         for task, m in models.items()},
        "cv_accuracies": {task: ml.cross_validate(splits.folds, task)
                          for task in ("regress", "classify")},
        "n_examples": len(examples),
        "n_pool": len(splits.pool),
    }}


def measure_setup():
    """Seconds to generate each workload, median over the passes.  exact:
    workload_sha256 over every generated table and query."""
    from clock import Clock
    from smashbench import WORKLOADS

    with Clock() as clock:
        seconds = alternating_passes({
            name: lambda w=w: timed(clock, lambda: w.generate(SEED))
            for name, w in WORKLOADS.items()})
    return {"values": {f"{name}.generate_s": statistics.median(s)
                       for name, s in seconds.items()},
            "exact": {"workload_sha256": {name: workload_digest(*w.generate(SEED))
                                          for name, w in WORKLOADS.items()}}}


def counted_pass(db, plans):
    """Both strategies once per plan with an `OpCounter`: (exact, regimes).

    exact holds per strategy the OpCounter totals and a SHA-256 over every
    query's id and result rows (their sorted reprs, so no hash seed enters
    it), and the number of queries per regime; regimes maps each regime to
    its plans.  A query is in `prune` when Rewriting materialises fewer
    intermediate tuples than Base, in `dense` otherwise, as in
    `bench/smashbench.py`."""
    from dataclasses import asdict

    from smash import engine

    totals, digests, tuples = {}, {}, {}
    for strategy in ("base", "rewriting"):
        total = dict.fromkeys(asdict(engine.OpCounter()), 0)
        digest = hashlib.sha256()
        tuples[strategy] = []
        for qid, plan, seq in plans:
            counter = engine.OpCounter()
            result = execute(strategy, db, plan, seq, counter)
            digest.update(repr((qid, sorted(map(repr, result.rows)))).encode())
            for key, value in asdict(counter).items():
                total[key] += value
            tuples[strategy].append(counter.intermediate_tuples)
        totals[strategy], digests[strategy] = total, digest.hexdigest()
    regimes = {"prune": [], "dense": []}
    for plan, base, rewritten in zip(plans, tuples["base"], tuples["rewriting"]):
        regimes["prune" if rewritten < base else "dense"].append(plan)
    return ({"op_counts": totals, "result_sha256": digests,
             "regime_sizes": {r: len(p) for r, p in regimes.items()}}, regimes)


def measure_exec():
    """Milliseconds per query of one Base pass and one Rewriting pass over
    each regime's queries of both workloads (prune: Rewriting materialises
    fewer intermediate tuples than Base; dense: the rest), median over the
    passes; the plans are made untimed.  exact: per workload, the counted
    pass's OpCounter totals and result SHA-256 per strategy, and the regime
    sizes."""
    from clock import Clock
    from smashbench import WORKLOADS

    exact, jobs, sizes = {}, {}, {}
    for name in WORKLOADS:
        db, queries = workload(name)
        exact[name], regimes = counted_pass(db, prepared_plans(db, queries))
        for regime, plans in regimes.items():
            for strategy in ("base", "rewriting"):
                def run(strategy=strategy, db=db, plans=plans):
                    for _, plan, seq in plans:
                        execute(strategy, db, plan, seq)

                key = f"{name}.{strategy}_{regime}_ms"
                jobs[key], sizes[key] = run, len(plans)
    with Clock() as clock:
        seconds = alternating_passes({key: lambda run=run: timed(clock, run)
                                      for key, run in jobs.items()})
    values = {key: statistics.median(s) * 1e3 / sizes[key] for key, s in seconds.items()}
    keys = ("op_counts", "result_sha256", "regime_sizes")
    return {"values": values,
            "exact": {key: {name: e[key] for name, e in exact.items()} for key in keys}}


MEASUREMENTS = {"plan": measure_plan, "cart": measure_cart, "setup": measure_setup,
                "exec": measure_exec}


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


def run_side(measurement, src):
    """One worker subprocess measuring the tree `src`: the JSON object on
    the last line of its standard output.  Its standard error, a traceback
    included, goes to this process's."""
    cmd = [sys.executable, __file__, measurement, "--worker", str(src)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def alternate(measurement, sources):
    """ROUNDS rounds of one worker per side of `sources` ({side: tree}), in
    alternating order from round to round; per side the results in round
    order."""
    results = {side: [] for side in sources}
    for r in range(ROUNDS):
        for side in (list(sources) if r % 2 == 0 else list(sources)[::-1]):
            result = run_side(measurement, sources[side])
            results[side].append(result)
            print(f"round {r} {side}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in result["values"].items()), file=sys.stderr)
    return results


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def canonical(value):
    return json.dumps(value, sort_keys=True)


def build_record(results):
    """The record's sides, ratios and agreement from the per-side round
    results ({side: [{"values": ..., "exact": ...}, ...]}, sides "parent"
    and "change", rounds in the same order)."""
    sides = {}
    for side, rounds in results.items():
        exact = rounds[0]["exact"]
        for r in rounds:
            for key in exact:
                if canonical(r["exact"][key]) != canonical(exact[key]):
                    raise ValueError(f"{side}: exact output {key!r} differs between rounds")
        sides[side] = {"values": {metric: summary([r["values"][metric] for r in rounds])
                                  for metric in rounds[0]["values"]},
                       "exact": exact}
    parent, change = results["parent"], results["change"]
    ratios = {}
    for metric in parent[0]["values"]:
        per_round = [c["values"][metric] / p["values"][metric]
                     for p, c in zip(parent, change)]
        ratios[metric] = {"per_round": per_round, **summary(per_round)}
    agree = {key: canonical(value) == canonical(sides["change"]["exact"][key])
             for key, value in sides["parent"]["exact"].items()}
    return {"sides": sides, "ratio_change_over_parent": ratios, "exact_agree": agree}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("measurement", choices=MEASUREMENTS)
    parser.add_argument("--parent", type=Path,
                        help="source tree of the parent side, e.g. ../parent/src")
    parser.add_argument("--out", type=Path,
                        help="the record to write (default BENCH_<measurement>.json)")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        use_source(args.worker)
        print(json.dumps(MEASUREMENTS[args.measurement]()))
        return
    if args.parent is None:
        parser.error("--parent is required")
    if not (args.parent / "smash" / "__init__.py").is_file():
        parser.error(f"--parent {args.parent} holds no smash/__init__.py")
    sources = {"parent": args.parent.resolve(), "change": REPO / "src"}
    results = alternate(args.measurement, sources)
    record = {
        "measurement": args.measurement,
        "description": " ".join(MEASUREMENTS[args.measurement].__doc__.split()),
        "rounds": ROUNDS,
        "passes": PASSES,
        "machine": machine(),
        **build_record(results),
    }
    out = args.out or REPO / f"BENCH_{args.measurement}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"ratio_median": {metric: r["median"] for metric, r
                                       in record["ratio_change_over_parent"].items()},
                      "exact_agree": record["exact_agree"]}, indent=2))


if __name__ == "__main__":
    main()
