"""One measured run of the smash pipeline on a seeded workload.

The benchmark owns its clock: it calls the public functions of the smash
layers itself and times each call, so nothing inside `harness` decides what
is measured.  Every time it reports is a `clock.Clock` time: perf_counter
seconds rescaled to a fixed reference speed of the machine.  A run goes
through these steps:

1. set-up: generate the workload three times (`setup_s` is the median);
2. plan every query once from its SQL text, untimed, for the later steps;
3. a counted pass: both strategies once per query with an `OpCounter`,
   giving the exact counts, the result digests and each query's regime;
4. timed execution passes over all queries and both strategies, repeated
   until `seconds` have passed (at least three passes);
5. the selector pipeline: run log -> `build_dataset` -> `split_dataset` ->
   training -> `harness.smash_e2e`, as `smash e2e` does it, each step timed
   on its own; then, untimed, two regress CARTs on halves of the dataset
   give every query a choice made without seeing it;
6. timed planning passes: SQL text -> parse -> normalize -> analyze ->
   estimate -> features -> decide -> rewrite, for every query;
7. the counted pass once more, untimed: every count must repeat;
8. the independent oracle: the tables loaded into stdlib `sqlite3`, each
   query's original SQL run there, and every result compared as a multiset.

With tracing on, every second execution and planning pass runs with the
`spans.Tracer` installed; the per-layer metrics come from those passes and
the tracing overhead is the difference to the untraced ones.

A query's regime is read off its exact counts: `prune` when Rewriting
materialises fewer intermediate tuples than Base (semi-joins remove
dangling rows), `dense` otherwise (rows mostly join).  On `two_regime` this
splits the 120 star queries from the 120 chain queries.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import platform
import random
import resource
import sqlite3
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from smash import (
    acyclic, augmentation, engine, features, frontend, harness, ml, rewriter,
    stats_tests,
)
from clock import REFERENCE_S, Clock
from spans import END, NAME, PARENT, QID, ROWS, SCALE, START, TAG, Tracer

BASE, REWRITING = harness.BASE, harness.REWRITING
STRATEGIES = (BASE, REWRITING)
REGIMES = ("prune", "dense")
N_QUERIES = 240
SETUP_REPEATS = 3
MIN_EXEC_PASSES = 3
MIN_PLAN_PASSES = 10
PLAN_SHARE = 0.25  # planning passes run for this share of --seconds
SWEEP_GRID = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SRC_DIR = BENCH_DIR.parent / "src" / "smash"


@dataclass(frozen=True)
class Workload:
    generate: object  # seed -> (Database, [(query id, QuerySpec)])
    # "time": the selector learns from measured medians, as `smash e2e`
    # does; "count": from intermediate-tuple counts, so its dataset, models
    # and CV accuracy repeat exactly
    labels: str
    # train classify + regress CART, regress CV, k-NN, sweep, importances and the
    # paired tests inside train_s; otherwise only the regress CART is timed
    full_ml: bool


WORKLOADS = {
    "two_regime": Workload(
        lambda seed: augmentation.generate_two_regime_workload(seed, N_QUERIES),
        labels="time", full_ml=False,
    ),
    "selector_wide": Workload(
        lambda seed: augmentation.generate_workload(augmentation.WorkloadSpec(
            seed=seed, n_base_queries=N_QUERIES, n_relations=(4, 8),
            rows=(20, 60), fanout=(1, 2), shape="random", filter_prob=0.5,
            aggregate_prob=0.5, name_prefix="sw",
        )),
        labels="count", full_ml=True,
    ),
}


def _suffixes(strategies, regimes):
    return [f"{s.lower()}.{r}" for s in strategies for r in regimes]


# (name, unit, better, meaning)
END_TO_END = [
    ("setup_s", "s", "lower", "workload generation, median of three"),
    *[(f"exec_{s}_{r}_ms", "ms", "lower",
       f"per-query median time of {s}, averaged over the {r} regime's queries")
      for s in ("base", "rewriting") for r in REGIMES],
    ("smash_total_s", "s", "lower",
     "all queries, each decided out of sample by a 2-fold regress CART, "
     "plus measured decision latency"),
    ("smash_over_oracle", "ratio", "lower",
     "smash_total_s over the per-query best strategy's total"),
    ("plan_p50_us", "us", "lower", "per-query planning time, median"),
    ("plan_p95_us", "us", "lower", "per-query planning time, 95th percentile"),
    ("train_s", "s", "lower", "selector training"),
    ("e2e_wall_s", "s", "lower",
     "one execution pass + one planning pass + the selector pipeline"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory before the oracle"),
]

_EXEC = "exec_base_*_ms / exec_rewriting_*_ms"
_PLAN = "plan_p50_us / plan_p95_us"
# (name, unit, better, end-to-end metric it should move)
PER_LAYER = [
    ("augmentation.generate_s", "s", "lower", "setup_s"),
    ("frontend.parse_us", "us", "lower", _PLAN),
    ("frontend.normalize_us", "us", "lower", _PLAN),
    ("acyclic.analyze_us", "us", "lower", _PLAN),
    ("engine.estimate_us", "us", "lower", "plan_p95_us"),
    ("features.extract_us", "us", "lower", _PLAN),
    ("ml.predict_us", "us", "lower", _PLAN),
    ("rewriter.emit_us", "us", "lower", _PLAN),
    *[(f"engine.{op}_s.{sfx}", "s", "lower", _EXEC)
      for op in ("atom_relation", "natural_join")
      for sfx in _suffixes(STRATEGIES, REGIMES)],
    *[(f"engine.semi_join_s.{sfx}", "s", "lower", _EXEC)
      for sfx in _suffixes((REWRITING,), REGIMES)],
    *[(f"engine.{op}_s.{s.lower()}", "s", "lower", _EXEC)
      for op in ("group_aggregate", "project") for s in STRATEGIES],
    *[(f"rewriter.interpret_self_s.{r}", "s", "lower", _EXEC) for r in REGIMES],
    *[(f"engine.{c}.{sfx}", "count", "lower", _EXEC)
      for c in ("joins", "intermediate_tuples", "intermediate_per_result")
      for sfx in _suffixes(STRATEGIES, REGIMES)],
    *[(f"engine.semijoins.{sfx}", "count", "lower", _EXEC)
      for sfx in _suffixes((REWRITING,), REGIMES)],
    *[(f"rewriter.statements.{r}", "count", "lower", _EXEC) for r in REGIMES],
    *[(f"engine.qerror_{p}.{r}", "ratio", "lower", "smash_over_oracle")
      for p in ("p50", "p90") for r in REGIMES],
    ("ml.train_cart_regress_s", "s", "lower", "train_s"),
    ("ml.train_cart_classify_s", "s", "lower", "train_s"),
    ("ml.cross_validate_s", "s", "lower", "train_s"),
    ("ml.train_knn_s", "s", "lower", "train_s"),
    ("stats_tests.wilcoxon_ms", "ms", "lower", "train_s"),
    ("stats_tests.paired_t_ms", "ms", "lower", "train_s"),
    ("ml.cv_accuracy", "ratio", "higher", "smash_over_oracle"),
    ("harness.build_dataset_s", "s", "lower", "e2e_wall_s"),
    ("harness.smash_e2e_s", "s", "lower", "e2e_wall_s"),
    # no better or worse direction: the split between the two strategies
    # is the research signal, so "better" is nominal for these two
    ("harness.rewrite_win_share", "ratio", "higher", "none (reported only)"),
    ("harness.rewriting_slowdown_fraction", "ratio", "lower",
     "none (reported only)"),
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced e2e_wall_s)"),
]

_PLAN_LAYERS = {  # metric -> top-level span in a planning pass
    "frontend.parse_us": "frontend.parse_query",
    "frontend.normalize_us": "frontend.normalize",
    "acyclic.analyze_us": "acyclic.analyze",
    "engine.estimate_us": "engine.estimate_cardinalities",
    "features.extract_us": "features.extract_features",
    "ml.predict_us": "ml.decide",
    "rewriter.emit_us": "rewriter.rewrite",
}
_EXEC_OPS = {  # metric -> spans whose layer self time it sums
    "atom_relation": ("engine.atom_relation",),
    "natural_join": ("engine.natural_join",),
    "semi_join": ("engine.semi_join",),
    "group_aggregate": ("engine.group_aggregate",),
    "project": ("engine.project", "engine.project_columns"),
}


@dataclass
class Query:
    qid: str
    sql: str  # the generated query as SQL text: the planner's and sqlite's input
    spec: object = None
    cq: object = None
    tree: object = None
    seq: object = None
    fv: object = None
    est_joins: list = None
    regime: str = None
    decision: str = None  # the pool model's, from the planning passes
    digest: dict = field(default_factory=dict)  # strategy -> result digest
    counts: dict = field(default_factory=dict)  # strategy -> OpCounter
    result_rows: dict = field(default_factory=dict)
    matched: dict = field(default_factory=lambda: dict.fromkeys(STRATEGIES, 0))
    # reference-speed seconds, one per untraced pass
    times: dict = field(default_factory=lambda: {s: [] for s in STRATEGIES})
    plan_s: list = field(default_factory=list)
    decide_s: list = field(default_factory=list)


def _digest(rows):
    """Order-independent multiset digest, comparable within one process."""
    return hash(frozenset(Counter(rows).items()))


# both return 0.0 for no values, which happens only in a run that also
# reports correct=false (an empty regime, or every plan failing)
def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if ordered else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _execute(q, strategy, db, counter=None):
    if strategy == BASE:
        return engine.evaluate_baseline(q.cq, db, counter)
    return rewriter.interpret_sequence(q.seq, q.cq, db, counter)


class Bench:
    def __init__(self, workload, seed, seconds, trace):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failed operations
        self.check_failures = []  # self-checks of the benchmark that failed
        # reference-speed seconds of each pass, by kind and traced or not
        self.pass_s = {"exec": {False: [], True: []}, "plan": {False: [], True: []}}
        self.raw_exec_pass_s = []
        self.info = {}

    # -- bookkeeping --------------------------------------------------------

    def _fail(self, message, count=1):
        self.failed += count
        self.problems.append(message)

    def _problem(self, message):
        self.check_failures.append(message)

    def _tracing(self, on):
        if on and not self.tracer.installed:
            self.tracer.install()
        elif not on and self.tracer.installed:
            self.tracer.remove()

    # -- steps ---------------------------------------------------------------

    def setup(self):
        self._tracing(self.trace)
        times = []
        for i in range(SETUP_REPEATS):
            gc.collect()
            gc.disable()
            try:
                self.tracer.context(None, "setup", self.clock.scale())
                generated, seconds, _ = self.clock.call(self.workload.generate, self.seed)
            finally:
                gc.enable()
            times.append(seconds)
            if i == 0:
                self.db, queries = generated
            del generated
        self._tracing(False)
        self.setup_s = statistics.median(times)
        self.queries = [Query(qid, frontend.to_sql(spec)) for qid, spec in queries]

    def prepare(self):
        """Untimed plans, then the counted pass that fixes digests and regimes."""
        for q in self.queries:
            q.spec = frontend.parse_query(q.sql)
            q.cq = frontend.normalize(q.spec, self.db)
            q.tree, _ = acyclic.analyze(q.cq)
            est = engine.estimate_cardinalities(q.cq, self.db)
            q.est_joins = est.join_rows
            q.fv = features.extract_features(q.cq, q.tree, est)
            q.seq = rewriter.rewrite(q.tree, q.cq, self.db)
        for q in self.queries:
            for strategy in STRATEGIES:
                counter, result = self._count(q, strategy)
                q.counts[strategy] = counter
                q.digest[strategy] = None if result is None else _digest(result.rows)
                q.result_rows[strategy] = 0 if result is None else len(result.rows)
                q.matched[strategy] += result is not None
            counts = [q.counts[s] for s in STRATEGIES]
            prune = None not in counts and (
                counts[1].intermediate_tuples < counts[0].intermediate_tuples)
            q.regime = "prune" if prune else "dense"
        for r in REGIMES:
            if not any(q.regime == r for q in self.queries):
                self._problem(f"no query is in the {r} regime")

    def _count(self, q, strategy):
        """One untimed execution with an OpCounter; (None, None) if it raised."""
        counter = engine.OpCounter()
        self.attempted += 1
        try:
            return counter, _execute(q, strategy, self.db, counter)
        except Exception as exc:  # recorded and counted as failed
            self._fail(f"{q.qid} {strategy} raised {exc!r}")
            return None, None

    def recount(self):
        """The counted pass once more: every OpCounter field must repeat."""
        for q in self.queries:
            for strategy in STRATEGIES:
                counter, _ = self._count(q, strategy)
                if None not in (counter, q.counts[strategy]) and counter != q.counts[strategy]:
                    self._problem(f"{q.qid} {strategy}: counts differ between counted passes")

    def exec_passes(self):
        start = time.perf_counter()
        n = 0
        # a traced run alternates traced and untraced passes: one more pass
        while n < MIN_EXEC_PASSES + self.trace or (
                time.perf_counter() - start < self.seconds):
            traced = self.trace and n % 2 == 1
            self._tracing(traced)
            total = raw_total = 0.0
            gc.collect()
            gc.disable()  # collector pauses are noise at query scale
            try:
                for q in self.queries:
                    for strategy in STRATEGIES:
                        self.tracer.context(q.qid, strategy, self.clock.scale())
                        self.attempted += 1
                        mark = self.clock.mark()
                        try:
                            result = _execute(q, strategy, self.db)
                        except Exception as exc:  # recorded and counted as failed
                            self._fail(f"{q.qid} {strategy} raised {exc!r}")
                            continue
                        seconds, raw = self.clock.since(mark)
                        total += seconds
                        raw_total += raw
                        if not traced:
                            q.times[strategy].append(seconds)
                        if _digest(result.rows) == q.digest[strategy]:
                            q.matched[strategy] += 1
                        else:
                            self._fail(f"{q.qid} {strategy}: result changed")
            finally:
                gc.enable()
            self.pass_s["exec"][traced].append(total)
            if not traced:
                self.raw_exec_pass_s.append(raw_total)
            n += 1
        self._tracing(False)

    def pipeline(self):
        """Run log -> dataset -> split -> training -> smash_e2e, step by step."""
        log = harness.RunLog(config=harness.RunConfig(seed=self.seed))
        for q in self.queries:
            for strategy in STRATEGIES:
                times = q.times[strategy]
                if self.workload.labels == "count":
                    value = q.counts[strategy].intermediate_tuples
                else:  # the median of the benchmark's passes, not harness's mean
                    value = statistics.median(times)
                log.entries.append(harness.RunEntry(
                    q.qid, strategy, rep_times_s=list(times), mean_s=value))
        self._tracing(self.trace)
        self.pipeline_s = self.train_s = 0.0
        examples = self._step("pipeline", harness.build_dataset, log,
                              {q.qid: q.fv for q in self.queries})
        splits = self._step("pipeline", ml.split_dataset, examples, self.seed)
        models = {"regress": self._step("regress", ml.train_cart, splits.pool,
                                        task="regress", train=True)}
        if self.workload.full_ml:
            models.update(self._ml_suite(splits, models["regress"]))
        test_ids = {e.query_id for e in splits.test}
        test = [(q.qid, q.spec) for q in self.queries if q.qid in test_ids]
        report = self._step("pipeline", harness.smash_e2e, self.db, test,
                            models["regress"], 0.0, log)
        if self.trace and not self.workload.full_ml:
            # per-layer coverage only, so kept out of train_s and e2e_wall_s
            timed = self.pipeline_s, self.train_s
            self._ml_suite(splits, models["regress"])
            self.pipeline_s, self.train_s = timed
        self._cross_fit(examples)
        self._tracing(False)

        self.model = models["regress"]
        self.rewrite_win_share = sum(e.class_label for e in examples) / len(examples)
        self.rewriting_slowdown = report.strategies[REWRITING].slowdown_fraction
        best = sum(min(log.entry(i, BASE).mean_s, log.entry(i, REWRITING).mean_s)
                   for i, _ in test)
        if report.n_queries != len(test) or not np.isclose(
                report.strategies["OracleBest"].total_seconds, best, rtol=1e-12):
            self._problem("harness.smash_e2e totals disagree with the run log")
        if self.workload.full_ml:
            self.info["model_sha256"] = {
                task: hashlib.sha256(ml.model_to_json(m).encode()).hexdigest()
                for task, m in models.items()}

    def _step(self, tag, fn, *args, train=False, **kwargs):
        """One timed call of the selector pipeline, collector off as in
        every timed region; adds its time to pipeline_s (and train_s)."""
        self.tracer.context(None, tag, self.clock.scale())
        gc.collect()
        gc.disable()
        try:
            result, seconds, _ = self.clock.call(fn, *args, **kwargs)
        finally:
            gc.enable()
        self.pipeline_s += seconds
        if train:
            self.train_s += seconds
        return result

    def _ml_suite(self, splits, regress):
        step = functools.partial(self._step, "ml", train=True)
        classify = self._step("classify", ml.train_cart, splits.pool,
                              task="classify", train=True)
        # regress, the model smash e2e deploys; accuracies are of its sign
        accuracies = step(ml.cross_validate, splits.folds, task="regress")
        step(ml.train_knn, splits.pool)
        step(ml.threshold_sweep, regress, splits.validation, SWEEP_GRID)
        step(ml.gini_importances, classify)
        step(ml.gini_importances, regress)
        sample = stats_tests.PairedSample([e.t_original for e in splits.pool],
                                          [e.t_rewritten for e in splits.pool])
        step(stats_tests.wilcoxon_signed_rank, sample)
        step(stats_tests.paired_t_test, sample)
        self.cv_accuracy = sum(accuracies) / len(accuracies)
        return {"classify": classify}

    def _cross_fit(self, examples):
        """Out-of-sample choices for every query, untimed: two halves, each
        decided by a regress CART trained on the other.  The 24-query test
        split alone varies too much from seed to seed to be a metric."""
        self.tracer.context(None, "crossfit")
        shuffled = list(examples)
        random.Random(self.seed).shuffle(shuffled)
        halves = (shuffled[::2], shuffled[1::2])
        self.choice = {}
        for train, held in (halves, halves[::-1]):
            model = ml.train_cart(train, task="regress")
            for e in held:
                self.choice[e.query_id] = ml.decide(model, e.features, 0.0)

    def plan_passes(self):
        db, model = self.db, self.model
        start = time.perf_counter()
        n = 0
        while n < MIN_PLAN_PASSES or (
                time.perf_counter() - start < self.seconds * PLAN_SHARE):
            traced = self.trace and n % 2 == 1
            self._tracing(traced)
            total = 0.0
            gc.collect()
            gc.disable()
            try:
                for q in self.queries:
                    self.tracer.context(q.qid, "plan", self.clock.scale())
                    self.attempted += 1
                    mark = self.clock.mark()
                    try:
                        spec = frontend.parse_query(q.sql)
                        cq = frontend.normalize(spec, db)
                        tree, _ = acyclic.analyze(cq)
                        est = engine.estimate_cardinalities(cq, db)
                        fv = features.extract_features(cq, tree, est)
                        decision = ml.decide(model, fv, 0.0)
                        decided, _ = self.clock.since(mark)
                        seq = rewriter.rewrite(tree, cq, db)
                        planned, _ = self.clock.since(mark)
                    except Exception as exc:  # recorded and counted as failed
                        self._fail(f"{q.qid} plan raised {exc!r}")
                        continue
                    total += planned
                    if not traced:
                        q.decide_s.append(decided)
                        q.plan_s.append(planned)
                    q.decision = q.decision or decision
                    if (decision != q.decision or fv != q.fv
                            or len(seq.statements) != len(q.seq.statements)):
                        self._fail(f"{q.qid}: plan differs between passes")
            finally:
                gc.enable()
            self.pass_s["plan"][traced].append(total)
            n += 1
        self._tracing(False)

    def oracle_check(self):
        """Original SQL on sqlite3; a wrong digest fails every run that gave it."""
        conn = sqlite3.connect(":memory:")
        try:
            for rel in self.db.tables.values():
                cols = ", ".join(f'"{c}"' for c in rel.schema)
                marks = ", ".join("?" * len(rel.schema))
                conn.execute(f'CREATE TABLE "{rel.name}" ({cols})')
                conn.executemany(f'INSERT INTO "{rel.name}" VALUES ({marks})',
                                 rel.rows)
            for q in self.queries:
                try:
                    expected = _digest(conn.execute(q.sql).fetchall())
                except Exception as exc:  # recorded and counted as failed
                    self._fail(f"{q.qid} sqlite3 raised {exc!r}", sum(q.matched.values()))
                    continue
                for strategy in STRATEGIES:
                    if q.digest[strategy] is not None and q.digest[strategy] != expected:
                        self._fail(f"{q.qid} {strategy}: differs from sqlite3",
                                   q.matched[strategy])
        finally:
            conn.close()

    # -- metrics -------------------------------------------------------------

    def end_to_end(self):
        median = statistics.median
        m = {"setup_s": self.setup_s}
        for s in STRATEGIES:
            for r in REGIMES:
                # a mean, not a sum: on selector_wide the number of queries
                # in a regime changes from seed to seed
                times = [median(q.times[s]) for q in self.queries
                         if q.regime == r and q.times[s]]
                m[f"exec_{s.lower()}_{r}_ms"] = _mean(times) * 1e3
                self.info[f"exec_pass_{s.lower()}_{r}_s"] = sum(times)
        plan_us = [median(q.plan_s) * 1e6 for q in self.queries if q.plan_s]
        smash = best = 0.0
        for q in self.queries:
            if q.qid not in self.choice or not (q.decide_s and all(q.times.values())):
                continue
            t = {s: median(q.times[s]) for s in STRATEGIES}
            chosen = REWRITING if self.choice[q.qid] == ml.REWRITTEN else BASE
            smash += t[chosen] + median(q.decide_s)
            best += min(t.values())
        m["smash_total_s"] = smash
        m["smash_over_oracle"] = smash / best if best else 0.0
        m["plan_p50_us"] = _nearest_rank(plan_us, 50)
        m["plan_p95_us"] = _nearest_rank(plan_us, 95)
        m["train_s"] = self.train_s
        m["e2e_wall_s"] = self._e2e_wall(False)
        m["peak_rss_mb"] = self.peak_rss_mb
        return m

    def _e2e_wall(self, traced):
        return (statistics.median(self.pass_s["exec"][traced])
                + statistics.median(self.pass_s["plan"][traced]) + self.pipeline_s)

    def counts(self):
        m = {}
        for r in REGIMES:
            qs = [q for q in self.queries if q.regime == r]
            m[f"rewriter.statements.{r}"] = sum(len(q.seq.statements) for q in qs)
            for s in STRATEGIES:
                sfx = f"{s.lower()}.{r}"
                counters = [q.counts[s] for q in qs if q.counts[s] is not None]
                tuples = sum(c.intermediate_tuples for c in counters)
                rows = sum(q.result_rows[s] for q in qs)
                m[f"engine.joins.{sfx}"] = sum(c.joins for c in counters)
                m[f"engine.intermediate_tuples.{sfx}"] = tuples
                m[f"engine.intermediate_per_result.{sfx}"] = tuples / rows if rows else 0.0
                if s == REWRITING:
                    m[f"engine.semijoins.{sfx}"] = sum(c.semijoins for c in counters)
        return m

    def per_layer(self):
        """Span self times in reference-speed units, per traced pass or query."""
        spans = self.tracer.spans
        self_ns = self.tracer.layer_self_ns()
        regime = {q.qid: q.regime for q in self.queries}
        total = defaultdict(float)  # (span name, tag, regime) -> layer self ns
        for span, ns in zip(spans, self_ns):
            total[span[NAME], span[TAG], regime.get(span[QID])] += ns * span[SCALE]

        def sum_ns(names, tags, regimes=(None,) + REGIMES):
            return sum(total[n, t, r] for n in names for t in tags for r in regimes)

        n_exec = len(self.pass_s["exec"][True])
        n_plan = len(self.pass_s["plan"][True]) * len(self.queries)
        m = {}
        gen = [(s[END] - s[START]) * s[SCALE] for s in spans
               if s[TAG] == "setup" and s[PARENT] < 0]
        m["augmentation.generate_s"] = statistics.median(gen) / 1e9
        for metric, name in _PLAN_LAYERS.items():
            m[metric] = sum_ns([name], ["plan"]) / n_plan / 1e3
        for op, names in _EXEC_OPS.items():
            for s in STRATEGIES:
                if op == "semi_join" and s == BASE:
                    continue
                if op in ("group_aggregate", "project"):
                    m[f"engine.{op}_s.{s.lower()}"] = sum_ns(names, [s]) / n_exec / 1e9
                    continue
                for r in REGIMES:
                    m[f"engine.{op}_s.{s.lower()}.{r}"] = (
                        sum_ns(names, [s], [r]) / n_exec / 1e9)
        for r in REGIMES:
            m[f"rewriter.interpret_self_s.{r}"] = (
                sum_ns(["rewriter.interpret_sequence"], [REWRITING], [r]) / n_exec / 1e9)
        m.update(self.counts())
        m.update(self._qerror())
        for metric, name, tag, scale in (
                ("ml.train_cart_regress_s", "ml.train_cart", "regress", 1e9),
                ("ml.train_cart_classify_s", "ml.train_cart", "classify", 1e9),
                ("ml.cross_validate_s", "ml.cross_validate", "ml", 1e9),
                ("ml.train_knn_s", "ml.train_knn", "ml", 1e9),
                ("stats_tests.wilcoxon_ms", "stats_tests.wilcoxon_signed_rank", "ml", 1e6),
                ("stats_tests.paired_t_ms", "stats_tests.paired_t_test", "ml", 1e6),
                ("harness.build_dataset_s", "harness.build_dataset", "pipeline", 1e9),
                ("harness.smash_e2e_s", "harness.smash_e2e", "pipeline", 1e9)):
            m[metric] = sum_ns([name], [tag]) / scale
        m["ml.cv_accuracy"] = self.cv_accuracy
        m["harness.rewrite_win_share"] = self.rewrite_win_share
        m["harness.rewriting_slowdown_fraction"] = self.rewriting_slowdown
        m["trace.overhead_s"] = self._e2e_wall(True) - self._e2e_wall(False)
        self._check_span_counts(spans)
        return m

    def _qerror(self):
        """Estimated vs actual left-deep prefix sizes from traced Base joins."""
        actual = defaultdict(list)
        for span in self.tracer.spans:
            if span[NAME] == "engine.natural_join" and span[TAG] == BASE:
                actual[span[QID]].append(span[ROWS])
        errors = {r: [] for r in REGIMES}
        for q in self.queries:
            for est, act in zip(q.est_joins, actual[q.qid]):
                est, act = max(est, 1.0), max(act, 1)
                errors[q.regime].append(max(est / act, act / est))
        m = {}
        for r in REGIMES:
            m[f"engine.qerror_p50.{r}"] = statistics.median(errors[r] or [0.0])
            m[f"engine.qerror_p90.{r}"] = _nearest_rank(errors[r], 90)
        return m

    def _check_span_counts(self, spans):
        """Joins, semi-joins and their output rows seen by the tracer in
        every traced pass must equal the OpCounter totals of the counted pass."""
        seen = Counter()
        regime = {q.qid: q.regime for q in self.queries}
        for span in spans:
            if span[TAG] in STRATEGIES and span[NAME] in (
                    "engine.natural_join", "engine.semi_join"):
                key = (span[TAG], regime[span[QID]])
                seen[key + (span[NAME],)] += 1
                seen[key + ("rows",)] += span[ROWS]
        n = len(self.pass_s["exec"][True])
        for q in self.queries:
            for s in STRATEGIES:
                c = q.counts[s]
                if c is None:
                    continue
                seen[s, q.regime, "engine.natural_join"] -= n * c.joins
                seen[s, q.regime, "engine.semi_join"] -= n * c.semijoins
                seen[s, q.regime, "rows"] -= n * c.intermediate_tuples
        if any(seen.values()):
            self._problem("traced operator counts differ from OpCounter")

    def check_exact(self, values):
        """Exact values must repeat across runs of the same program,
        benchmark and seed."""
        source = hashlib.sha256()
        for path in sorted(SRC_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
            source.update(path.read_bytes())
        path = OUT_DIR / f"exact-{self.name}-seed{self.seed}-{source.hexdigest()[:16]}.json"
        if path.exists():
            earlier = json.loads(path.read_text())
            changed = sorted(k for k in values.keys() & earlier.keys()
                             if earlier[k] != values[k])
            if changed:
                self._problem(f"exact values changed between runs: {changed}")
            values = {**earlier, **values}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(values, sort_keys=True, indent=1))
        os.replace(tmp, path)


def machine():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sqlite": sqlite3.sqlite_version,
        "machine": platform.machine(),
    }


def run(workload, seed, seconds, trace):
    """One benchmark run; returns the result record (see run.py)."""
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(workload, seed, seconds, trace)
    with bench.clock:
        bench.setup()
        bench.prepare()
        bench.exec_passes()
        bench.pipeline()
        bench.plan_passes()
    bench.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bench.recount()
    bench.oracle_check()

    exact = bench.counts()
    if bench.workload.labels == "count":
        exact["harness.rewrite_win_share"] = bench.rewrite_win_share
        exact["ml.cv_accuracy"] = bench.cv_accuracy
        exact.update({f"model_sha256.{k}": v
                      for k, v in bench.info["model_sha256"].items()})
    metrics = bench.per_layer() if trace else bench.end_to_end()
    if trace:
        exact.update({k: v for k, v in metrics.items()
                      if k.startswith("engine.qerror")})
        bench.tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    bench.check_exact(exact)

    units = {name: unit for name, unit, *_ in (PER_LAYER if trace else END_TO_END)}
    references = bench.clock.references
    bench.info.update({
        "workload": workload, "seed": seed, "trace": trace,
        "machine": machine(),
        "failed_share": bench.failed / bench.attempted,
        "queries_per_regime": dict(Counter(q.regime for q in bench.queries)),
        "exec_passes": len(bench.pass_s["exec"][False]),
        "plan_passes": len(bench.pass_s["plan"][False]),
        "exec_pass_s": statistics.median(bench.pass_s["exec"][False]),
        "exec_pass_raw_s": statistics.median(bench.raw_exec_pass_s),
        "plan_pass_s": statistics.median(bench.pass_s["plan"][False]),
        "pipeline_s": bench.pipeline_s,
        "reference_ms": {"nominal": REFERENCE_S * 1e3,
                         "min": min(references) * 1e3,
                         "median": statistics.median(references) * 1e3,
                         "max": max(references) * 1e3,
                         "readings": len(references)},
    })
    return {
        "correct": bench.failed == 0 and not bench.check_failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "info": bench.info,
        "problems": bench.problems[:20],
        "check_failures": bench.check_failures,
    }
