"""Timing harness and end-to-end strategy comparison.

Every query is planned once through `plan_query`, the one decision
pipeline.  Both strategies' statement lists are then built untimed, and
each runs in the one loop that executes plans, `engine._run`, with one
discarded warm-up run and five timed repetitions (arithmetic mean
reported).  The timeout is checked only after a run returns: a run that
took longer marks the entry timed out and charges exactly the timeout,
but nothing stops a runaway query while it runs (enforcing deadlines
inside that loop is ROADMAP item 18).  The end-to-end
report compares Base, Rewriting, the learned SMASH selector (charged the
chosen strategy's measured mean plus the measured decision latency), and
the per-query oracle best, and splits the decision latency into its
normalize, analyze, estimate, features and predict stages.
Timed repetitions and each query's decision run with the garbage collector
off, so neither includes a collector pause.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .acyclic import JoinTree, analyze
from .engine import (
    Database,
    EstimateSet,
    _base_plan,
    _run,
    estimate_cardinalities,
)
from .errors import SmashError, from_fields, json_object
from .features import FeatureVector, extract_features
from .frontend import NormalizedCQ, normalize
from .ml import REWRITTEN, decide, label
from .rewriter import rewrite

BASE = "Base"
REWRITING = "Rewriting"
STRATEGIES = (BASE, REWRITING)


@dataclass
class RunConfig:
    repeats: int = 5
    timeout_s: float = 100.0
    seed: int = 42


@dataclass
class RunEntry:
    query_id: str
    strategy: str
    warmup_s: float = 0.0
    rep_times_s: list = field(default_factory=list)
    mean_s: float = 0.0
    timed_out: bool = False
    skipped: bool = False
    reason: str | None = None


@dataclass
class RunLog:
    """Entries in run order.  Callers may append to `entries` or replace
    the list; entries already looked up must not be edited or removed.
    `features` holds the feature vector `run_workload` planned for each
    query it could plan, by query id; it is not saved."""

    config: RunConfig
    entries: list = field(default_factory=list)
    features: dict = field(default_factory=dict, repr=False, compare=False)
    # (query id, strategy) -> first such entry, over entries[:_n_indexed]
    _index: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _indexed: list | None = field(default=None, init=False, repr=False,
                                  compare=False)
    _n_indexed: int = field(default=0, init=False, repr=False, compare=False)

    def entry(self, query_id, strategy):
        if self._indexed is not self.entries:
            self._index, self._indexed, self._n_indexed = {}, self.entries, 0
        for e in self.entries[self._n_indexed:]:
            self._index.setdefault((e.query_id, e.strategy), e)
        self._n_indexed = len(self.entries)
        return self._index.get((query_id, strategy))

    def query_ids(self):
        return list(dict.fromkeys(e.query_id for e in self.entries))

    def to_json(self):
        return json.dumps(
            {
                "config": {
                    "repeats": self.config.repeats,
                    "timeout_s": self.config.timeout_s,
                    "seed": self.config.seed,
                },
                "entries": [vars(e) for e in self.entries],
            },
            sort_keys=True,
            indent=2,
        )

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path):
        """The run log `save` wrote to `path`.  Invalid JSON, keys other
        than config and entries, entries that are not a list, or a config
        or entry with a missing or unknown field raises SmashError naming
        the file."""
        payload = json_object(path, "run log fields")
        if sorted(payload) != ["config", "entries"]:
            raise SmashError(
                f"{path}: a run log has the keys config and entries, "
                f"not {', '.join(sorted(payload)) or 'none'}")
        if not isinstance(payload["entries"], list):
            raise SmashError(f"{path}: entries is not a JSON list")
        log = cls(config=from_fields(RunConfig, payload["config"], path))
        log.entries = [from_fields(RunEntry, e, path) for e in payload["entries"]]
        return log


def _timed(fn, config: RunConfig) -> RunEntry:
    entry = RunEntry(query_id="", strategy="")
    start = time.perf_counter()
    fn()
    entry.warmup_s = time.perf_counter() - start
    if entry.warmup_s > config.timeout_s:
        entry.timed_out = True
        entry.mean_s = config.timeout_s
        return entry
    # collector pauses are noise at millisecond query scales
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(config.repeats):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            entry.rep_times_s.append(elapsed)
            if elapsed > config.timeout_s:
                entry.timed_out = True
                entry.mean_s = config.timeout_s
                return entry
    finally:
        if gc_was_enabled:
            gc.enable()
    entry.mean_s = sum(entry.rep_times_s) / len(entry.rep_times_s)
    return entry


DECISION_STAGES = ("normalize", "analyze", "estimate", "features", "predict")


class _Plan(NamedTuple):
    cq: NormalizedCQ
    tree: JoinTree
    est: EstimateSet
    features: FeatureVector
    decision: str | None  # None when planned without a model
    # perf_counter before normalize and after each DECISION_STAGES stage
    marks: tuple


def plan_query(spec, db: Database, model=None, threshold=0.0) -> _Plan:
    """Normalize -> analyze -> estimate -> features -> decide, once.

    Returns every stage's output and the six stage-boundary timestamps, so
    a query's stages add up to its decision latency exactly.  The stages
    run with the garbage collector off, and its earlier state is restored
    after, also when a stage raises; the record is built after the last
    timestamp.  A stage's `SmashError`, such as the one for a cyclic
    query or a non-finite feature, propagates.
    """
    clock = time.perf_counter
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        cq = normalize(spec, db)
        t1 = clock()
        tree, _ = analyze(cq)
        t2 = clock()
        est = estimate_cardinalities(cq, db)
        t3 = clock()
        fv = extract_features(cq, tree, est)
        t4 = clock()
        choice = None if model is None else decide(model, fv, threshold)
        t5 = clock()
    finally:
        if gc_was_enabled:
            gc.enable()
    return _Plan(cq, tree, est, fv, choice, (t0, t1, t2, t3, t4, t5))


def run_workload(db: Database, queries, config: RunConfig) -> RunLog:
    """queries: (query id, QuerySpec) pairs, run in the given order.

    A query that cannot be planned (any `SmashError`, such as a cyclic
    query or a non-finite feature) is recorded as skipped under both
    strategies, with the planning error as the reason.  The log keeps the
    feature vector of every query planned (`RunLog.features`), for
    `build_dataset`."""
    log = RunLog(config=config)
    for qid, spec in queries:
        try:
            plan = plan_query(spec, db)
        except SmashError as exc:
            for strategy in STRATEGIES:
                log.entries.append(
                    RunEntry(query_id=qid, strategy=strategy,
                             skipped=True, reason=str(exc))
                )
            continue
        log.features[qid] = plan.features
        cq = plan.cq
        # both plans are built outside the timed region
        plans = {BASE: _base_plan(cq), REWRITING: rewrite(plan.tree, cq, db).statements}
        for strategy in STRATEGIES:
            try:
                entry = _timed(partial(_run, plans[strategy], cq, db, None), config)
            except SmashError as exc:
                entry = RunEntry(query_id=qid, strategy=strategy,
                                 skipped=True, reason=str(exc))
            entry.query_id, entry.strategy = qid, strategy
            log.entries.append(entry)
    return log


def excluded_query_ids(log: RunLog):
    """Queries where both strategies timed out (or were skipped)."""
    out = []
    for qid in log.query_ids():
        pair = [log.entry(qid, s) for s in STRATEGIES]
        if all(e is not None and (e.timed_out or e.skipped) for e in pair):
            out.append(qid)
    return out


def _measured(log: RunLog, qid):
    """A query's measured (Base, Rewriting) mean seconds; raises
    SmashError when either strategy is absent or was skipped."""
    base = log.entry(qid, BASE)
    rewr = log.entry(qid, REWRITING)
    if base is None or rewr is None or base.skipped or rewr.skipped:
        raise SmashError(f"query {qid} lacks a strategy measurement")
    return base.mean_s, rewr.mean_s


def build_dataset(log: RunLog, features_per_query):
    """One LabeledExample per usable query; both-timeout queries dropped."""
    excluded = set(excluded_query_ids(log))
    examples = []
    for qid in log.query_ids():
        if qid in excluded:
            continue
        base_s, rewr_s = _measured(log, qid)
        if qid not in features_per_query:
            raise SmashError(f"query {qid} lacks a feature vector")
        examples.append(label(qid, features_per_query[qid], base_s, rewr_s))
    return examples


@dataclass
class StrategyTotals:
    total_seconds: float = 0.0
    oma_seconds: float = 0.0
    enum_seconds: float = 0.0
    slowdown_cases: int = 0
    slowdown_fraction: float = 0.0


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if ordered else 0.0


@dataclass
class E2eReport:
    strategies: dict  # name -> StrategyTotals
    n_queries: int
    excluded_query_ids: list
    decision_latencies_s: list
    clock_resolution_s: float
    # stage -> per-query seconds, in DECISION_STAGES order and query order;
    # a query's stages sum to its decision latency
    stage_latencies_s: dict

    def stage_percentiles(self):
        """stage -> (p50, p99) seconds, nearest rank; "total" last."""
        columns = dict(self.stage_latencies_s, total=self.decision_latencies_s)
        return {stage: (_nearest_rank(values, 50), _nearest_rank(values, 99))
                for stage, values in columns.items()}

    def to_json(self):
        return json.dumps(
            {
                "clock_resolution_s": self.clock_resolution_s,
                "n_queries": self.n_queries,
                "excluded_query_ids": self.excluded_query_ids,
                "decision_latencies_s": self.decision_latencies_s,
                "stage_latencies_s": self.stage_latencies_s,
                "decision_stages": {
                    stage: {"p50_s": p50, "p99_s": p99}
                    for stage, (p50, p99) in self.stage_percentiles().items()
                },
                "strategies": {k: vars(v) for k, v in self.strategies.items()},
            },
            sort_keys=True,
            indent=2,
        )

    def to_text(self):
        lines = [
            f"clock resolution: {self.clock_resolution_s:g} s;"
            f" queries: {self.n_queries};"
            f" excluded: {len(self.excluded_query_ids)}",
            f"{'strategy':<12}{'total_s':>12}{'0MA_s':>12}"
            f"{'enum_s':>12}{'slowdown':>10}",
        ]
        for name in ("Base", "Rewriting", "SMASH", "OracleBest"):
            t = self.strategies[name]
            lines.append(
                f"{name:<12}{t.total_seconds:>12.4f}{t.oma_seconds:>12.4f}"
                f"{t.enum_seconds:>12.4f}{t.slowdown_fraction:>10.3f}"
            )
        lines.append(f"{'decision':<12}{'p50_us':>12}{'p99_us':>12}")
        for stage, (p50, p99) in self.stage_percentiles().items():
            lines.append(f"{stage:<12}{p50 * 1e6:>12.1f}{p99 * 1e6:>12.1f}")
        return "\n".join(lines)


def smash_e2e(db: Database, test_queries, model, threshold, log: RunLog) -> E2eReport:
    """Charge each query the chosen strategy's measured mean + decision time."""
    totals = {name: StrategyTotals() for name in
              ("Base", "Rewriting", "SMASH", "OracleBest")}
    excluded = set(excluded_query_ids(log))
    latencies = []
    stages = {stage: [] for stage in DECISION_STAGES}
    n = 0
    for qid, spec in test_queries:
        if qid in excluded:
            continue
        base_s, rewr_s = _measured(log, qid)
        plan = plan_query(spec, db, model, threshold)
        marks = plan.marks
        latency = marks[-1] - marks[0]
        latencies.append(latency)
        for stage, start, end in zip(DECISION_STAGES, marks, marks[1:]):
            stages[stage].append(end - start)
        n += 1
        chosen = rewr_s if plan.decision == REWRITTEN else base_s
        # (charged seconds, strategy time used for the slowdown test);
        # a slowdown case is a query where the strategy exceeds Base
        per_strategy = {
            "Base": (base_s, base_s),
            "Rewriting": (rewr_s, rewr_s),
            "SMASH": (chosen + latency, chosen),
            "OracleBest": (min(base_s, rewr_s), min(base_s, rewr_s)),
        }
        for name, (seconds, strategy_time) in per_strategy.items():
            t = totals[name]
            t.total_seconds += seconds
            if plan.tree.oma_flag:
                t.oma_seconds += seconds
            else:
                t.enum_seconds += seconds
            if strategy_time > base_s:
                t.slowdown_cases += 1
    for t in totals.values():
        t.slowdown_fraction = t.slowdown_cases / n if n else 0.0
    return E2eReport(
        strategies=totals,
        n_queries=n,
        excluded_query_ids=sorted(excluded),
        decision_latencies_s=latencies,
        clock_resolution_s=time.get_clock_info("perf_counter").resolution,
        stage_latencies_s=stages,
    )
