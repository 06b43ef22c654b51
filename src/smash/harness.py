"""Timing harness and end-to-end strategy comparison.

Every query runs under both strategies with one discarded warm-up run and
five timed repetitions (arithmetic mean reported).  A repetition exceeding
the timeout marks the entry timed out and charges exactly the timeout.
The end-to-end report compares Base, Rewriting, the learned SMASH
selector (charged the chosen strategy's measured mean plus the measured
decision latency), and the per-query oracle best.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field

from .acyclic import analyze
from .engine import (
    Database,
    estimate_cardinalities,
    evaluate_baseline,
)
from .errors import InvalidJoinTree, MissingStrategy, SmashError
from .features import extract_features
from .frontend import normalize
from .ml import REWRITTEN, decide, label
from .rewriter import interpret_sequence, rewrite

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
    the list; entries already looked up must not be edited or removed."""

    config: RunConfig
    entries: list = field(default_factory=list)
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
        with open(path) as fh:
            payload = json.load(fh)
        log = cls(config=RunConfig(**payload["config"]))
        log.entries = [RunEntry(**e) for e in payload["entries"]]
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


def run_workload(db: Database, queries, config: RunConfig) -> RunLog:
    """queries: (query id, QuerySpec) pairs, run in the given order."""
    log = RunLog(config=config)
    for qid, spec in queries:
        cq = normalize(spec, db)
        try:
            tree, _ = analyze(cq)
        except InvalidJoinTree as exc:
            for strategy in STRATEGIES:
                log.entries.append(
                    RunEntry(query_id=qid, strategy=strategy,
                             skipped=True, reason=str(exc))
                )
            continue
        seq = rewrite(tree, cq, db)  # built outside the timed region
        runners = {
            BASE: lambda: evaluate_baseline(cq, db),
            REWRITING: lambda: interpret_sequence(seq, cq, db),
        }
        for strategy in STRATEGIES:
            try:
                entry = _timed(runners[strategy], config)
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


def build_dataset(log: RunLog, features_per_query):
    """One LabeledExample per usable query; both-timeout queries dropped."""
    excluded = set(excluded_query_ids(log))
    examples = []
    for qid in log.query_ids():
        if qid in excluded:
            continue
        base = log.entry(qid, BASE)
        rewr = log.entry(qid, REWRITING)
        if base is None or rewr is None or base.skipped or rewr.skipped:
            raise MissingStrategy(f"query {qid} lacks a strategy measurement")
        if qid not in features_per_query:
            raise MissingStrategy(f"query {qid} lacks a feature vector")
        examples.append(
            label(qid, features_per_query[qid], base.mean_s, rewr.mean_s)
        )
    return examples


@dataclass
class StrategyTotals:
    total_seconds: float = 0.0
    oma_seconds: float = 0.0
    enum_seconds: float = 0.0
    slowdown_cases: int = 0
    slowdown_fraction: float = 0.0


@dataclass
class E2eReport:
    strategies: dict  # name -> StrategyTotals
    n_queries: int
    excluded_query_ids: list
    decision_latencies_s: list
    clock_resolution_s: float

    def to_json(self):
        return json.dumps(
            {
                "clock_resolution_s": self.clock_resolution_s,
                "n_queries": self.n_queries,
                "excluded_query_ids": self.excluded_query_ids,
                "decision_latencies_s": self.decision_latencies_s,
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
        return "\n".join(lines)


def smash_e2e(db: Database, test_queries, model, threshold, log: RunLog) -> E2eReport:
    """Charge each query the chosen strategy's measured mean + decision time."""
    totals = {name: StrategyTotals() for name in
              ("Base", "Rewriting", "SMASH", "OracleBest")}
    excluded = set(excluded_query_ids(log))
    latencies = []
    n = 0
    for qid, spec in test_queries:
        if qid in excluded:
            continue
        base = log.entry(qid, BASE)
        rewr = log.entry(qid, REWRITING)
        if base is None or rewr is None:
            raise MissingStrategy(f"query {qid} missing from the run log")
        start = time.perf_counter()
        cq = normalize(spec, db)
        tree, _ = analyze(cq)
        est = estimate_cardinalities(cq, db)
        fv = extract_features(cq, tree, est)
        choice = decide(model, fv, threshold)
        latency = time.perf_counter() - start
        latencies.append(latency)
        n += 1
        chosen = rewr.mean_s if choice == REWRITTEN else base.mean_s
        # (charged seconds, strategy time used for the slowdown test);
        # a slowdown case is a query where the strategy exceeds Base
        per_strategy = {
            "Base": (base.mean_s, base.mean_s),
            "Rewriting": (rewr.mean_s, rewr.mean_s),
            "SMASH": (chosen + latency, chosen),
            "OracleBest": (min(base.mean_s, rewr.mean_s),
                           min(base.mean_s, rewr.mean_s)),
        }
        for name, (seconds, strategy_time) in per_strategy.items():
            t = totals[name]
            t.total_seconds += seconds
            if tree.oma_flag:
                t.oma_seconds += seconds
            else:
                t.enum_seconds += seconds
            if strategy_time > base.mean_s:
                t.slowdown_cases += 1
    for t in totals.values():
        t.slowdown_fraction = t.slowdown_cases / n if n else 0.0
    return E2eReport(
        strategies=totals,
        n_queries=n,
        excluded_query_ids=sorted(excluded),
        decision_latencies_s=latencies,
        clock_resolution_s=time.get_clock_info("perf_counter").resolution,
    )
