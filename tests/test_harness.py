"""Harness tests: run protocol, dataset assembly, e2e accounting."""

import gc
import json
import math

import pytest

from smash import harness
from smash.engine import EstimateSet
from smash.errors import SmashError
from smash.frontend import parse_query
from smash.harness import (
    BASE,
    DECISION_STAGES,
    REWRITING,
    E2eReport,
    RunConfig,
    RunEntry,
    RunLog,
    build_dataset,
    excluded_query_ids,
    plan_query,
    run_workload,
    smash_e2e,
)
from smash.ml import CartModel

from conftest import CHAIN_SQL


def constant_model(value):
    """Regression stub predicting the same sign-log difference everywhere."""
    return CartModel(task="regress",
                     tree={"leaf": True, "n": 1, "prediction": value},
                     importances=[], feature_names=[], n_features=31)


@pytest.fixture
def chain_run(chain_db):
    queries = [
        ("q0", parse_query(CHAIN_SQL)),
        ("q1", parse_query(
            "SELECT R.a, T.d FROM R, S, T WHERE R.b = S.b AND S.c = T.c"
        )),
    ]
    config = RunConfig(repeats=5, timeout_s=100.0, seed=42)
    return queries, run_workload(chain_db, queries, config)


class TestRunWorkload:
    def test_entries_and_means(self, chain_run):
        _, log = chain_run
        assert len(log.entries) == 4
        for e in log.entries:
            assert len(e.rep_times_s) == 5
            assert e.mean_s == pytest.approx(
                sum(e.rep_times_s) / 5, abs=1e-12
            )
            assert not e.timed_out

    def test_empty_workload(self, chain_db):
        log = run_workload(chain_db, [], RunConfig())
        assert log.entries == []

    def test_cyclic_recorded_as_skipped(self, chain_db):
        queries = [("cyc", parse_query(
            "SELECT MIN(R.a) FROM R, S, T "
            "WHERE R.b = S.b AND S.c = T.c AND T.d = R.a"
        ))]
        log = run_workload(chain_db, queries, RunConfig(repeats=1))
        assert all(e.skipped and "cyclic" in e.reason for e in log.entries)
        assert excluded_query_ids(log) == ["cyc"]

    def test_unknown_column_recorded_as_skipped(self, chain_db):
        queries = [("bad", parse_query(
            "SELECT MIN(R.a) FROM R, S WHERE R.b = S.b AND R.zz = 1"))]
        log = run_workload(chain_db, queries, RunConfig(repeats=1))
        assert [(e.strategy, e.skipped, e.reason) for e in log.entries] == [
            (BASE, True, "R has no column zz"),
            (REWRITING, True, "R has no column zz"),
        ]
        assert excluded_query_ids(log) == ["bad"]

    def test_non_finite_feature_recorded_as_skipped(self, chain_db, monkeypatch):
        monkeypatch.setattr(harness, "estimate_cardinalities",
                            lambda cq, db: EstimateSet([4, 2], [3.0], math.inf))
        log = run_workload(chain_db, [("inf", parse_query(CHAIN_SQL))],
                           RunConfig(repeats=1))
        assert [(e.strategy, e.skipped, e.reason) for e in log.entries] == [
            (BASE, True, "feature vector contains non-finite values"),
            (REWRITING, True, "feature vector contains non-finite values"),
        ]
        assert log.features == {}

    def test_features_of_planned_queries_feed_the_dataset(self, chain_db):
        queries = [("good", parse_query(CHAIN_SQL)), ("bad", parse_query(
            "SELECT MIN(R.a) FROM R, S WHERE R.b = S.b AND R.zz = 1"))]
        log = run_workload(chain_db, queries, RunConfig(repeats=1))
        assert list(log.features) == ["good"]
        assert log.features["good"] == plan_query(queries[0][1], chain_db).features
        (example,) = build_dataset(log, log.features)
        assert example.query_id == "good"

    def test_json_round_trip(self, chain_run, tmp_path):
        _, log = chain_run
        path = tmp_path / "runlog.json"
        log.save(path)
        back = RunLog.load(path)
        assert back.to_json() == log.to_json()


def synthetic_log(times):
    """times: qid -> (base_s, rewr_s); None marks a timeout."""
    log = RunLog(config=RunConfig())
    for qid, (b, r) in times.items():
        for strategy, t in ((BASE, b), (REWRITING, r)):
            timed_out = t is None
            log.entries.append(RunEntry(
                query_id=qid, strategy=strategy,
                rep_times_s=[] if timed_out else [t] * 5,
                mean_s=log.config.timeout_s if timed_out else t,
                timed_out=timed_out,
            ))
    return log


class TestRunLogLookup:
    def test_direct_appends_and_duplicates(self, tmp_path):
        log = synthetic_log({"a": (1.0, 2.0)})
        assert log.entry("a", BASE).mean_s == 1.0
        assert log.entry("b", BASE) is None
        # appended after a lookup, and a duplicate key: the first one wins
        log.entries.append(RunEntry(query_id="b", strategy=BASE, mean_s=3.0))
        log.entries.append(RunEntry(query_id="a", strategy=BASE, mean_s=9.0))
        log.entries.append(RunEntry(query_id="b", strategy=BASE, mean_s=4.0))
        assert log.entry("b", BASE).mean_s == 3.0
        assert log.entry("a", BASE).mean_s == 1.0
        assert log.query_ids() == ["a", "b"]
        path = tmp_path / "runlog.json"
        log.save(path)
        back = RunLog.load(path)
        assert back.entry("a", BASE).mean_s == 1.0
        assert back.entry("b", BASE).mean_s == 3.0
        # a replaced list is indexed afresh
        back.entries = back.entries[3:]
        assert back.entry("a", BASE).mean_s == 9.0
        assert back.entry("a", REWRITING) is None


class TestBuildDataset:
    def test_labels_from_means(self):
        log = synthetic_log({"a": (3.38, 0.11), "b": (0.05, 0.09)})
        examples = build_dataset(log, {"a": [0.0], "b": [0.0]})
        by_id = {e.query_id: e for e in examples}
        assert by_id["a"].class_label == 1
        assert by_id["b"].class_label == 0

    def test_both_timeout_excluded(self):
        log = synthetic_log({"a": (1.0, 2.0), "dead": (None, None)})
        examples = build_dataset(log, {"a": [0.0], "dead": [0.0]})
        assert [e.query_id for e in examples] == ["a"]

    def test_single_timeout_charged_timeout(self):
        log = synthetic_log({"a": (1.0, None)})
        (e,) = build_dataset(log, {"a": [0.0]})
        assert e.t_rewritten == log.config.timeout_s
        assert e.class_label == 0

    def test_missing_features_raise(self):
        log = synthetic_log({"a": (1.0, 2.0)})
        with pytest.raises(SmashError, match="^query a lacks a feature vector$"):
            build_dataset(log, {})


def skipped_base_log(qid):
    """Base skipped, Rewriting measured at a mean of 0.5 s."""
    log = RunLog(config=RunConfig())
    log.entries += [RunEntry(query_id=qid, strategy=BASE, skipped=True, reason="x"),
                    RunEntry(query_id=qid, strategy=REWRITING,
                             rep_times_s=[0.5] * 5, mean_s=0.5)]
    return log


def test_one_skipped_strategy_raises_in_dataset_and_e2e(chain_db):
    """Neither charges a skipped strategy 0 s; both raise alike."""
    log = skipped_base_log("q0")
    with pytest.raises(SmashError, match="q0 lacks a strategy measurement"):
        build_dataset(log, {"q0": [0.0]})
    with pytest.raises(SmashError, match="q0 lacks a strategy measurement"):
        smash_e2e(chain_db, [("q0", parse_query(CHAIN_SQL))],
                  constant_model(0.5), 0.0, log)


class TestPlanQuery:
    def test_without_a_model_decides_nothing(self, chain_db):
        plan = plan_query(parse_query(CHAIN_SQL), chain_db)
        assert plan.decision is None
        assert plan.tree.oma_flag and plan.features.is_0ma == 1.0
        assert len(plan.marks) == len(DECISION_STAGES) + 1
        assert list(plan.marks) == sorted(plan.marks)

    def test_with_a_model_decides_at_the_threshold(self, chain_db):
        spec = parse_query(CHAIN_SQL)
        model = constant_model(0.5)
        assert plan_query(spec, chain_db, model).decision == "Original"
        assert plan_query(spec, chain_db, model, 1.0).decision == "Rewritten"


class TestSmashE2e:
    def test_perfect_vs_oracle(self, chain_db, chain_run):
        queries, log = chain_run
        # always-rewrite and always-base stubs bracket the oracle
        for value, strategy_total in ((-1.0, REWRITING), (1.0, BASE)):
            report = smash_e2e(chain_db, queries, constant_model(value), 0.0, log)
            fixed = sum(log.entry(q, strategy_total).mean_s for q, _ in queries)
            overhead = sum(report.decision_latencies_s)
            assert report.strategies["SMASH"].total_seconds == pytest.approx(
                fixed + overhead
            )

    def test_oracle_best_lower_bound(self, chain_db, chain_run):
        queries, log = chain_run
        report = smash_e2e(chain_db, queries, constant_model(0.5), 0.0, log)
        oracle = report.strategies["OracleBest"].total_seconds
        assert oracle <= report.strategies["Base"].total_seconds + 1e-12
        assert oracle <= report.strategies["Rewriting"].total_seconds + 1e-12

    def test_split_sums_to_total(self, chain_db, chain_run):
        queries, log = chain_run
        report = smash_e2e(chain_db, queries, constant_model(0.5), 0.0, log)
        for t in report.strategies.values():
            assert t.total_seconds == pytest.approx(
                t.oma_seconds + t.enum_seconds
            )

    def test_report_serialization(self, chain_db, chain_run):
        queries, log = chain_run
        report = smash_e2e(chain_db, queries, constant_model(0.5), 0.0, log)
        assert isinstance(report, E2eReport)
        assert "SMASH" in report.to_json()
        text = report.to_text()
        assert "OracleBest" in text and "clock resolution" in text

    def test_decision_stages_sum_to_latency(self, chain_db, chain_run):
        queries, log = chain_run
        report = smash_e2e(chain_db, queries, constant_model(0.5), 0.0, log)
        stages = report.stage_latencies_s
        assert list(stages) == list(DECISION_STAGES)
        for i, latency in enumerate(report.decision_latencies_s):
            parts = [stages[stage][i] for stage in DECISION_STAGES]
            assert all(p >= 0.0 for p in parts)
            assert sum(parts) == latency  # exact: shared boundary timestamps
        summary = json.loads(report.to_json())["decision_stages"]
        assert list(summary) == sorted([*DECISION_STAGES, "total"])
        assert summary["total"]["p99_s"] == max(report.decision_latencies_s)
        for stage in DECISION_STAGES:
            assert summary[stage]["p50_s"] <= summary[stage]["p99_s"]
            assert summary[stage]["p99_s"] == max(stages[stage])
        text = report.to_text().splitlines()
        assert [line.split()[0] for line in text[-6:]] == [*DECISION_STAGES, "total"]


class TestDecisionTimingWithoutCollector:
    """The timed decision region runs with the collector off and restores
    the collector's earlier state, also when a stage raises."""

    def test_collector_off_inside_and_restored_after(self, chain_db, chain_run,
                                                     monkeypatch):
        queries, log = chain_run
        seen = []

        def recording_decide(*args):
            seen.append(gc.isenabled())
            return harness_decide(*args)

        harness_decide = harness.decide
        monkeypatch.setattr(harness, "decide", recording_decide)
        assert gc.isenabled()
        smash_e2e(chain_db, queries, constant_model(0.5), 0.0, log)
        assert seen == [False] * len(queries)
        assert gc.isenabled()

    def test_restored_when_a_stage_raises(self, chain_db, chain_run, monkeypatch):
        queries, log = chain_run
        seen = []

        def failing_estimate(*args):
            seen.append(gc.isenabled())
            raise RuntimeError("estimator failed")

        monkeypatch.setattr(harness, "estimate_cardinalities", failing_estimate)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="estimator failed"):
            smash_e2e(chain_db, queries, constant_model(0.5), 0.0, log)
        assert seen == [False]
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, chain_db, chain_run):
        queries, log = chain_run
        gc.disable()
        try:
            smash_e2e(chain_db, queries, constant_model(0.5), 0.0, log)
            assert not gc.isenabled()
        finally:
            gc.enable()
