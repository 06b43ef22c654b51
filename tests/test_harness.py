"""Harness tests: run protocol, dataset assembly, e2e accounting."""

import pytest

from smash.acyclic import analyze
from smash.engine import estimate_cardinalities
from smash.errors import MissingStrategy
from smash.features import extract_features
from smash.frontend import normalize, parse_query
from smash.harness import (
    BASE,
    REWRITING,
    E2eReport,
    RunConfig,
    RunEntry,
    RunLog,
    build_dataset,
    excluded_query_ids,
    run_workload,
    smash_e2e,
)
from smash.ml import CartModel

from conftest import CHAIN_SQL


def features_for(queries, db):
    out = {}
    for qid, spec in queries:
        cq = normalize(spec, db)
        tree, _ = analyze(cq)
        out[qid] = extract_features(cq, tree, estimate_cardinalities(cq, db))
    return out


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
        with pytest.raises(MissingStrategy):
            build_dataset(log, {})


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
