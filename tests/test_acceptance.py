"""Acceptance suite: ten criteria, one printed PASS/FAIL line each.

Each test prints its verdict outside pytest's capture so the line is
visible in a plain `pytest -v` run, then asserts it.
"""

import json
import math
import random
import time
from collections import defaultdict

import pytest

from smash.acyclic import analyze, build_hypergraph, gyo_reduce
from smash.augmentation import (
    WorkloadSpec,
    augment_aggregate_attribute,
    augment_enumeration,
    augment_filters,
    generate_two_regime_workload,
    generate_workload,
)
from smash.engine import OpCounter, estimate_cardinalities, evaluate_baseline
from smash.features import extract_features, reduce_set
from smash.frontend import normalize, parse_query
from smash.harness import RunConfig, build_dataset, run_workload, smash_e2e
from smash.ml import (
    REWRITTEN,
    cross_validate,
    decide,
    label,
    model_to_json,
    predict,
    sign_log,
    split_dataset,
    threshold_sweep,
    train_cart,
    train_knn,
)
from smash.rewriter import full_reduce, interpret_sequence, rewrite
from smash.stats_tests import PairedSample, paired_t_test, wilcoxon_signed_rank

from conftest import oracle_matches, oracle_rows, random_specs, result_multiset

TRIANGLE = (
    "SELECT MIN(R.a) FROM R, S, T "
    "WHERE R.b = S.b AND S.c = T.c AND T.a = R.a"
)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_01_base_and_plan_match_oracle(capsys):
    start = time.perf_counter()
    n = mismatches = 0
    for db, spec in random_specs(101, 200):
        expected = oracle_rows(spec, db)
        cq = normalize(spec, db)
        tree, _ = analyze(cq)
        results = [
            evaluate_baseline(cq, db),
            interpret_sequence(rewrite(tree, cq, db), cq, db),
        ]
        mismatches += sum(result_multiset(r) != expected for r in results)
        n += 1
    elapsed = time.perf_counter() - start
    report(capsys, 1, n >= 200 and mismatches == 0 and elapsed < 60,
           f"{n} queries, {mismatches} mismatches, {elapsed:.1f}s")


def _kept_indices(atom, schema):
    keep, seen = [], set()
    for j, col in enumerate(schema):
        cid = atom.renaming.get(col, f"{atom.alias}.{col}")
        if cid not in seen:
            seen.add(cid)
            keep.append(j)
    return keep


def test_02_full_reducer_property(capsys):
    instances = violations = 0
    for db, spec in random_specs(202, 50):
        cq = normalize(spec, db)
        tree, _ = analyze(cq)
        rels = full_reduce(tree, cq, db)
        envs = oracle_matches(spec, db)
        for i, atom in enumerate(cq.atoms):
            keep = _kept_indices(atom, db.table(atom.table).schema)
            participating = {
                tuple(env[atom.alias][j] for j in keep) for env in envs
            }
            if set(rels[i].rows) != participating:
                violations += 1
        instances += 1
    report(capsys, 2, instances == 50 and violations == 0,
           f"{instances} instances, {violations} violations")


def test_03_zero_joins_for_0ma(capsys):
    checked = joins = 0
    for db, spec in random_specs(303, 150):
        cq = normalize(spec, db)
        tree, _ = analyze(cq)
        if not tree.oma_flag:
            continue
        counter = OpCounter()
        interpret_sequence(rewrite(tree, cq, db), cq, db, counter)
        joins += counter.joins
        checked += 1
    report(capsys, 3, checked >= 30 and joins == 0,
           f"{checked} 0MA evaluations, {joins} joins")


def _subtree_connected(tree, cq):
    adj = defaultdict(set)
    for v, p in tree.parent.items():
        if p is not None:
            adj[v].add(p)
            adj[p].add(v)
    classes = {c for atom in cq.atoms for c in atom.renaming.values()}
    for cid in classes:
        members = {
            i for i, atom in enumerate(cq.atoms)
            if cid in atom.renaming.values()
        }
        start = next(iter(members))
        seen, stack = {start}, [start]
        while stack:
            for v in adj[stack.pop()]:
                if v in members and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != members:
            return False
    return True


def test_04_gyo_classification(capsys):
    triangle_cyclic = not gyo_reduce(
        build_hypergraph(normalize(parse_query(TRIANGLE)))
    ).acyclic
    acyclic = connected = n = 0
    for db, spec in random_specs(404, 100):
        cq = normalize(spec, db)
        if gyo_reduce(build_hypergraph(cq)).acyclic:
            acyclic += 1
        tree, _ = analyze(cq)
        if _subtree_connected(tree, cq):
            connected += 1
        n += 1
    report(capsys, 4, triangle_cyclic and acyclic == connected == n == 100,
           f"triangle cyclic: {triangle_cyclic}, "
           f"{acyclic}/{n} acyclic, {connected}/{n} connected")


def test_05_six_statistics_rows(capsys):
    s1 = reduce_set([1, 1, 1, 1, 1, 2, 3])
    s2 = reduce_set([3, 1])
    values = (round(s1.mean, 2), round(s1.q75, 2),
              round(s2.q25, 2), round(s2.q75, 2))
    report(capsys, 5, values == (1.43, 1.5, 1.5, 2.5),
           f"got mean/q75={values[0]}/{values[1]}, "
           f"q25/q75={values[2]}/{values[3]}")


def test_06_augmentation_arithmetic(capsys, toy_db):
    one_filter = parse_query(
        "SELECT MIN(v.Id) FROM votes AS v WHERE v.BountyAmount >= 0"
    )
    three_filters = parse_query(
        "SELECT MIN(u.Id) FROM users AS u, votes AS v, badges AS b "
        "WHERE u.Id = v.UserId AND u.Id = b.UserId "
        "AND v.BountyAmount >= 0 AND u.DownVotes = 0 AND u.UpVotes >= 1"
    )
    filter_variants = augment_filters(three_filters, toy_db)
    total = sum(
        len(augment_aggregate_attribute(v, toy_db)) for v in filter_variants
    )
    enum_variants = augment_enumeration(three_filters, random.Random(6))
    counts = (
        len(augment_filters(one_filter, toy_db)),
        len(filter_variants),
        len(augment_aggregate_attribute(three_filters, toy_db)),
        total,
        len(enum_variants),
    )
    report(capsys, 6, counts == (2, 3, 3, 9, 3),
           f"counts {counts} vs expected (2, 3, 3, 9, 3)")


def _two_regime_examples(n, noise, seed, d=3):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = [rng.uniform(0, 10) for _ in range(d)]
        fast = (x[0] > 5) ^ (rng.random() < noise)
        out.append(label(f"q{i}", x, 2.0 if fast else 1.0,
                         1.0 if fast else 2.0))
    return out


def test_07_ml_properties(capsys):
    separable = _two_regime_examples(500, 0.0, 7)
    clf = train_cart(separable, task="classify")
    train_acc = sum(
        predict(clf, e.features) == e.class_label for e in separable
    ) / len(separable)

    noisy = _two_regime_examples(300, 0.05, 8)
    splits = split_dataset(noisy, 7)
    accs = cross_validate(splits.folds, task="classify",
                          trainer=train_cart, max_depth=3)
    cv_acc = sum(accs) / len(accs)

    importance_sum = sum(clf.importances)

    reg = train_cart(splits.train, task="regress")
    noisy_clf = train_cart(splits.train, task="classify")
    held = splits.validation + splits.test
    acc_clf = sum(
        predict(noisy_clf, e.features) == e.class_label for e in held
    ) / len(held)
    acc_reg = sum(
        (decide(reg, e.features, 0.0) == REWRITTEN) == e.class_label
        for e in held
    ) / len(held)

    round_trip = max(
        abs(math.copysign(math.exp(abs(sign_log(x))) - 1, x) - x)
        for x in [0.0, 0.1, 1.0, 42.5, -3.25, 977.0]
    )

    sweep = threshold_sweep(reg, held, [-1e9, -0.5, 0.0, 0.5, 1e9])
    recalls = [0.0 if m.rec_undefined else m.rec for _, m, _ in sweep]

    ok = (
        train_acc == 1.0
        and cv_acc >= 0.9
        and abs(importance_sum - 1.0) <= 1e-9
        and abs(acc_reg - acc_clf) <= 0.05
        and round_trip < 1e-12
        and recalls == sorted(recalls)
    )
    report(capsys, 7, ok,
           f"train acc {train_acc:.2f}, cv acc {cv_acc:.2f}, "
           f"importances {importance_sum:.10f}, reg-clf gap "
           f"{abs(acc_reg - acc_clf):.2f}, round-trip {round_trip:.1e}, "
           f"recalls {recalls}")


def _enumeration_p(diffs):
    from itertools import product

    from smash.stats_tests import average_ranks

    ranks = average_ranks([abs(d) for d in diffs])
    stat = min(
        sum(r for d, r in zip(diffs, ranks) if d > 0),
        sum(r for d, r in zip(diffs, ranks) if d < 0),
    )
    favorable = sum(
        sum(r for s, r in zip(signs, ranks) if s) <= stat + 1e-9
        for signs in product([0, 1], repeat=len(diffs))
    )
    return min(1.0, 2 * favorable / 2 ** len(diffs))


def test_08_statistics(capsys):
    diffs = [1.0, 2.0, 3.0, 4.0, 5.0]
    sample = PairedSample(diffs, [0.0] * 5)
    _, p = wilcoxon_signed_rank(sample)
    t, _ = paired_t_test(sample)

    rng = random.Random(8)
    antisymmetric = 0
    for _ in range(100):
        n = rng.randint(2, 30)
        d = [rng.uniform(-1, 1) or 0.5 for _ in range(n)]
        _, p1 = wilcoxon_signed_rank(PairedSample(d, [0.0] * n))
        _, p2 = wilcoxon_signed_rank(PairedSample([-x for x in d], [0.0] * n))
        if p1 == pytest.approx(p2):
            antisymmetric += 1

    ok = (
        p == pytest.approx(0.0625)
        and p == pytest.approx(_enumeration_p(diffs))
        and t == pytest.approx(4.2426, abs=1e-4)
        and antisymmetric == 100
    )
    report(capsys, 8, ok,
           f"wilcoxon p {p:.4f}, t {t:.4f}, "
           f"antisymmetry {antisymmetric}/100")


@pytest.mark.slow
def test_09_end_to_end_selection(capsys):
    db, queries = generate_two_regime_workload(seed=42, n_queries=240)
    log = run_workload(db, queries, RunConfig(repeats=3))
    features = {}
    for qid, spec in queries:
        cq = normalize(spec, db)
        tree, _ = analyze(cq)
        features[qid] = extract_features(
            cq, tree, estimate_cardinalities(cq, db)
        )
    examples = build_dataset(log, features)
    rewrite_wins = sum(e.class_label for e in examples)
    splits = split_dataset(examples, 42)
    model = train_cart(splits.pool, task="regress")
    by_id = dict(queries)
    test_queries = [(e.query_id, by_id[e.query_id]) for e in splits.test]
    rep = smash_e2e(db, test_queries, model, 0.0, log)

    totals = {k: v.total_seconds for k, v in rep.strategies.items()}
    ratio = totals["SMASH"] / totals["OracleBest"]
    smash_slow = rep.strategies["SMASH"].slowdown_fraction
    rewr_slow = rep.strategies["Rewriting"].slowdown_fraction
    max_latency = max(rep.decision_latencies_s)
    ok = (
        len(queries) >= 200
        and 0.3 <= rewrite_wins / len(examples) <= 0.7
        and totals["SMASH"] < min(totals["Base"], totals["Rewriting"])
        and ratio <= 1.10
        and smash_slow <= 0.10
        and rewr_slow >= 0.40
        and max_latency < 0.010
    )
    report(capsys, 9, ok,
           f"{len(queries)} queries, rewrite wins "
           f"{rewrite_wins}/{len(examples)}, SMASH {totals['SMASH']:.3f}s vs "
           f"Base {totals['Base']:.3f}s / Rewriting {totals['Rewriting']:.3f}s, "
           f"SMASH/oracle {ratio:.3f}, slowdowns {smash_slow:.2f}/"
           f"{rewr_slow:.2f}, max latency {max_latency * 1e3:.2f}ms")


_TIMING_FIELDS = ("warmup_s", "rep_times_s", "mean_s")


def _stable_log_bytes(log):
    entries = []
    for e in log.entries:
        d = dict(vars(e))
        for f in _TIMING_FIELDS:
            d.pop(f, None)
        entries.append(d)
    return json.dumps(entries, sort_keys=True)


def test_10_determinism(capsys):
    logs, sqls = [], []
    for _ in range(2):
        db, queries = generate_workload(WorkloadSpec(
            seed=10, n_base_queries=6, name_prefix="det",
        ))
        sqls.append([qid for qid, _ in queries])
        logs.append(run_workload(db, queries, RunConfig(repeats=1)))
    logs_equal = _stable_log_bytes(logs[0]) == _stable_log_bytes(logs[1])

    examples = _two_regime_examples(120, 0.05, 10)
    cart_equal = (
        model_to_json(train_cart(examples, task="regress"))
        == model_to_json(train_cart(examples, task="regress"))
    )
    knn_equal = (
        model_to_json(train_knn(examples, k=5))
        == model_to_json(train_knn(examples, k=5))
    )
    ok = sqls[0] == sqls[1] and logs_equal and cart_equal and knn_equal
    report(capsys, 10, ok,
           f"run logs equal: {logs_equal}, cart equal: {cart_equal}, "
           f"knn equal: {knn_equal}")
