"""Planning outputs pinned by digest.

For every query of a fixed corpus the planner runs from SQL text, as the
benchmark and `smash plan` do: parse -> normalize -> analyze -> estimate ->
features -> rewrite.  Each stage's output is hashed (SHA-256 of its repr)
and compared with `plan_digests.json`, so a change to any planning stage
that alters a spec, a normalized query, a join tree, an estimate, a feature
vector, an emitted statement or its SQL text fails here and names the
query.  The `statements` stage pins the plan the engine runs; the `sql`
stage pins the text rendered from it.  `harness.plan_query`, the pipeline
every caller plans through, must return the same stage outputs and the
decision `ml.decide` makes on them.

The corpus is the 200 `random_specs` of the correctness tests plus seeded
samples of both benchmark workload generators.  Regenerate the fixture
only when a planning output is meant to change:

    PYTHONPATH=src python tests/test_plan_equivalence.py --write
"""

import hashlib
import json
import statistics
import sys
from collections import Counter
from pathlib import Path

from smash.acyclic import analyze
from smash.augmentation import generate_two_regime_workload
from smash.engine import Database, _base_plan, estimate_cardinalities
from smash.features import FeatureVector, extract_features
from smash.frontend import normalize, parse_query, to_sql
from smash.harness import plan_query
from smash.ml import CartModel, decide
from smash.rewriter import rewrite

from conftest import from_rows, random_specs, selector_wide

FIXTURE = Path(__file__).resolve().parent / "plan_digests.json"
BENCH = Path(__file__).resolve().parent.parent / "bench"
STAGES = ("spec", "cq", "tree", "est", "features", "statements", "sql")


# string, float and self-joined columns, which the generators never make
_HAND_SQL = [
    "SELECT MIN(P.id) FROM P, Q WHERE P.id = Q.pid AND P.name = 'b'",
    "SELECT P.name, Q.qty FROM P, Q WHERE P.id = Q.pid AND P.id != 2 AND P.score > 1",
    "SELECT MIN(Q.qty) FROM Q WHERE Q.pid = Q.qty",
    "SELECT COUNT(*) FROM P AS x, P AS y WHERE x.id = y.id AND x.name <> 'it''s'",
    "SELECT Q.pid, COUNT(DISTINCT Q.qty) FROM P, Q WHERE P.id = Q.pid GROUP BY Q.pid",
    "SELECT SUM(Q.qty) FROM Q, P WHERE Q.pid = P.id AND Q.qty >= 2.5",
    # attributes mentioned out of alphabetical order
    "SELECT P.score, Q.qty FROM P, Q WHERE Q.pid = P.id AND P.name = 'a'",
]


def _hand_db():
    db = Database()
    db.add(from_rows("P", ["id", "name", "score"], [
        (1, "a", 3.0), (2, "b", 0.5), (3, "it's", 7.0), (4, "c", 1.5),
    ]))
    db.add(from_rows("Q", ["pid", "qty"], [(1, 1), (1, 4), (3, 3), (4, 4), (5, 2)]))
    return db


def corpus():
    """(name, db, spec) for every pinned query."""
    db = _hand_db()
    for i, sql in enumerate(_HAND_SQL):
        yield f"hand/{i}", db, parse_query(sql)
    for i, (db, spec) in enumerate(random_specs(2024, 200)):
        yield f"random/{i:03d}", db, spec
    for seed, n in ((42, 120), (7, 60)):
        db, queries = selector_wide(seed, n)
        for qid, spec in queries:
            yield f"selector_wide/seed{seed}/{qid}", db, spec
    for seed in (42, 7):
        db, queries = generate_two_regime_workload(seed, 24)
        for qid, spec in queries:
            yield f"two_regime/seed{seed}/{qid}", db, spec


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def wired_stages(db, spec):
    """(spec, cq, tree, est, fv, seq), wired stage by stage from SQL text."""
    spec = parse_query(to_sql(spec))
    cq = normalize(spec, db)
    tree, _ = analyze(cq)
    est = estimate_cardinalities(cq, db)
    fv = extract_features(cq, tree, est)
    return spec, cq, tree, est, fv, rewrite(tree, cq, db)


def plan_digests(db, spec):
    spec, cq, tree, est, fv, seq = wired_stages(db, spec)
    outputs = (
        spec, cq, tree, est, list(fv),
        [(s.name, s.form) for s in seq.statements],
        seq.to_sql(),
    )
    return dict(zip(STAGES, map(_sha, outputs)))


def all_digests():
    return {name: plan_digests(db, spec) for name, db, spec in corpus()}


def test_plans_match_pinned_digests():
    pinned = json.loads(FIXTURE.read_text())
    actual = all_digests()
    assert sorted(actual) == sorted(pinned), "the corpus changed"
    differing = [
        f"{name}: {', '.join(s for s in STAGES if digests[s] != pinned[name][s])}"
        for name, digests in actual.items()
        if digests != pinned[name]
    ]
    assert not differing, (
        f"{len(differing)} queries plan differently:\n" + "\n".join(differing[:20])
    )


def _reads(form):
    """The statement names a form reads."""
    op, *operands = form
    if op == "atom":
        return []
    if op == "join_project":
        return [operands[0], *operands[1]]
    return operands


def test_plans_have_four_ops_and_end_in_their_one_unnamed_statement(monkeypatch):
    """Base's and Rewriting's plans of the corpus and of both benchmark
    workloads use only the four ops; the one unnamed statement, the result,
    is the last, and every named statement is read by a later one."""
    monkeypatch.syspath_prepend(str(BENCH))
    from smashbench import WORKLOADS

    queries = list(corpus())
    for workload, generator in WORKLOADS.items():
        db, specs = generator.generate(42)
        queries += [(f"{workload}/{qid}", db, spec) for qid, spec in specs]
    for name, db, spec in queries:
        cq = normalize(spec, db)
        tree, _ = analyze(cq)
        for plan in (_base_plan(cq), rewrite(tree, cq, db).statements):
            assert {s.form[0] for s in plan} <= {"atom", "semijoin", "join_project",
                                                 "aggregate"}, name
            assert [s.name is None for s in plan].count(True) == 1, name
            assert plan[-1].name is None, name
            read = set()
            for stmt in reversed(plan):
                assert stmt.name is None or stmt.name in read, (name, stmt)
                read.update(_reads(stmt.form))
    assert len(queries) == 435 + 480


def _median_split_model(vectors, feature):
    """A regress CART of one split at the feature's median over `vectors`,
    so that the corpus gets both decisions."""
    threshold = statistics.median(v[feature] for v in vectors)
    tree = {"leaf": False, "feature": feature, "threshold": threshold,
            "left": {"leaf": True, "n": 1, "prediction": -1.0},
            "right": {"leaf": True, "n": 1, "prediction": 1.0}}
    return CartModel(task="regress", tree=tree, importances=[],
                     feature_names=[], n_features=len(vectors[0]))


def test_plan_query_matches_the_stage_by_stage_wiring():
    wired = [(name, db, wired_stages(db, spec)) for name, db, spec in corpus()]
    model = _median_split_model([stages[4] for _, _, stages in wired],
                                FeatureVector._fields.index("est_total_cost"))
    decisions = Counter()
    for name, db, (spec, cq, tree, est, fv, _) in wired:
        plan = plan_query(spec, db, model)
        got = (plan.cq, plan.tree, plan.est, plan.features)
        assert list(map(_sha, got)) == list(map(_sha, (cq, tree, est, fv))), name
        assert plan.decision == decide(model, fv, 0.0), name
        decisions[plan.decision] += 1
    assert sum(decisions.values()) == 435 and len(decisions) == 2


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
