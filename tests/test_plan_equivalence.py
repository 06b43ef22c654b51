"""Planning outputs pinned by digest.

For every query of a fixed corpus the planner runs from SQL text, as the
benchmark and `smash plan` do: parse -> normalize -> analyze -> estimate ->
features -> rewrite.  Each stage's output is hashed (SHA-256 of its repr)
and compared with `plan_digests.json`, so a change to any planning stage
that alters a spec, a normalized query, a join tree, an estimate, a feature
vector, an emitted statement or its SQL text fails here and names the
query.  The `statements` stage pins the plan the engine runs; the `sql`
stage pins the text rendered from it.

The corpus is the 200 `random_specs` of the correctness tests plus seeded
samples of both benchmark workload generators.  Regenerate the fixture
only when a planning output is meant to change:

    PYTHONPATH=src python tests/test_plan_equivalence.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from smash.acyclic import analyze
from smash.augmentation import generate_two_regime_workload
from smash.engine import Database, Relation, estimate_cardinalities
from smash.features import extract_features
from smash.frontend import normalize, parse_query, to_sql
from smash.rewriter import rewrite

from conftest import random_specs, selector_wide

FIXTURE = Path(__file__).resolve().parent / "plan_digests.json"
STAGES = ("spec", "cq", "tree", "est", "features", "statements", "sql")


# string, mixed-type and self-joined columns, which the generators never make
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
    db.add(Relation("P", ["id", "name", "score"], [
        (1, "a", 3), (2, "b", "n/a"), (3, "it's", 7), (4, "c", 1.5),
    ]))
    db.add(Relation("Q", ["pid", "qty"], [(1, 1), (1, 4), (3, 3), (4, 4), (5, 2)]))
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


def plan_digests(db, spec):
    spec = parse_query(to_sql(spec))
    cq = normalize(spec, db)
    tree, _ = analyze(cq)
    est = estimate_cardinalities(cq, db)
    fv = extract_features(cq, tree, est)
    seq = rewrite(tree, cq, db)
    outputs = (
        spec, cq, tree, est, fv.as_list(),
        [(s.kind, s.name, s.form) for s in seq.statements],
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
