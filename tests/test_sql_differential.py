"""The rendered SQL text, run statement by statement on stdlib sqlite3.

`StatementSequence.render` is the plan's second reading, next to the
engine's statement loop, for both strategies' plans: Base's and the
rewriter's.  Each plan is rendered and every statement runs in order on
an in-memory sqlite3 database holding the same tables.  The value
multiset of the result, the plan's unnamed statement, must equal the
independent oracle's on acceptance 1's corpus and, on benchmark-shaped
workloads too large for the oracle, both the engine's Base evaluation and
sqlite3 running the original query.
Each statement runs under a step budget, so a runaway statement, such as
a join without its predicates, fails instead of hanging, and every join
is checked to equate each class column its sources share.
"""

import sqlite3
from collections import Counter

import pytest

from smash.acyclic import analyze
from smash.augmentation import generate_two_regime_workload
from smash.engine import _base_plan, evaluate_baseline
from smash.errors import SmashError
from smash.frontend import normalize, parse_query, to_sql
from smash.rewriter import StatementSequence, rewrite

from conftest import oracle_rows, random_specs, result_multiset, selector_wide
from test_plan_equivalence import _HAND_SQL, _hand_db

# sqlite3 virtual-machine steps one rendered statement may take.  The
# largest statement of the corpora below takes about 85K since semi-joins
# render as IN; as a correlated EXISTS, which sqlite3 runs by scanning the
# inner table once per outer row, one took about 11M.
STEP_BUDGET = 50_000_000
_STEPS_PER_CHECK = 10_000


def _connect(db):
    conn = sqlite3.connect(":memory:")
    for rel in db.tables.values():
        columns = ", ".join(f'"{c}"' for c in rel.schema)
        marks = ", ".join("?" * len(rel.schema))
        conn.execute(f'CREATE TABLE "{rel.name}" ({columns})')
        conn.executemany(f'INSERT INTO "{rel.name}" VALUES ({marks})', rel.rows)
    return conn


def _columns(conn, name):
    return {row[1] for row in conn.execute(f"PRAGMA table_info({name})")}


def _objects(conn):
    return set(conn.execute("SELECT type, name FROM sqlite_master"))


def _assert_join_predicates(conn, form, text):
    """Every class column a join source shares with the sources before it
    is equated with that source's column: no cross product of tables that
    share a class."""
    _, first, others, _ = form
    seen = _columns(conn, first)
    for source in others:
        columns = _columns(conn, source)
        for cid in seen & columns:
            assert f' = {source}."{cid}"' in text, (cid, text)
        seen |= columns


def _run_plan(conn, seq):
    """Value multiset of the plan's result, running each rendered
    statement in order under `STEP_BUDGET`, then the rendered DROPs, which
    leave the connection holding only the base tables."""
    checks = 0

    def tick():
        nonlocal checks
        checks += 1
        return checks * _STEPS_PER_CHECK > STEP_BUDGET

    tables = _objects(conn)
    conn.set_progress_handler(tick, _STEPS_PER_CHECK)
    rows = None
    texts = seq.render()
    try:
        for stmt, text in zip(seq.statements, texts):
            if stmt.form[0] == "join_project":
                _assert_join_predicates(conn, stmt.form, text)
            checks = 0
            try:
                cursor = conn.execute(text)
                if stmt.name is None:
                    rows = cursor.fetchall()
            except sqlite3.OperationalError as exc:
                pytest.fail(f"{exc} after {checks * _STEPS_PER_CHECK} steps: {text}")
    finally:
        conn.set_progress_handler(None, 0)
    for text in texts[len(seq.statements):]:
        conn.execute(text)
    assert _objects(conn) == tables
    return Counter(rows)


def _plans(spec, db):
    """The query and its plans: Base's and the rewriter's, by strategy."""
    cq = normalize(spec, db)
    tree, _ = analyze(cq)
    return cq, {"base": StatementSequence(_base_plan(cq), cq=cq, db=db),
                "rewriting": rewrite(tree, cq, db)}


def test_rendered_plans_match_the_oracle():
    n = 0
    mismatches = []
    for i, (db, spec) in enumerate(random_specs(101, 200)):
        _, plans = _plans(spec, db)
        expected = oracle_rows(spec, db)
        conn = _connect(db)
        try:
            for strategy, seq in plans.items():
                if _run_plan(conn, seq) != expected:
                    mismatches.append((i, strategy))
        finally:
            conn.close()
        n += 1
    assert n == 200 and not mismatches, f"{len(mismatches)}: {mismatches[:10]}"


def _hand_workload():
    return _hand_db(), [(f"hand/{i}", parse_query(sql)) for i, sql in enumerate(_HAND_SQL)]


@pytest.mark.parametrize("workload", [
    lambda: generate_two_regime_workload(7, 24),
    lambda: selector_wide(7, 60),
    _hand_workload,
], ids=["two_regime", "selector_wide", "hand"])
def test_rendered_plans_match_base_and_the_original_query(workload):
    db, queries = workload()
    conn = _connect(db)
    try:
        for qid, spec in queries:
            cq, plans = _plans(spec, db)
            original = Counter(conn.execute(to_sql(spec)).fetchall())
            try:
                base = result_multiset(evaluate_baseline(cq, db))
            except SmashError:  # e.g. an empty aggregate, NULL on sqlite3
                base = None
            for strategy, seq in plans.items():
                got = _run_plan(conn, seq)
                assert got == original, (qid, strategy)
                assert base is None or got == base, (qid, strategy)
    finally:
        conn.close()
