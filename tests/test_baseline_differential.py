"""Base as a plan against the loop it replaced, on generated queries.

The oracle is `evaluate_baseline` as it was before Base became a plan that
the engine's one statement loop runs: its own loop of atom scans and
left-deep joins in FROM order, interleaved, then `_apply_output`.  It is
kept here as `_oracle_baseline` and `_oracle_apply_output`, no longer
verbatim: the operators count nothing, so the oracle counts at its own
call sites, each operation before its operator runs and a join's output
rows after it, as the counting inside the operators did.  On acceptance
1's corpus, samples of both benchmark workloads and hand-written queries
that raise, Base must return the oracle's rows in the same order (compared
by repr), its schema and relation name, and equal `OpCounter` fields; a
query that raises must raise the same exception type with the same message
and leave equal `OpCounter` fields, except where a later atom's scan raises
after the oracle's first join (see `test_raising_queries`).  A shape test
pins Base's statement forms.
"""

from dataclasses import asdict

import pytest

from smash.augmentation import generate_two_regime_workload
from smash.engine import (
    Database,
    OpCounter,
    Relation,
    _base_plan,
    atom_relation,
    evaluate_baseline,
    group_aggregate,
    natural_join,
    project,
)
from smash.errors import SmashError
from smash.frontend import normalize, parse_query

from conftest import CHAIN_SQL, from_rows, random_specs, selector_wide

# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def _oracle_apply_output(rel: Relation, output, counter: OpCounter) -> Relation:
    if output.kind == "enumeration":
        return project(rel, output.columns)
    counter.aggregates += 1
    return group_aggregate(rel, output.group_by, output.aggregates)


def _oracle_baseline(cq, db: Database, counter: OpCounter) -> Relation:
    """Filters, then left-deep natural joins in FROM order, then output."""
    rel = None
    for atom in cq.atoms:
        r = atom_relation(cq, atom, db)
        if cq.filters.get(atom.alias):
            counter.filters += 1
        if rel is None:
            rel = r
        else:
            counter.joins += 1
            rel = natural_join(rel, r)
            counter.intermediate_tuples += len(rel)
    return _oracle_apply_output(rel, cq.output, counter)


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def _outcome(evaluate, cq, db):
    """(rows by repr, schema, name, OpCounter fields), or (type, message,
    OpCounter fields) of the error it raises."""
    counter = OpCounter()
    try:
        rel = evaluate(cq, db, counter)
    except Exception as exc:
        return type(exc), str(exc), asdict(counter)
    return repr(rel.rows), rel.schema, rel.name, asdict(counter)


def _compare(db, specs):
    """Outcomes that differ, by index, and the errors seen, as (type,
    message)."""
    differ = []
    raised = set()
    for i, spec in enumerate(specs):
        cq = normalize(spec, db)
        expected = _outcome(_oracle_baseline, cq, db)
        if _outcome(evaluate_baseline, cq, db) != expected:
            differ.append(i)
        if isinstance(expected[0], type):
            raised.add(expected[:2])
    return differ, raised


def test_acceptance_corpus():
    differ = []
    for i, (db, spec) in enumerate(random_specs(101, 200)):
        if _compare(db, [spec])[0]:
            differ.append(i)
    assert not differ, differ[:10]


@pytest.mark.parametrize("workload", [
    lambda: generate_two_regime_workload(7, 24),
    lambda: selector_wide(7, 60),
], ids=["two_regime", "selector_wide"])
def test_benchmark_workloads(workload):
    db, queries = workload()
    differ, _ = _compare(db, [spec for _, spec in queries])
    assert not differ, [queries[i][0] for i in differ[:10]]


def test_raising_queries():
    db = Database()
    # T holds strs, which a filter with an int literal does not compare with
    db.add(from_rows("T", ["a", "b"], [("t", "s"), ("u", "v"), ("w", "x")]))
    db.add(from_rows("V", ["a", "b"], [(1, 4), (2, 5), (3, 7)]))
    db.add(from_rows("W", ["a", "s"], [(1, "x"), (2, "y")]))
    specs = [parse_query(sql) for sql in (
        # the second atom's filter fails after the first scan
        "SELECT V.a FROM V, T WHERE V.a = T.a AND T.b > 0",
        # the third atom's filter fails after a join
        "SELECT V.a FROM V, W, T WHERE V.a = W.a AND W.a = T.a AND T.a > 0",
        "SELECT MIN(V.a) FROM V, W WHERE V.a = W.a AND W.zzz > 0",
        "SELECT V.a, W.zzz FROM V, W WHERE V.a = W.zzz",
        "SELECT MIN(V.a) FROM V, W WHERE V.a = W.a AND V.a > 9",
        "SELECT SUM(W.s) FROM V, W WHERE V.a = W.a",
    )]
    differ, raised = _compare(db, specs)
    assert differ == [1], differ
    assert raised == {(SmashError, message) for message in (
        "cannot compare 's' with literal 0", "cannot compare 't' with literal 0",
        "W has no column zzz", "aggregate over empty ungrouped relation",
        "sum(W.s) over non-numeric values")}
    # Base scans every atom before its first join, so T's filter raises
    # before V and W are joined; the oracle had joined them by then
    cq = normalize(specs[1], db)
    base = _outcome(evaluate_baseline, cq, db)
    oracle = _outcome(_oracle_baseline, cq, db)
    assert base[:2] == oracle[:2]
    assert base[2] == asdict(OpCounter())
    assert oracle[2] == dict(asdict(OpCounter()), joins=1, intermediate_tuples=2)


class TestBasePlanShape:
    @staticmethod
    def forms(sql, db):
        return [tuple(s) for s in _base_plan(normalize(parse_query(sql), db))]

    def test_one_atom(self, chain_db):
        assert self.forms("SELECT R.a FROM R", chain_db) == [
            ("E1", ("atom", 0)),
            ("F1", ("join_project", "E1", [], [])),
            (None, ("join_project", "F1", [], ["R.a"])),
        ]

    def test_enumeration(self, chain_db):
        sql = "SELECT R.a, T.d FROM R, S, T WHERE R.b = S.b AND S.c = T.c"
        assert self.forms(sql, chain_db) == [
            ("E1", ("atom", 0)),
            ("E2", ("atom", 1)),
            ("E3", ("atom", 2)),
            ("F1", ("join_project", "E1", ["E2", "E3"], [])),
            (None, ("join_project", "F1", [], ["R.a", "T.d"])),
        ]

    def test_aggregate(self, chain_db):
        plan = self.forms(CHAIN_SQL, chain_db)
        assert plan[3:5] == [
            ("F1", ("join_project", "E1", ["E2", "E3"], [])),
            (None, ("aggregate", "F1")),
        ]
        assert [form[0] for _, form in plan] == [
            "atom", "atom", "atom", "join_project", "aggregate",
        ]
