"""Rewriter emission and interpretation tests."""

import sqlite3
from collections import Counter

import pytest

from smash.acyclic import analyze
from smash.augmentation import generate_two_regime_workload
from smash.engine import (
    Database,
    Relation,
    atom_relation,
    evaluate_baseline,
    natural_join,
)
from smash.errors import ParseError, UndefinedIntermediate
from smash.frontend import normalize, parse_query
from smash.rewriter import (
    Statement,
    StatementSequence,
    full_reduce,
    interpret_sequence,
    parse_statement,
    rewrite,
)

from conftest import (
    CHAIN_SQL,
    oracle_rows,
    random_specs,
    result_multiset,
    selector_wide,
)

APPENDIX_SQL = (
    "SELECT MIN(u.Id) FROM votes AS v, badges AS b, users AS u "
    "WHERE u.Id = v.UserId AND v.UserId = b.UserId "
    "AND v.BountyAmount >= 0 AND v.BountyAmount <= 50 AND u.DownVotes = 0"
)


def rewritten(sql, db=None):
    cq = normalize(parse_query(sql), db)
    tree, _ = analyze(cq)
    return cq, tree, rewrite(tree, cq, db)


class TestEmission:
    def test_appendix_example_structure(self):
        _, _, seq = rewritten(APPENDIX_SQL)
        body = [s for s in seq.statements if s.kind != "Drop"]
        assert [
            (s.kind, s.name) for s in body
        ] == [
            ("CreateView", "E3"),
            ("CreateView", "E2"),
            ("CreateTable", "E3E2"),
            ("CreateView", "E1"),
            ("CreateTable", "E3E2E1"),
            ("FinalSelect", None),
        ]
        assert "users.DownVotes = 0" in body[0].sql
        assert "WHERE EXISTS (SELECT 1 FROM E2 WHERE E3.Id = E2.UserId)" in body[2].sql
        assert "MIN(" in body[4].sql and "EXPR$0" in body[4].sql
        assert body[5].sql == "SELECT * FROM E3E2E1"

    def test_single_atom_aggregate(self):
        _, _, seq = rewritten("SELECT MIN(R.a) FROM R")
        body = [s for s in seq.statements if s.kind != "Drop"]
        assert [s.kind for s in body] == [
            "CreateView", "CreateTable", "FinalSelect"
        ]

    def test_chain_enumeration_has_topdown_and_join_phases(self):
        _, _, seq = rewritten(
            "SELECT R.a, T.d FROM R, S, T WHERE R.b = S.b AND S.c = T.c"
        )
        names = seq.created_names()
        assert any(n.startswith("D") for n in names)  # top-down semi-joins
        assert any(n.startswith("F") for n in names)  # bottom-up joins

    def test_drops_mirror_creates_in_reverse(self):
        _, _, seq = rewritten(APPENDIX_SQL)
        assert seq.dropped_names() == list(reversed(seq.created_names()))

    def test_without_drops(self):
        _, _, seq = rewritten(CHAIN_SQL)
        assert "DROP" not in seq.to_sql(with_drops=False)
        assert "DROP" in seq.to_sql(with_drops=True)

    def test_unlogged_flag(self):
        cq = normalize(parse_query(CHAIN_SQL))
        tree, _ = analyze(cq)
        assert "UNLOGGED" in rewrite(tree, cq).to_sql()
        assert "UNLOGGED" not in rewrite(tree, cq, unlogged=False).to_sql()

    def test_cast_for_string_typed_numeric_comparison(self):
        db = Database()
        db.add(Relation("votes", ["Id", "BountyAmount"], [(1, "50"), (2, "0")]))
        _, _, seq = rewritten(
            "SELECT MIN(v.Id) FROM votes AS v WHERE v.BountyAmount >= 40", db
        )
        assert "CAST(votes.BountyAmount AS REAL) >= 40" in seq.to_sql()

    def test_cast_keeps_fractional_values_on_sqlite(self):
        # a float below the literal's next integer: CAST(... AS INTEGER)
        # would truncate 1.5 to 1 and drop id 1
        db = Database()
        db.add(Relation("P", ["id", "score"], [(1, 1.5), (2, "n/a"), (3, 7)]))
        sql = "SELECT P.id FROM P WHERE P.id != 2 AND P.score > 1"
        cq, _, seq = rewritten(sql, db)
        (view,) = [s for s in seq.statements if s.kind == "CreateView"]
        assert "CAST(P.score AS REAL) > 1" in view.sql
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute("CREATE TABLE P (id, score)")
            conn.executemany("INSERT INTO P VALUES (?, ?)", db.table("P").rows)
            original = conn.execute(sql).fetchall()
            conn.execute(view.sql)
            emitted = conn.execute(f"SELECT id FROM {view.name}").fetchall()
        finally:
            conn.close()
        engine = evaluate_baseline(cq, db).rows
        assert Counter(emitted) == Counter(original) == Counter(engine) == \
            Counter([(1,), (3,)])

    def test_statement_texts_reparse(self):
        quoted = "SELECT MIN(u.Id) FROM users AS u WHERE u.Name = 'it''s'"
        for sql in (APPENDIX_SQL, CHAIN_SQL, quoted):
            _, _, seq = rewritten(sql)
            for stmt in seq.statements:
                parse_statement(stmt.sql)  # raises ParseError on failure

    def test_unique_names(self):
        _, _, seq = rewritten(APPENDIX_SQL)
        names = seq.created_names()
        assert len(names) == len(set(names))


class TestInterpretation:
    def test_chain_0ma_result(self, chain_db):
        cq, tree, seq = rewritten(CHAIN_SQL, chain_db)
        out = interpret_sequence(seq, cq, chain_db)
        assert out.rows == [(1,)]

    def test_appendix_on_toy_db(self, toy_db):
        sql = (
            "SELECT MIN(u.Id) FROM votes AS v, badges AS b, users AS u "
            "WHERE u.Id = v.UserId AND v.UserId = b.UserId "
            "AND v.BountyAmount >= 0 AND u.DownVotes = 0"
        )
        cq, tree, seq = rewritten(sql, toy_db)
        base = evaluate_baseline(cq, toy_db)
        got = interpret_sequence(seq, cq, toy_db)
        assert result_multiset(got) == result_multiset(base)
        assert result_multiset(got) == oracle_rows(parse_query(sql), toy_db)

    def test_equivalence_on_generated_queries(self):
        for db, spec in random_specs(23, 30):
            cq = normalize(spec, db)
            tree, _ = analyze(cq)
            seq = rewrite(tree, cq, db)
            try:
                got = result_multiset(interpret_sequence(seq, cq, db))
                expected = result_multiset(evaluate_baseline(cq, db))
            except Exception as a:
                with pytest.raises(type(a)):
                    evaluate_baseline(cq, db)
                continue
            assert got == expected

    def test_dangling_reference_raises(self, chain_db):
        cq, tree, seq = rewritten(CHAIN_SQL, chain_db)
        broken = StatementSequence([
            Statement("CreateTable", "X", "CREATE TABLE X AS SELECT ...",
                      ("semijoin", "NOPE", "ALSO_NOPE")),
        ])
        with pytest.raises(UndefinedIntermediate):
            interpret_sequence(broken, cq, chain_db)


class TestFullReduce:
    """The plan's semi-join passes on benchmark-shaped workloads, whose
    tables are too large for the brute-force oracle of acceptance 2."""

    @pytest.mark.parametrize("workload", [
        lambda: generate_two_regime_workload(7, 24),
        lambda: selector_wide(7, 60),
    ], ids=["two_regime", "selector_wide"])
    def test_reduced_relations_are_projections_of_the_join(self, workload):
        db, queries = workload()
        for qid, spec in queries:
            cq = normalize(spec, db)
            tree, _ = analyze(cq)
            joined = None
            for atom in cq.atoms:
                rel = atom_relation(cq, atom, db)
                joined = rel if joined is None else natural_join(joined, rel)
            reduced = full_reduce(tree, cq, db)
            assert sorted(reduced) == sorted(tree.nodes), qid
            for node, rel in reduced.items():
                idx = [joined.schema.index(a) for a in rel.schema]
                expected = {tuple(r[i] for i in idx) for r in joined.rows}
                assert set(rel.rows) == expected, (qid, node)


class TestStatementParser:
    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_statement("FROBNICATE THE TABLES")

    def test_rejects_non_ascii_digits(self):
        parse_statement("SELECT * FROM A WHERE A.x = 3")
        with pytest.raises(ParseError):
            parse_statement("SELECT * FROM A WHERE A.x = \u0663")
        with pytest.raises(ParseError):
            parse_statement('SELECT "A.x#\u0663" FROM A')

    def test_accepts_exists_form(self):
        parse_statement(
            "CREATE UNLOGGED TABLE A AS SELECT * FROM B "
            "WHERE EXISTS (SELECT 1 FROM C WHERE B.x = C.x)"
        )
