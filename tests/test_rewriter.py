"""Rewriter emission and interpretation tests."""

import sqlite3
from collections import Counter

import pytest

from smash.acyclic import analyze
from smash.augmentation import generate_two_regime_workload
from smash.engine import (
    Database,
    _base_plan,
    atom_relation,
    evaluate_baseline,
    natural_join,
)
from smash.errors import ParseError, SmashError
from smash.frontend import normalize, parse_query
from smash.rewriter import (
    Statement,
    StatementSequence,
    full_reduce,
    interpret_sequence,
    rewrite,
)

from conftest import (
    CHAIN_SQL,
    from_rows,
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


def created(seq):
    return [s.name for s in seq.statements if s.name is not None]


def rewritten(sql, db=None):
    cq = normalize(parse_query(sql), db)
    tree, _ = analyze(cq)
    return cq, tree, rewrite(tree, cq, db)


class TestEmission:
    def test_appendix_example_structure(self):
        _, _, seq = rewritten(APPENDIX_SQL)
        assert [
            (s.form[0], s.name) for s in seq.statements
        ] == [
            ("atom", "E3"),
            ("atom", "E2"),
            ("semijoin", "E3E2"),
            ("atom", "E1"),
            ("semijoin", "E3E2E1"),
            ("aggregate", None),
        ]
        text = seq.render(with_drops=False)
        # views rename every column to its class id
        assert text[0] == (
            'CREATE VIEW E3 AS SELECT Id AS "v.UserId", '
            'DownVotes AS "u.DownVotes" FROM users WHERE DownVotes = 0'
        )
        assert text[2] == (
            'CREATE TABLE E3E2 AS SELECT * FROM E3 WHERE "v.UserId" '
            'IN (SELECT "v.UserId" FROM E2)'
        )
        assert text[4] == (
            'CREATE TABLE E3E2E1 AS SELECT * FROM E3E2 '
            'WHERE "v.UserId" IN (SELECT "v.UserId" FROM E1)'
        )
        # the result, the unnamed statement, is a bare SELECT
        assert text[5] == 'SELECT MIN("v.UserId") AS EXPR$0 FROM E3E2E1'

    def test_semijoin_on_two_keys_is_a_row_value_in(self):
        _, _, seq = rewritten(
            "SELECT MIN(R.a) FROM R, S WHERE R.a = S.a AND R.b = S.b"
        )
        assert seq.render(with_drops=False)[2] == (
            'CREATE TABLE E1E2 AS SELECT * FROM E1 '
            'WHERE ("R.a", "R.b") IN (SELECT "R.a", "R.b" FROM E2)'
        )

    def test_semijoin_without_shared_columns_keeps_exists(self):
        _, _, seq = rewritten("SELECT MIN(R.a) FROM R, S")
        assert seq.render(with_drops=False)[2] == (
            'CREATE TABLE E1E2 AS SELECT * FROM E1 '
            "WHERE EXISTS (SELECT 1 FROM E2)"
        )

    def test_join_states_its_predicates(self):
        _, _, seq = rewritten(
            "SELECT R.a, T.d FROM R, S, T WHERE R.b = S.b AND S.c = T.c"
        )
        (join,) = [t for t in seq.render() if t.startswith("CREATE TABLE F")]
        assert join == (
            'CREATE TABLE F2 AS SELECT D1."R.a", D3."T.d" '
            'FROM E2E3E1, D1, D3 WHERE E2E3E1."R.b" = D1."R.b" '
            'AND E2E3E1."S.c" = D3."S.c"'
        )
        assert seq.render(with_drops=False)[-1] == 'SELECT F2."R.a", F2."T.d" FROM F2'

    def test_intra_atom_equality_keeps_one_column(self):
        _, _, seq = rewritten("SELECT MIN(Q.qty) FROM Q WHERE Q.pid = Q.qty")
        assert seq.render()[0] == (
            'CREATE VIEW E1 AS SELECT pid AS "Q.pid" FROM Q WHERE pid = qty'
        )

    def test_single_atom_aggregate(self):
        _, _, seq = rewritten("SELECT MIN(R.a) FROM R")
        assert [s.form[0] for s in seq.statements] == ["atom", "aggregate"]

    def test_count_distinct_star_is_rejected(self):
        # SQL has no COUNT(DISTINCT *); the parser rejects it as it does MIN(*)
        for sql in ("SELECT COUNT(DISTINCT *) FROM R, S WHERE R.b = S.b",
                    "SELECT MIN(*) FROM R"):
            with pytest.raises(ParseError, match=r"\*\) is not valid"):
                parse_query(sql)

    def test_atoms_without_named_columns_select_star(self):
        # planned without a database, R and S have no class column to select
        _, _, seq = rewritten("SELECT COUNT(*) FROM R, S")
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute("CREATE TABLE R (a, b)")
            conn.execute("CREATE TABLE S (c)")
            conn.executemany("INSERT INTO R VALUES (?, ?)", [(1, 2), (3, 4)])
            conn.executemany("INSERT INTO S VALUES (?)", [(5,), (6,), (7,)])
            for text in seq.render(with_drops=False):
                rows = conn.execute(text).fetchall()
        finally:
            conn.close()
        assert "CREATE VIEW E1 AS SELECT * FROM R" in seq.to_sql()
        assert rows == [(6,)]

    def test_chain_enumeration_has_topdown_and_join_phases(self):
        _, _, seq = rewritten(
            "SELECT R.a, T.d FROM R, S, T WHERE R.b = S.b AND S.c = T.c"
        )
        names = created(seq)
        assert any(n.startswith("D") for n in names)  # top-down semi-joins
        assert any(n.startswith("F") for n in names)  # bottom-up joins

    def test_drops_mirror_creates_in_reverse(self):
        # after the plan's texts, Base's and Rewriting's alike, one DROP per
        # CREATE, in reverse order, of the kind the CREATE made
        for sql in (APPENDIX_SQL, CHAIN_SQL,
                    "SELECT R.a, T.d FROM R, S, T WHERE R.b = S.b AND S.c = T.c"):
            cq, _, seq = rewritten(sql)
            for plan in (seq, StatementSequence(_base_plan(cq), cq=cq)):
                body = plan.render(with_drops=False)
                made = [text.split()[1:3] for text in body if text.startswith("CREATE ")]
                assert [name for _, name in made] == created(plan)
                assert plan.render() == body + [
                    f"DROP {kind} {name}" for kind, name in reversed(made)
                ]

    def test_without_drops(self):
        _, _, seq = rewritten(CHAIN_SQL)
        assert "DROP" not in seq.to_sql(with_drops=False)
        assert "DROP" in seq.to_sql(with_drops=True)

    def test_cast_for_string_typed_numeric_comparison(self):
        db = Database()
        db.add(from_rows("votes", ["Id", "BountyAmount"], [(1, "50"), (2, "0")]))
        _, _, seq = rewritten(
            "SELECT MIN(v.Id) FROM votes AS v WHERE v.BountyAmount >= 40", db
        )
        assert "CAST(BountyAmount AS REAL) >= 40" in seq.to_sql()

    def test_cast_keeps_fractional_values_on_sqlite(self):
        # a float below the literal's next integer: CAST(... AS INTEGER)
        # would truncate 1.5 to 1 and drop id 1
        db = Database()
        db.add(from_rows("P", ["id", "score"], [(1, "1.5"), (2, "n/a"), (3, "7")]))
        sql = "SELECT P.id FROM P WHERE P.id != 2 AND P.score > 1"
        cq, _, seq = rewritten(sql, db)
        (view,) = [t for t in seq.render() if t.startswith("CREATE VIEW")]
        assert "CAST(score AS REAL) > 1" in view
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute("CREATE TABLE P (id, score)")
            conn.executemany("INSERT INTO P VALUES (?, ?)", db.table("P").rows)
            original = conn.execute(sql).fetchall()
            conn.execute(view)
            emitted = conn.execute('SELECT "P.id" FROM E1').fetchall()
        finally:
            conn.close()
        assert Counter(emitted) == Counter(original) == Counter([(1,), (3,)])
        # the engine compares no str with a number
        with pytest.raises(SmashError, match="^cannot compare '1.5' with literal 1$"):
            evaluate_baseline(cq, db)

    def test_unique_names(self):
        _, _, seq = rewritten(APPENDIX_SQL)
        names = created(seq)
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
            Statement("X", ("semijoin", "NOPE", "ALSO_NOPE")),
        ])
        with pytest.raises(SmashError, match="^undefined intermediate 'NOPE'$"):
            interpret_sequence(broken, cq, chain_db)

    def test_a_drop_is_not_a_plan_form(self, chain_db):
        # the plan holds no drop; only `render` writes DROP text
        cq, tree, seq = rewritten(CHAIN_SQL, chain_db)
        broken = StatementSequence([*seq.statements, Statement("E1", ("drop", "E1"))])
        with pytest.raises(ValueError, match="unknown structural form 'drop'"):
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

