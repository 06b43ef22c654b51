"""Relational engine unit tests."""

from collections import Counter

import pytest

from smash.engine import (
    Aggregate,
    Database,
    OpCounter,
    Predicate,
    Relation,
    atom_relation,
    estimate_cardinalities,
    evaluate_baseline,
    group_aggregate,
    load_database,
    load_table,
    natural_join,
    project,
    save_database,
    semi_join,
)
from smash.errors import EmptyAggregate, TypeMismatch, UnknownAttribute
from smash.acyclic import analyze
from smash.frontend import parse_query, normalize
from smash.harness import BASE, REWRITING, RunConfig, run_workload
from smash.rewriter import interpret_sequence, rewrite

from conftest import CHAIN_SQL, oracle_rows, result_multiset


def rel(name, schema, rows):
    return Relation(name, schema, rows)


class TestRelation:
    def test_duplicate_schema_rejected(self):
        with pytest.raises(ValueError):
            rel("x", ["a", "a"], [])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rel("x", ["a", "b"], [(1,)])

    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttribute):
            rel("x", ["a"], [(1,)]).column("b")


class TestOperators:
    def test_filter_keeps_duplicates(self):
        db = Database()
        db.add(rel("x", ["a"], [(1,), (1,), (2,)]))
        for sql, expected in [("SELECT x.a FROM x WHERE x.a >= 1", [(1,), (1,), (2,)]),
                              ("SELECT x.a FROM x WHERE x.a = 1", [(1,), (1,)])]:
            cq = normalize(parse_query(sql), db)
            counter = OpCounter()
            out = atom_relation(cq, cq.atoms[0], db, counter)
            assert out.schema == ["x.a"]
            assert sorted(out.rows) == expected
            assert counter.filters == 1

    def test_semi_join_no_duplication(self):
        left = rel("l", ["a"], [(1,), (1,), (2,)])
        right = rel("r", ["a", "b"], [(1, 1), (1, 2)])
        out = semi_join(left, right)
        # bag semantics on the left side; right multiplicity is irrelevant
        assert sorted(out.rows) == [(1,), (1,)]
        assert out.schema == ["a"]

    def test_natural_join_bag_semantics(self):
        left = rel("l", ["a", "b"], [(1, 1), (1, 1)])
        right = rel("r", ["b", "c"], [(1, 5), (1, 6)])
        out = natural_join(left, right)
        assert len(out) == 4
        assert Counter(out.rows) == Counter({(1, 1, 5): 2, (1, 1, 6): 2})

    def test_cartesian_when_no_shared_attrs(self):
        left = rel("l", ["a"], [(1,), (2,)])
        right = rel("r", ["b"], [(7,)])
        out = natural_join(left, right)
        assert Counter(out.rows) == Counter([(1, 7), (2, 7)])

    def test_project_keeps_duplicates(self):
        r = rel("x", ["a", "b"], [(1, 1), (1, 2)])
        out = project(r, ["a"])
        assert Counter(out.rows) == Counter({(1,): 2})

    def test_op_counter(self):
        c = OpCounter()
        left = rel("l", ["a"], [(1,)])
        right = rel("r", ["a"], [(1,)])
        semi_join(left, right, c)
        natural_join(left, right, c)
        assert c.semijoins == 1 and c.joins == 1


class TestAggregates:
    def test_count_star_vs_count_column(self):
        r = rel("x", ["g", "a"], [(1, 5), (1, 5), (2, 7)])
        out = group_aggregate(r, ["g"], [Aggregate("COUNT", None)])
        assert Counter(out.rows) == Counter([(1, 2), (2, 1)])
        out = group_aggregate(r, ["g"], [Aggregate("COUNT", "a", distinct=True)])
        assert Counter(out.rows) == Counter([(1, 1), (2, 1)])

    def test_min_max_sum_avg(self):
        r = rel("x", ["a"], [(1,), (2,), (3,)])
        out = group_aggregate(r, [], [
            Aggregate("MIN", "a"), Aggregate("MAX", "a"),
            Aggregate("SUM", "a"), Aggregate("AVG", "a"),
        ])
        assert out.rows == [(1, 3, 6, 2.0)]

    def test_empty_ungrouped_raises(self):
        r = rel("x", ["a"], [])
        with pytest.raises(EmptyAggregate):
            group_aggregate(r, [], [Aggregate("MIN", "a")])

    def test_empty_grouped_is_empty(self):
        r = rel("x", ["g", "a"], [])
        out = group_aggregate(r, ["g"], [Aggregate("MIN", "a")])
        assert out.rows == []


class TestEvaluation:
    def test_chain_baseline_matches_oracle(self, chain_db):
        spec = parse_query(CHAIN_SQL)
        cq = normalize(spec, chain_db)
        got = result_multiset(evaluate_baseline(cq, chain_db))
        assert got == oracle_rows(spec, chain_db) == Counter([(1,)])

    def test_chain_pre_aggregation_tuple(self, chain_db):
        spec = parse_query(
            "SELECT R.a, R.b, S.c, T.d FROM R, S, T "
            "WHERE R.b = S.b AND S.c = T.c"
        )
        cq = normalize(spec, chain_db)
        got = result_multiset(evaluate_baseline(cq, chain_db))
        assert got == Counter([(1, 1, 10, 100)])


class TestEstimates:
    def test_join_estimate_formula(self):
        db = Database()
        db.add(rel("A", ["x"], [(1,), (2,), (3,), (3,)]))  # 4 rows, ndv 3
        db.add(rel("B", ["x", "y"], [(1, 1), (2, 1)]))  # 2 rows, ndv 2
        spec = parse_query("SELECT MIN(B.y) FROM A, B WHERE A.x = B.x")
        est = estimate_cardinalities(normalize(spec, db), db)
        assert est.table_rows == [4, 2]
        # |A|*|B| / max(ndv_A(x), ndv_B(x)) = 4*2/3
        assert est.join_rows == [pytest.approx(8 / 3)]
        assert est.total_cost == pytest.approx(4 + 2 + 8 / 3)

    def test_estimates_use_post_filter_counts(self, chain_db):
        spec = parse_query(
            "SELECT MIN(R.a) FROM R, S WHERE R.b = S.b AND R.a >= 2"
        )
        est = estimate_cardinalities(normalize(spec, chain_db), chain_db)
        assert est.table_rows[0] == 1


class TestFilterTypes:
    """A filter compares a value with a literal only if both are numbers or
    neither is (bools are not numbers).  Rows are checked in table order and
    predicates in query order; a row dropped by an intra-atom equality or an
    earlier predicate is never compared.  The estimator and the evaluator
    agree on all of it."""

    @pytest.fixture
    def mixed_db(self):
        db = Database()
        db.add(rel("T", ["a", "b"], [(5, "s"), ("t", 3), (1, 1)]))
        db.add(rel("B", ["f", "n"], [(True, 1), (False, 0), (True, 2)]))
        db.add(rel("U", ["a", "b"], [("s", 5), (3, "t"), (2, 2)]))
        db.add(rel("V", ["a", "b"], [(1, "s"), (2, 5), (3, 7)]))
        return db

    @staticmethod
    def outcomes(db, sql, literal=None):
        """[estimated table rows, sorted result rows], or the error of each."""
        cq = normalize(parse_query(sql), db)
        if literal is not None:
            (alias, [pred]), = cq.filters.items()
            cq.filters[alias] = [Predicate(pred.attribute, pred.op, literal)]
        out = []
        for fn in (estimate_cardinalities, evaluate_baseline):
            try:
                result = fn(cq, db)
            except Exception as exc:
                out.append((type(exc), str(exc)))
            else:
                out.append(result.table_rows if fn is estimate_cardinalities
                           else sorted(result.rows))
        return out

    @pytest.mark.parametrize("sql,message", [
        # the first row in table order that reaches a mismatch is named
        ("SELECT T.a FROM T WHERE T.a > 0 AND T.b > 0", "'s' with literal 0"),
        ("SELECT T.a FROM T WHERE T.b > 0 AND T.a > 0", "'s' with literal 0"),
        ("SELECT T.a FROM T WHERE T.a = 1 AND T.b > 0", "'t' with literal 1"),
        ("SELECT T.a FROM T WHERE T.b = 3 AND T.a = 't'", "'s' with literal 3"),
        ("SELECT U.a FROM U WHERE U.b = 2 AND U.a > 1", "'t' with literal 2"),
        ("SELECT U.a FROM U WHERE U.a != 's' AND U.a > 2", "3 with literal 's'"),
    ])
    def test_mixed_column_raises(self, mixed_db, sql, message):
        expected = (TypeMismatch, f"cannot compare {message}")
        assert self.outcomes(mixed_db, sql) == [expected] * 2

    def test_row_removed_by_earlier_predicate_is_not_compared(self, mixed_db):
        sql = "SELECT V.a FROM V WHERE V.a > 1 AND V.b > 6"
        assert self.outcomes(mixed_db, sql) == [[1], [(3,)]]

    def test_row_removed_by_intra_atom_equality_is_not_compared(self, mixed_db):
        for sql in ("SELECT T.a FROM T WHERE T.a = T.b AND T.b > 0",
                    "SELECT T.a FROM T WHERE T.a = T.b AND T.a = 1"):
            assert self.outcomes(mixed_db, sql) == [[1], [(1,)]]

    def test_bool_values_and_literals_are_not_numbers(self, mixed_db):
        db = mixed_db
        assert self.outcomes(db, "SELECT B.n FROM B WHERE B.n = 1") == [[1], [(1,)]]
        assert self.outcomes(db, "SELECT B.n FROM B WHERE B.f = 1") == [
            (TypeMismatch, "cannot compare True with literal 1")] * 2
        assert self.outcomes(db, "SELECT B.n FROM B WHERE B.f = 1", True) == [
            [2], [(1,), (2,)]]
        assert self.outcomes(db, "SELECT B.n FROM B WHERE B.n = 1", True) == [
            (TypeMismatch, "cannot compare 1 with literal True")] * 2
        assert self.outcomes(db, "SELECT B.n FROM B WHERE B.n = 1", 1.0) == [[1], [(1,)]]

    def test_unknown_column_raises(self, mixed_db):
        cq = normalize(parse_query("SELECT MIN(T.zzz) FROM T"), mixed_db)
        with pytest.raises(UnknownAttribute, match="zzz"):
            estimate_cardinalities(cq, mixed_db)

    def test_unknown_join_column_raises_in_execution_too(self, mixed_db):
        # V has no column zzz; the join class names it only through V's
        # renaming, so no relation column is missing and, unchecked, the
        # join would run as T x V
        sql = "SELECT T.a, V.zzz FROM T, V WHERE T.a = V.zzz"
        spec = parse_query(sql)
        cq = normalize(spec, mixed_db)
        seq = rewrite(analyze(cq)[0], cq, mixed_db)
        for run in (lambda: estimate_cardinalities(cq, mixed_db),
                    lambda: evaluate_baseline(cq, mixed_db),
                    lambda: interpret_sequence(seq, cq, mixed_db)):
            with pytest.raises(UnknownAttribute, match="^V has no column zzz$"):
                run()
        log = run_workload(mixed_db, [("q", spec)], RunConfig(repeats=1))
        assert [(e.strategy, e.skipped, e.reason) for e in log.entries] == [
            (BASE, True, "V has no column zzz"),
            (REWRITING, True, "V has no column zzz"),
        ]

    def test_unordered_types_raise_type_error(self, mixed_db):
        message = "'<' not supported between instances of 'bool' and 'str'"
        assert self.outcomes(mixed_db, "SELECT B.n FROM B WHERE B.f < 1", "x") == [
            (TypeError, message)] * 2


class TestPersistence:
    def test_csv_round_trip(self, tmp_path, chain_db):
        save_database(chain_db, tmp_path)
        back = load_database(tmp_path)
        assert set(back.tables) == {"R", "S", "T"}
        for name in back.tables:
            assert back.table(name).rows == chain_db.table(name).rows
            assert back.table(name).schema == chain_db.table(name).schema

    def test_string_columns_survive(self, tmp_path, toy_db):
        save_database(toy_db, tmp_path)
        back = load_database(tmp_path)
        assert back.table("badges").column("Name")[:2] == ["gold", "silver"]

    def test_round_trip_keeps_rows_and_types(self, tmp_path):
        db = Database()
        db.add(Relation("mixed", ["i", "f", "s", "n"], [
            (1, 0.5, "a", -3), (20, 1e-07, "3x", 0), (-4, 2.0, "", 7)]))
        db.add(Relation("empty", ["x", "y"], []))
        save_database(db, tmp_path)
        back = load_database(tmp_path)
        for name, rel in db.tables.items():
            assert back.table(name).schema == rel.schema
            assert repr(back.table(name).rows) == repr(rel.rows), name

    @pytest.mark.parametrize("body, fields", [("3,4,5\n", 3), ("3\n", 1)])
    def test_ragged_row_rejected(self, tmp_path, body, fields):
        path = tmp_path / "R.csv"
        path.write_text("a,b\n1,2\n" + body)
        with pytest.raises(ValueError) as info:
            load_table(path)
        assert str(info.value) == (
            f"{path}, line 3: {fields} fields, but the header has 2")

    def test_ragged_row_rejected_with_a_sidecar_schema(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("a,b\n1,2,3\n")
        sidecar = tmp_path / "R.schema.json"
        sidecar.write_text('{"a": "int64", "b": "string"}')
        with pytest.raises(ValueError, match="line 2: 3 fields"):
            load_table(path, schema_file=sidecar)
