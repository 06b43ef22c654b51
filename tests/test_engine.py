"""Relational engine unit tests."""

import operator
from array import array
from collections import Counter

import pytest

from smash.engine import (
    Aggregate,
    Database,
    OpCounter,
    Predicate,
    Relation,
    Table,
    _select,
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
from smash.errors import SmashError
from smash.acyclic import analyze
from smash.frontend import parse_query, normalize
from smash.harness import BASE, REWRITING, RunConfig, run_workload
from smash.rewriter import Statement, StatementSequence, interpret_sequence, rewrite

from conftest import CHAIN_SQL, from_rows, oracle_rows, result_multiset


def rel(name, schema, rows):
    return Relation(name, schema, rows)


class TestDatabaseAdd:
    """A table is checked once, as it enters a database."""

    def test_duplicate_schema_rejected(self):
        with pytest.raises(ValueError):
            Database().add(from_rows("x", ["a", "a"], []))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Database().add(from_rows("x", ["a", "b"], [(1,)]))

    def test_list_rows_are_stored_as_tuples(self):
        rows = [[1, "u"], [2, "v"]]
        db = Database()
        db.add(from_rows("x", ("a", "b"), rows))
        table = db.table("x")
        assert table.schema == ["a", "b"]
        assert table.rows == [(1, "u"), (2, "v")]  # a list never equals a tuple
        assert table.rows is not rows

    def test_columns_are_stored_as_given(self):
        columns = [[1, 1000, 1000], ["u", "v", "u"], range(3), array("H", [7, 7, 9])]
        db = Database()
        db.add(Table("x", ["a", "b", "c", "d"], columns))
        table = db.table("x")
        assert table.columns is columns
        assert all(map(operator.is_, table.columns, columns))
        assert db.stats["x"].ndv == {"a": 2, "b": 2, "c": 3, "d": 2}
        assert db.stats["x"].rows == 3
        assert table.rows == [(1, "u", 0, 7), (1000, "v", 1, 7), (1000, "u", 2, 9)]

    def test_a_column_of_another_type_is_rejected_and_not_stored(self):
        db = Database()
        for column, kind in [({1, 2}, "set"), ((v for v in [1, 2]), "generator"),
                             ((1, 2), "tuple")]:
            with pytest.raises(SmashError, match=(
                    f"^column b of table s is a {kind}, not a list, array or range$")):
                db.add(Table("s", ["a", "b"], [[1, 2], column]))
            assert "s" not in db.tables and "s" not in db.stats
        # a failure while the statistics are computed leaves no table either
        with pytest.raises(TypeError, match="unhashable"):
            db.add(Table("s", ["a"], [[[1], [2]]]))
        assert "s" not in db.tables and "s" not in db.stats
        db.add(Table("s", ["a", "b"], [[1, 2], [3, 4]]))
        assert db.table("s").rows == [(1, 3), (2, 4)] and db.stats["s"].rows == 2

    def test_ragged_row_names_the_table(self):
        db = Database()
        with pytest.raises(ValueError, match="^column b has 2 values, column a 3, in table ragged$"):
            db.add(Table("ragged", ["a", "b"], [[1, 3, 6], [2, 4]]))
        assert "ragged" not in db.tables


class TestRelation:
    def test_unknown_attribute(self):
        for named in (rel("x", ["a"], [(1,)])._index, from_rows("x", ["a"], [(1,)]).column):
            with pytest.raises(SmashError, match=r"^b not in x\('a',\)$"):
                named("b")


class TestOperators:
    def test_filter_keeps_duplicates(self):
        db = Database()
        db.add(from_rows("x", ["a"], [(1,), (1,), (2,)]))
        for sql, expected in [("SELECT x.a FROM x WHERE x.a >= 1", [(1,), (1,), (2,)]),
                              ("SELECT x.a FROM x WHERE x.a = 1", [(1,), (1,)])]:
            cq = normalize(parse_query(sql), db)
            out = atom_relation(cq, cq.atoms[0], db)
            assert out.schema == ["x.a"]
            assert sorted(out.rows) == expected

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
        """The statement loop counts every counted form of a plan."""
        db = Database()
        db.add(from_rows("R", ["a", "b"], [(1, 1), (1, 2), (2, 2), (3, 9)]))
        db.add(from_rows("S", ["b", "c"], [(1, 5), (2, 5), (2, 6), (4, 7)]))
        db.add(from_rows("T", ["c", "d"], [(5, 0), (6, 0), (6, 1)]))
        cq = normalize(parse_query(
            "SELECT R.a, COUNT(*) FROM R, S, T "
            "WHERE R.b = S.b AND S.c = T.c AND R.a <= 2 GROUP BY R.a"), db)
        plan = StatementSequence([
            Statement("E1", ("atom", 0)),  # filtered: 3 rows
            Statement("E2", ("atom", 1)),
            Statement("E3", ("atom", 2)),
            Statement("S1", ("semijoin", "E2", "E3")),  # 3 rows
            Statement("S2", ("semijoin", "E1", "S1")),  # 3 rows
            Statement("A1", ("aggregate", "S2")),
            Statement("A2", ("aggregate", "E1")),
            Statement("F1", ("join_project", "E1", ["E2", "E3"], [])),  # 5, then 7 rows
            Statement(None, ("aggregate", "F1")),
        ])
        counter = OpCounter()
        out = interpret_sequence(plan, cq, db, counter)
        assert sorted(out.rows) == [(1, 4), (2, 3)]
        assert counter == OpCounter(joins=2, semijoins=2, filters=1, aggregates=3,
                                    intermediate_tuples=3 + 3 + 5 + 7)


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
        with pytest.raises(SmashError, match="^aggregate over empty ungrouped relation$"):
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

    def test_no_result_shares_a_table_list(self):
        # an atom scan keeps the base rows of a table whose columns are all
        # classes of their own; each result must still own its list
        db = Database()
        db.add(from_rows("x", ["a", "b"], [(1, 2), (1, 2), (3, 4)]))
        table = db.table("x")
        before = list(table.rows)
        cq = normalize(parse_query("SELECT x.a, x.b FROM x"), db)
        tree, _ = analyze(cq)
        bare_atom = StatementSequence([Statement(None, ("atom", 0))])
        results = {
            "base": evaluate_baseline(cq, db),
            "rewriting": interpret_sequence(rewrite(tree, cq, db), cq, db),
            "bare atom": interpret_sequence(bare_atom, cq, db),
        }
        for name, result in results.items():
            assert result.rows is not table.rows, name
            assert result.rows == before, name
            result.rows.clear()
        assert table.rows == before


class TestEstimates:
    def test_join_estimate_formula(self):
        db = Database()
        db.add(from_rows("A", ["x"], [(1,), (2,), (3,), (3,)]))  # 4 rows, ndv 3
        db.add(from_rows("B", ["x", "y"], [(1, 1), (2, 1)]))  # 2 rows, ndv 2
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
        db.add(from_rows("T", ["a", "b"], [(5, "s"), ("t", 3), (1, 1)]))
        db.add(from_rows("B", ["f", "n"], [(True, 1), (False, 0), (True, 2)]))
        db.add(from_rows("U", ["a", "b"], [("s", 5), (3, "t"), (2, 2)]))
        db.add(from_rows("V", ["a", "b"], [(1, "s"), (2, 5), (3, 7)]))
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
        expected = (SmashError, f"cannot compare {message}")
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
            (SmashError, "cannot compare True with literal 1")] * 2
        assert self.outcomes(db, "SELECT B.n FROM B WHERE B.f = 1", True) == [
            [2], [(1,), (2,)]]
        assert self.outcomes(db, "SELECT B.n FROM B WHERE B.n = 1", True) == [
            (SmashError, "cannot compare 1 with literal True")] * 2
        assert self.outcomes(db, "SELECT B.n FROM B WHERE B.n = 1", 1.0) == [[1], [(1,)]]

    def test_unknown_column_raises(self, mixed_db):
        cq = normalize(parse_query("SELECT MIN(T.zzz) FROM T"), mixed_db)
        with pytest.raises(SmashError, match="zzz"):
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
            with pytest.raises(SmashError, match="^V has no column zzz$"):
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

    def test_select_returns_the_error_of_a_bool_literal(self):
        # strings are plain for a str literal, not for a bool one
        values = ["s", "t"]
        assert _select(values, range(2), Predicate("a", "!=", True)) == ([0, 1], None)
        kept, exc = _select(values, range(2), Predicate("a", "<", True))
        assert kept == [] and isinstance(exc, TypeError)


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
        db.add(from_rows("mixed", ["i", "f", "s", "n"], [
            (1, 0.5, "a", -3), (20, 1e-07, "3x", 0), (-4, 2.0, "", 7)]))
        db.add(from_rows("empty", ["x", "y"], []))
        save_database(db, tmp_path)
        back = load_database(tmp_path)
        for name, rel in db.tables.items():
            assert back.table(name).schema == rel.schema
            assert repr(back.table(name).rows) == repr(rel.rows), name

    def test_digit_strings_stay_strings(self, tmp_path):
        db = Database()
        db.add(from_rows("codes", ["s", "f", "e"], [("007", 1.0, ""), ("12", 2.5, "1")]))
        save_database(db, tmp_path)
        back = load_database(tmp_path).table("codes")
        assert back.columns == [["007", "12"], [1.0, 2.5], ["", "1"]]

    @pytest.mark.parametrize("values, kinds", [
        ([True, False], "bool"), ([1, "1"], "int and str"), ([1, 2.0], "float and int"),
    ])
    def test_a_column_a_csv_cannot_keep_is_rejected_before_any_file(
            self, tmp_path, chain_db, values, kinds):
        chain_db.add(from_rows("X", ["a", "x"], [(1, v) for v in values]))
        with pytest.raises(SmashError) as info:
            save_database(chain_db, tmp_path / "out")
        assert str(info.value) == (
            f"X: column 'x' holds {kinds} values, but a saved column holds "
            "only ints, only floats or only strs")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body, fields", [("3,4,5\n", 3), ("3\n", 1)])
    def test_ragged_row_rejected(self, tmp_path, body, fields):
        path = tmp_path / "R.csv"
        path.write_text("a,b\n1,2\n" + body)
        with pytest.raises(ValueError) as info:
            load_table(path)
        assert str(info.value) == (
            f"{path}, line 3: {fields} fields, but the header has 2")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("")
        with pytest.raises(ValueError) as info:
            load_table(path)
        assert str(info.value) == f"{path}: empty file, no header"
        (tmp_path / "S.csv").write_text("a\n1\n")
        with pytest.raises(ValueError, match="R.csv: empty file"):
            load_database(tmp_path)

    def test_missing_directory_rejected(self, tmp_path):
        (tmp_path / "R.csv").write_text("a\n1\n")
        for path in (tmp_path / "nowhere", tmp_path / "R.csv"):
            with pytest.raises(SmashError) as info:
                load_database(path)
            assert str(info.value) == f"{path}: not a directory"

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("a,b\n")
        rel = load_table(path)
        assert rel.schema == ["a", "b"] and rel.rows == []

    def test_ragged_row_rejected_with_a_sidecar_schema(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("a,b\n1,2,3\n")
        sidecar = tmp_path / "R.schema.json"
        sidecar.write_text('{"a": "int64", "b": "string"}')
        with pytest.raises(ValueError, match="line 2: 3 fields"):
            load_table(path, schema_file=sidecar)

    @pytest.mark.parametrize("schema, message", [
        ('{"a": "int64"}', "{sidecar}: no type for column 'b' of {path}"),
        ('{"a": "int64", "b": "int32"}',
         "{sidecar}: column 'b' has unknown type 'int32', "
         "not one of int64, float64, string"),
        ('{"a": "string", "b": "int64"}',
         "{path}, line 5: column 'b' value 'x' is not a valid int"),
        ('{"a": "string", "b": "float64"}',
         "{path}, line 5: column 'b' value 'x' is not a valid float"),
        ('{"a": "int64", "b": ["int64"]}',
         "{sidecar}: column 'b' has unknown type ['int64'], "
         "not one of int64, float64, string"),
        ('["a", "b"]', "{sidecar}: not a JSON object of column types"),
        ('{"a": "int64",', "{sidecar}: not valid JSON: Expecting property name "
         "enclosed in double quotes: line 1 column 15 (char 14)"),
    ])
    def test_bad_sidecar_names_the_file_and_column(self, tmp_path, schema, message):
        # the third row spans lines 3-4, so the bad value's row is on line 5
        path = tmp_path / "R.csv"
        path.write_text('a,b\n1,2\n"two\nlines",3\n4,x\n5,y\n')
        sidecar = tmp_path / "R.schema.json"
        sidecar.write_text(schema)
        for load in (lambda: load_table(path, schema_file=sidecar),
                     lambda: load_database(tmp_path)):
            with pytest.raises(ValueError) as info:
                load()
            assert str(info.value) == message.format(path=path, sidecar=sidecar)
