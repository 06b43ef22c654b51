"""Parser and normalization tests."""

import pytest

from smash.errors import ParseError, UnsupportedConstruct
from smash.frontend import (
    ColumnRef,
    normalize,
    parse_query,
    to_sql,
    tokenize,
)

EXAMPLE1 = (
    "SELECT MIN(u.Id) FROM users AS u, votes AS v, badges AS b "
    "WHERE u.Id = v.UserId AND u.Id = b.UserId "
    "AND v.BountyAmount >= 0 AND u.DownVotes = 0"
)


class TestTokenizer:
    def test_positions(self):
        tokens = tokenize("SELECT x.a\nFROM x")
        assert tokens[0].line == 1
        assert any(t.line == 2 for t in tokens)

    def test_rejected_keyword(self):
        with pytest.raises(UnsupportedConstruct):
            tokenize("SELECT a FROM x LEFT JOIN y")


class TestParser:
    def test_example1_shape(self):
        spec = parse_query(EXAMPLE1)
        assert spec.tables == [("users", "u"), ("votes", "v"), ("badges", "b")]
        assert len(spec.join_conds) == 2
        assert len(spec.filters) == 2
        assert spec.is_aggregate

    def test_bare_alias(self):
        spec = parse_query("SELECT R.a FROM R, S T WHERE R.a = T.b")
        assert spec.tables == [("R", "R"), ("S", "T")]

    def test_count_star_and_distinct(self):
        spec = parse_query(
            "SELECT COUNT(*), COUNT(DISTINCT R.a) FROM R"
        )
        assert spec.select_aggregates[0].column is None
        assert spec.select_aggregates[1].distinct

    def test_group_by(self):
        spec = parse_query(
            "SELECT R.b, MIN(R.a) FROM R GROUP BY R.b"
        )
        assert spec.group_by == [ColumnRef("R", "b")]

    def test_bare_column_requires_group_by(self):
        with pytest.raises(ParseError):
            parse_query("SELECT R.b, MIN(R.a) FROM R")

    def test_unknown_alias_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT Z.a FROM R")

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM R",
        "SELECT R.a FROM R WHERE R.a = 1 OR R.a = 2",
        "SELECT R.a FROM R WHERE R.a IN (SELECT S.a FROM S)",
        "SELECT R.a FROM R, S WHERE R.a < S.a",
        "SELECT R.a FROM R ORDER BY R.a",
    ])
    def test_rejections(self, sql):
        with pytest.raises(ParseError):
            parse_query(sql)


class TestNormalization:
    def test_transitive_classes_merge(self):
        spec = parse_query(
            "SELECT MIN(u.Id) FROM users AS u, votes AS v, badges AS b "
            "WHERE u.Id = v.UserId AND v.UserId = b.UserId"
        )
        cq = normalize(spec)
        # u.Id, v.UserId, b.UserId all collapse into one class
        renamed = [set(a.renaming.values()) for a in cq.atoms]
        shared = renamed[0] & renamed[1] & renamed[2]
        assert len(shared) == 1

    def test_class_id_is_representative(self):
        spec = parse_query(
            "SELECT MIN(u.Id) FROM users AS u, votes AS v "
            "WHERE u.Id = v.UserId"
        )
        cq = normalize(spec)
        assert "u.Id" in cq.atoms[0].renaming.values()

    def test_filters_attach_to_alias(self):
        spec = parse_query(EXAMPLE1)
        cq = normalize(spec)
        assert set(cq.filters) == {"v", "u"}

    def test_unmentioned_columns_get_qualified_names(self, toy_db):
        spec = parse_query(
            "SELECT MIN(u.Id) FROM users AS u, votes AS v "
            "WHERE u.Id = v.UserId"
        )
        cq = normalize(spec, toy_db)
        assert cq.atoms[0].renaming["UpVotes"] == "u.UpVotes"

    def test_to_sql_round_trip(self):
        spec = parse_query(EXAMPLE1)
        again = parse_query(to_sql(spec))
        assert again == spec

    def test_quoted_literal_round_trip(self):
        spec = parse_query("SELECT MIN(u.Id) FROM users AS u WHERE u.Name = 'it''s'")
        assert spec.filters == [(ColumnRef("u", "Name"), "=", "it's")]
        sql = to_sql(spec)
        assert "'it''s'" in sql
        assert parse_query(sql).filters == spec.filters
