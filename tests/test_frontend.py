"""Parser and normalization tests."""

import pytest

from smash.errors import ParseError, UnsupportedConstruct
from smash.frontend import (
    ColumnRef,
    normalize,
    parse_query,
    to_sql,
)

EXAMPLE1 = (
    "SELECT MIN(u.Id) FROM users AS u, votes AS v, badges AS b "
    "WHERE u.Id = v.UserId AND u.Id = b.UserId "
    "AND v.BountyAmount >= 0 AND u.DownVotes = 0"
)


class TestTokenizer:
    def test_rejected_keyword(self):
        with pytest.raises(UnsupportedConstruct):
            parse_query("SELECT a FROM x LEFT JOIN y")

    def test_newline_inside_string_literal(self):
        spec = parse_query("SELECT R.a FROM R WHERE R.b = 'x\ny' AND R.a = 3")
        assert spec.filters == [(ColumnRef("R", "b"), "=", "x\ny"),
                                (ColumnRef("R", "a"), "=", 3)]

    def test_doubled_quote_and_keyword_case(self):
        spec = parse_query("select R.a from R where R.b <> 'it''s'")
        assert spec.tables == [("R", "R")]
        assert spec.select_columns == [ColumnRef("R", "a")]
        assert spec.filters == [(ColumnRef("R", "b"), "!=", "it's")]


# (sql, error class, line, column) as reported by the parser
_POSITIONED_ERRORS = [
    ("SELECT R.a\nFROM R\nWHERE R.a = 1 OR R.a = 2", UnsupportedConstruct, 3, 15),
    ("SELECT R.a FROM R WHERE R.b = 'x\ny' AND R.a ? 3", ParseError, 2, 12),
    ("SELECT R.a FROM R WHERE R.b = 'it''s\n''' AND\n  R.c # 1", ParseError, 3, 7),
    ("SELECT R.a FROM R WHERE R.b = 'it''s' AND R.c = @", ParseError, 1, 49),
    ("SELECT R.a\r\nFROM R WHERE\n\n   R.a = ", ParseError, 4, 10),
    ("SELECT R.a FROM R WHERE R.a = 1 \n\t LIMIT 3", UnsupportedConstruct, 2, 3),
    ("SELECT R.a FROM R WHERE R.b = 'unterminated", ParseError, 1, 31),
    ("SELECT MIN(R.a) FROM R\n  GROUP R.a", ParseError, 2, 9),
    ("  \n  SELECT * FROM R", UnsupportedConstruct, 2, 10),
    ("SELECT R.a FROM R,\n S WHERE R.a < S.a", UnsupportedConstruct, 2, 14),
    ("SELECT R.a FROM R WHERE R.a = 1 junk", ParseError, 1, 33),
    ("SELECT R.a FROM R WHERE R.a = 1; ;", ParseError, 1, 34),
    ("", ParseError, 1, 1),
    ("SELECT SUM(R.a + 1) FROM R", ParseError, 1, 16),
    # errors at the first character of a line
    ("SELECT R.a FROM R\n#", ParseError, 2, 1),
    ("SELECT R.a FROM R WHERE R.a = 1\nLIMIT 3", UnsupportedConstruct, 2, 1),
    ("SELECT R.a FROM R WHERE R.a =\n", ParseError, 2, 1),
    ("SELECT R.a FROM R WHERE R.a = 'x\n'\n  junk", ParseError, 3, 3),
    # number literals are ASCII digits only, as in sqlite3
    ("SELECT R.a FROM R WHERE R.a = \u0663", ParseError, 1, 31),
]


@pytest.mark.parametrize("sql,error,line,column", _POSITIONED_ERRORS)
def test_error_positions(sql, error, line, column):
    with pytest.raises(ParseError) as info:
        parse_query(sql)
    assert type(info.value) is error
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value).endswith(f"(line {line}, column {column})")


# One statement per raise site of the frontend, with the type, message,
# line and column it raised before the tokenizer read tokens with
# `findall`: every error must keep all four.  Errors found after parsing
# carry no position.
_ERROR_PARITY = [
    ('SELECT R.a FROM R WHERE R.a = 1 # 2',
     ParseError, "unexpected character '#'", 1, 33),
    ("SELECT R.a FROM R WHERE R.b = 'unterminated",
     ParseError, 'unexpected character "\'"', 1, 31),
    ('SELECT R.a FROM R WHERE R.a = 1 OR R.a = 2',
     UnsupportedConstruct, 'OR is not supported', 1, 33),
    ('SELECT R.a FROM R JOIN S',
     UnsupportedConstruct, 'JOIN is not supported', 1, 19),
    ('SELECT R.a FROM R LEFT S',
     UnsupportedConstruct, 'LEFT is not supported', 1, 19),
    ('SELECT R.a FROM R right S',
     UnsupportedConstruct, 'RIGHT is not supported', 1, 19),
    ('SELECT R.a FROM R Inner S',
     UnsupportedConstruct, 'INNER is not supported', 1, 19),
    ('SELECT R.a FROM R OUTER S',
     UnsupportedConstruct, 'OUTER is not supported', 1, 19),
    ('SELECT R.a FROM R WHERE EXISTS (SELECT S.a FROM S)',
     UnsupportedConstruct, 'EXISTS is not supported', 1, 25),
    ('SELECT R.a FROM R WHERE R.a IN (1, 2)',
     UnsupportedConstruct, 'IN is not supported', 1, 29),
    ('SELECT R.a FROM R WHERE R.a BETWEEN 1 AND 2',
     UnsupportedConstruct, 'BETWEEN is not supported', 1, 29),
    ("SELECT R.a FROM R WHERE R.b LIKE 'x%'",
     UnsupportedConstruct, 'LIKE is not supported', 1, 29),
    ('SELECT R.a FROM R UNION SELECT S.a FROM S',
     UnsupportedConstruct, 'UNION is not supported', 1, 19),
    ('SELECT R.a FROM R WHERE NOT R.a = 1',
     UnsupportedConstruct, 'NOT is not supported', 1, 25),
    ('SELECT MIN(R.a) FROM R GROUP BY R.b HAVING MIN(R.a) > 1',
     UnsupportedConstruct, 'HAVING is not supported', 1, 37),
    ('SELECT R.a FROM R ORDER BY R.a',
     UnsupportedConstruct, 'ORDER is not supported', 1, 19),
    ('SELECT R.a FROM R LIMIT 3',
     UnsupportedConstruct, 'LIMIT is not supported', 1, 19),
    ('',
     ParseError, "expected SELECT, found ''", 1, 1),
    ('FROM R',
     ParseError, "expected SELECT, found 'FROM'", 1, 1),
    ('SELECT R.a WHERE R.a = 1',
     ParseError, "expected FROM, found 'WHERE'", 1, 12),
    ('SELECT MIN(R.a) FROM R GROUP R.a',
     ParseError, "expected BY, found 'R.a'", 1, 30),
    ('SELECT MIN R.a FROM R',
     ParseError, "expected '(', found 'R.a'", 1, 12),
    ('SELECT MIN(R.a FROM R',
     ParseError, "expected ')', found 'FROM'", 1, 16),
    ('SELECT R.a FROM R WHERE R.a = 1 junk',
     ParseError, "trailing input 'junk'", 1, 33),
    ('SELECT * FROM R',
     UnsupportedConstruct, 'SELECT * is not supported', 1, 8),
    ('SELECT 1 FROM R',
     ParseError, "expected column or aggregate, found '1'", 1, 8),
    ('SELECT MIN(*) FROM R',
     ParseError, 'MIN(*) is not valid', 1, 8),
    ('SELECT COUNT(DISTINCT *) FROM R',
     ParseError, 'COUNT(DISTINCT *) is not valid', 1, 8),
    ('SELECT SUM(R.a + 1) FROM R',
     ParseError, "unexpected character '+'", 1, 16),
    ('SELECT MAX(R.a (1)) FROM R',
     UnsupportedConstruct, 'arithmetic inside aggregates is not supported', 1, 16),
    ('SELECT MIN(a) FROM R',
     ParseError, "expected alias.attribute, found 'a'", 1, 12),
    ("SELECT R.a FROM 'R'",
     ParseError, "expected table name, found 'R'", 1, 17),
    ('SELECT R.a FROM R AS 3',
     ParseError, 'expected alias after AS', 1, 22),
    ('SELECT R.a FROM R WHERE R.a R.b',
     ParseError, "expected comparison operator, found 'R.b'", 1, 29),
    ('SELECT R.a FROM R, S WHERE R.a < S.a',
     UnsupportedConstruct, 'non-equality conditions between columns', 1, 32),
    ('SELECT R.a FROM R WHERE R.a = R.a',
     ParseError, 'join condition must relate two distinct columns', 1, 29),
    ('SELECT R.a FROM R WHERE R.a = SELECT S.a FROM S',
     UnsupportedConstruct, 'subqueries are not supported', 1, 31),
    ('SELECT R.a FROM R WHERE R.a = (1)',
     ParseError, "expected literal or column, found '('", 1, 31),
    ('SELECT R.a FROM R, S AS R',
     ParseError, "duplicate alias in FROM clause: ['R', 'R']", None, None),
    ('SELECT Z.a FROM R',
     ParseError, "unknown alias 'Z' in Z.a", None, None),
    ('SELECT MIN(Z.a) FROM R',
     ParseError, "unknown alias 'Z' in Z.a", None, None),
    ('SELECT MIN(R.a) FROM R GROUP BY Z.b',
     ParseError, "unknown alias 'Z' in Z.b", None, None),
    ('SELECT R.a FROM R, S WHERE R.a = Z.a',
     ParseError, "unknown alias 'Z' in Z.a", None, None),
    ('SELECT R.a FROM R WHERE Z.a = 1',
     ParseError, "unknown alias 'Z' in Z.a", None, None),
    ('SELECT R.b, MIN(R.a) FROM R',
     ParseError, 'bare column R.b must appear in GROUP BY', None, None),
    ('SELECT R.a FROM R GROUP BY R.a',
     ParseError, 'GROUP BY without aggregates', None, None),
    ('SELECT R.a\nFROM R\nWHERE R.a = 1 OR R.a = 2',
     UnsupportedConstruct, 'OR is not supported', 3, 15),
    ('SELECT R.a,\n  S.b\nFROM R, S WHERE R.a ~ S.b',
     ParseError, "unexpected character '~'", 3, 21),
    ("SELECT R.a\r\nFROM R\n WHERE R.a = 'x\ny' junk",
     ParseError, "trailing input 'junk'", 4, 4),
    # a string literal ends at its last quote that can close it
    ("SELECT R.a FROM R WHERE R.b = 'abc'' ",
     ParseError, 'unexpected character "\'"', 1, 36),
]


@pytest.mark.parametrize("sql,error,message,line,column", _ERROR_PARITY)
def test_error_parity(sql, error, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_query(sql)
    assert type(info.value) is error
    assert (info.value.line, info.value.column) == (line, column)
    position = "" if line is None else f" (line {line}, column {column})"
    assert str(info.value) == message + position


def test_trailing_whitespace_after_semicolon_accepted():
    assert parse_query("SELECT R.a FROM R WHERE R.a = 1;  \n ").filters


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
