"""The parser against the one it replaced, on mutated corpus SQL.

The oracle is the parser `frontend` had before it classified tokens where
the grammar reads them: `_scan` classified every token of the text first,
raising its errors before any grammar error, and `_Parser` read the
classified lists.  It is kept here verbatim, with `parse_query` as
`oracle_parse_query`.  The SQL of every query of the digest corpus
(`test_plan_equivalence`) is mutated token by token, with a seeded
`random.Random`: a token dropped, duplicated or swapped with its neighbour,
a keyword's case changed, or a rejected word, a character no token starts
with or a lone quote inserted, with the tokens joined again by random
whitespace.  For each text both parsers must return equal specs (compared
by repr, so 1 and 1.0 differ) or raise the same error type, message, line
and column.
"""

import random
import re
from collections import Counter
from itertools import chain
from operator import itemgetter

from smash.engine import AGG_FUNCTIONS
from smash.errors import ParseError, UnsupportedConstruct
from smash.frontend import ColumnRef, QuerySpec, SelectAggregate, parse_query, to_sql

from test_plan_equivalence import corpus

# ---------------------------------------------------------------------------
# the oracle: the tokenizer and parser before classification moved into
# the grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*+
    (
        [A-Za-z_][A-Za-z_0-9]*+(?:\.[A-Za-z_][A-Za-z_0-9]*+)?  # ident, qualified
      | [(),;*]                                              # punct
      | <=|>=|!=|<>|=|<|>                                    # op
      | [0-9]++(?:\.[0-9]++)?                                # number
      | '(?:[^']|'')*'                                       # string
      | \S                                                   # bad
    )
    """,
    re.VERBOSE,
)
_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident"),
    **dict.fromkeys("(),;*", "punct"),
    **dict.fromkeys("<>=!", "op"),
    **dict.fromkeys("0123456789", "number"),
    "'": "string",
}

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "AS", "GROUP", "BY", "DISTINCT"}
_REJECTED = {"OR", "JOIN", "LEFT", "RIGHT", "INNER", "OUTER", "EXISTS", "IN",
             "BETWEEN", "LIKE", "UNION", "NOT", "HAVING", "ORDER", "LIMIT"}
_LONGEST_WORD = max(map(len, _KEYWORDS | _REJECTED))  # longer is an identifier


def _token_position(sql, index):
    """1-based (line, column) of the index-th token, or of the "eof" token
    after the last one; only "\n" ends a line.  Errors only, so it scans
    again."""
    offsets = [m.start(1) for m in _TOKEN_RE.finditer(sql)]
    offsets.append(len(sql))
    offset = offsets[index]
    return sql.count("\n", 0, offset) + 1, offset - sql.rfind("\n", 0, offset)


def _scan(sql):
    """The tokens as two parallel lists, kinds and values, ending with an
    "eof" token.

    Keywords are upper-cased and string literals unquoted.  Tokens carry no
    position: an error finds its token's by scanning again.  A lone "!" or
    quote is what `\\S` matched, so it is rejected with any other character
    no token starts with.
    """
    values = _TOKEN_RE.findall(sql)
    kinds = []
    append = kinds.append
    for i, text in enumerate(values):
        kind = _FIRST.get(text[0])
        if kind == "ident":
            if "." in text:
                append("qualified")
                continue
            if text in _KEYWORDS:  # already upper case
                append("keyword")
                continue
            if len(text) > _LONGEST_WORD:
                append("ident")
                continue
            upper = text.upper()
            if upper in _KEYWORDS:
                append("keyword")
                values[i] = upper
            elif upper in _REJECTED:
                raise UnsupportedConstruct(f"{upper} is not supported",
                                           *_token_position(sql, i))
            else:
                append("ident")
        elif kind == "punct" or kind == "number" or (kind == "op" and text != "!"):
            append(kind)
        elif kind == "string" and len(text) > 1:
            append("string")
            values[i] = text[1:-1].replace("''", "'")
        else:
            raise ParseError(f"unexpected character {text!r}",
                             *_token_position(sql, i))
    append("eof")
    values.append("")
    return kinds, values


def _column(qualified):
    # the token has exactly one dot; tuple.__new__ skips ColumnRef's
    # Python-level constructor
    return tuple.__new__(ColumnRef, qualified.split("."))


class _Parser:
    """Recursive descent over the `_scan` token lists.

    An error names the index of the token it is about, and only then is
    the token's line and column looked up.
    """

    def __init__(self, sql):
        self.sql = sql
        self.kinds, self.values = _scan(sql)
        self.pos = 0

    def error(self, message, at=None, error=ParseError):
        """Raise at the token with index `at`, by default the next one."""
        raise error(message, *_token_position(self.sql, self.pos if at is None else at))

    def unsupported(self, message, at=None):
        self.error(message, at, UnsupportedConstruct)

    def expect_keyword(self, kw):
        pos = self.pos
        if self.kinds[pos] != "keyword" or self.values[pos] != kw:
            self.error(f"expected {kw}, found {self.values[pos]!r}", pos)
        self.pos = pos + 1

    def accept(self, kind, value):
        pos = self.pos
        if self.kinds[pos] == kind and self.values[pos] == value:
            self.pos = pos + 1
            return True
        return False

    def expect_punct(self, ch):
        pos = self.pos
        if self.kinds[pos] != "punct" or self.values[pos] != ch:
            self.error(f"expected {ch!r}, found {self.values[pos]!r}", pos)
        self.pos = pos + 1

    # -- grammar ------------------------------------------------------------

    def parse(self):
        self.expect_keyword("SELECT")
        columns, aggregates = self.select_list()
        self.expect_keyword("FROM")
        tables = self.table_list()
        join_conds, filters = [], []
        if self.accept("keyword", "WHERE"):
            join_conds, filters = self.condition_list()
        group_by = []
        if self.accept("keyword", "GROUP"):
            self.expect_keyword("BY")
            group_by = self.column_list()
        self.accept("punct", ";")
        if self.kinds[self.pos] != "eof":
            self.error(f"trailing input {self.values[self.pos]!r}")
        return tables, columns, aggregates, group_by, join_conds, filters

    def select_list(self):
        # bare columns next to aggregates must be grouping columns; that is
        # validated against GROUP BY after parsing
        kinds, values = self.kinds, self.values
        columns, aggregates = [], []
        while True:
            kind, value = kinds[self.pos], values[self.pos]
            if kind == "qualified":
                self.pos += 1
                columns.append(_column(value))
            elif kind == "ident" and value.upper() in AGG_FUNCTIONS:
                aggregates.append(self.aggregate_expr())
            elif kind == "punct" and value == "*":
                self.unsupported("SELECT * is not supported")
            else:
                self.error(f"expected column or aggregate, found {value!r}")
            if not self.accept("punct", ","):
                break
        return columns, aggregates

    def aggregate_expr(self):
        start = self.pos
        fn = self.values[start].upper()
        self.pos += 1
        self.expect_punct("(")
        distinct = self.accept("keyword", "DISTINCT")
        if self.accept("punct", "*"):
            if fn != "COUNT" or distinct:
                inner = "DISTINCT *" if distinct else "*"
                self.error(f"{fn}({inner}) is not valid", start)
            col = None
        else:
            col = self.column_ref()
        kind = self.kinds[self.pos]
        if kind == "op" or (kind == "punct" and self.values[self.pos] == "("):
            self.unsupported("arithmetic inside aggregates is not supported")
        self.expect_punct(")")
        return SelectAggregate(fn, col, distinct)

    def column_ref(self):
        pos = self.pos
        if self.kinds[pos] != "qualified":
            self.error(f"expected alias.attribute, found {self.values[pos]!r}")
        self.pos = pos + 1
        return _column(self.values[pos])

    def column_list(self):
        cols = [self.column_ref()]
        while self.accept("punct", ","):
            cols.append(self.column_ref())
        return cols

    def table_list(self):
        kinds, values = self.kinds, self.values
        pos = self.pos
        tables = []
        while True:
            name = values[pos]
            if kinds[pos] != "ident":
                self.error(f"expected table name, found {name!r}", pos)
            kind = kinds[pos + 1]
            if kind == "keyword" and values[pos + 1] == "AS":
                if kinds[pos + 2] != "ident":
                    self.error("expected alias after AS", pos + 2)
                alias = values[pos + 2]
                pos += 3
            elif kind == "ident":
                alias = values[pos + 1]  # bare alias
                pos += 2
            else:
                alias = name  # bare table auto-aliased to itself
                pos += 1
            tables.append((name, alias))
            if kinds[pos] != "punct" or values[pos] != ",":
                break
            pos += 1
        self.pos = pos
        return tables

    def condition_list(self):
        kinds, values = self.kinds, self.values
        pos = self.pos
        join_conds, filters = [], []
        while True:
            if kinds[pos] != "qualified":
                self.error(f"expected alias.attribute, found {values[pos]!r}", pos)
            left = _column(values[pos])
            op = values[pos + 1]
            if kinds[pos + 1] != "op":
                self.error(f"expected comparison operator, found {op!r}", pos + 1)
            if op == "<>":
                op = "!="
            kind, value = kinds[pos + 2], values[pos + 2]
            if kind == "qualified":
                right = _column(value)
                if op != "=":
                    self.unsupported("non-equality conditions between columns", pos + 1)
                if left == right:
                    self.error("join condition must relate two distinct columns", pos + 1)
                join_conds.append((left, right))
            elif kind == "number":
                filters.append((left, op, float(value) if "." in value else int(value)))
            elif kind == "string":
                filters.append((left, op, value))
            elif kind == "keyword" and value == "SELECT":
                self.unsupported("subqueries are not supported", pos + 2)
            else:
                self.error(f"expected literal or column, found {value!r}", pos + 2)
            pos += 3
            if kinds[pos] != "keyword" or values[pos] != "AND":
                break
            pos += 1
        self.pos = pos
        return join_conds, filters


def oracle_parse_query(sql):
    tables, columns, aggregates, group_by, join_conds, filters = _Parser(sql).parse()
    aliases = [a for _, a in tables]
    known = set(aliases)
    if len(known) != len(aliases):
        raise ParseError(f"duplicate alias in FROM clause: {aliases}")
    # every column written, in the order they are checked
    refs = list(columns)
    refs += [a.column for a in aggregates if a.column is not None]
    refs += group_by
    refs += chain.from_iterable(join_conds)
    refs += [col for col, _, _ in filters]
    if not known.issuperset(map(itemgetter(0), refs)):
        for col in refs:
            if col.alias not in known:
                raise ParseError(f"unknown alias {col.alias!r} in {col}")
    if aggregates:
        for col in columns:
            if col not in group_by:
                raise ParseError(f"bare column {col} must appear in GROUP BY")
    elif group_by:
        raise ParseError("GROUP BY without aggregates")
    return QuerySpec(
        tables=tables,
        select_columns=columns,
        select_aggregates=aggregates,
        group_by=group_by,
        join_conds=join_conds,
        filters=filters,
    )



# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------

_BAD_CHARACTERS = ["#", "@", "?", "!", "$", "%", "\u0663", "\u00e9", "."]
# tokens a mutation may put in place of another
_REPLACEMENTS = ["=", "<", "<>", "!=", ">=", "1", "2.5", "'x'", "'it''s'", "(", ")",
                 ",", ";", "*", "AS", "and", "Where", "GROUP", "BY", "DISTINCT",
                 "MIN", "count", "Sum", "R", "R.a", "u.Id"]
# mostly a space; now and then a line break, a tab or nothing, which glues
# two tokens into one or into a different token
_SEPARATORS = [" "] * 12 + ["\n", "\t", "  \n ", ""]


def _tokens(sql):
    return _TOKEN_RE.findall(sql)


def _mutate(rng, tokens):
    tokens = list(tokens)
    kind = rng.randrange(8)
    i = rng.randrange(len(tokens))
    if kind == 0:
        del tokens[i]
    elif kind == 1:
        tokens.insert(i, tokens[i])
    elif kind == 2 and len(tokens) > 1:
        i = min(i, len(tokens) - 2)
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    elif kind <= 3:
        words = [j for j, t in enumerate(tokens) if t.upper() in _KEYWORDS]
        j = rng.choice(words)
        tokens[j] = "".join(c.lower() if rng.random() < 0.5 else c.upper()
                            for c in tokens[j])
    elif kind == 4:
        word = rng.choice(sorted(_REJECTED))
        tokens.insert(i, word if rng.random() < 0.5 else word.lower())
    elif kind == 5:
        tokens.insert(i, rng.choice(_BAD_CHARACTERS))
    elif kind == 6:
        tokens.insert(i, "'")
    else:
        tokens[i] = rng.choice(_REPLACEMENTS)
    return "".join(chain.from_iterable((t, rng.choice(_SEPARATORS)) for t in tokens))


def _outcome(parse, sql):
    try:
        return "spec", repr(parse(sql))
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


def test_mutated_corpus_sql_parses_as_the_oracle_parses_it():
    rng = random.Random(12)
    texts = [to_sql(spec) for _, _, spec in corpus()]
    outcomes = Counter()
    for sql in texts:
        assert _outcome(parse_query, sql) == _outcome(oracle_parse_query, sql), sql
        tokens = _tokens(sql)
        for _ in range(5):
            mutated = _mutate(rng, tokens)
            expected = _outcome(oracle_parse_query, mutated)
            assert _outcome(parse_query, mutated) == expected, mutated
            outcomes[expected[0]] += 1
    assert sum(outcomes.values()) >= 2000
    # every kind of outcome occurs: parsed specs and both error types
    assert outcomes["spec"] and outcomes[ParseError] and outcomes[UnsupportedConstruct]
