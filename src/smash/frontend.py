"""Parsing of a restricted SQL dialect and equi-join normalization.

The dialect covers single SELECT statements with comma-separated FROM
items, a WHERE conjunction of equality join conditions and single-table
comparison filters, the aggregate functions MIN/MAX/COUNT/SUM/AVG
(optionally DISTINCT; COUNT(*) is allowed, COUNT(DISTINCT *) is not), and
GROUP BY.  Everything else (OR, subqueries, explicit JOIN syntax,
BETWEEN/IN/LIKE, arithmetic) is rejected as unsupported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .engine import AGG_FUNCTIONS, Aggregate, Predicate
from .errors import ParseError, UnsupportedConstruct

# ---------------------------------------------------------------------------
# query structures
# ---------------------------------------------------------------------------


class ColumnRef(NamedTuple):
    # a tuple, so that columns hash and compare in C: normalization keys its
    # union-find by (alias, attribute)
    alias: str
    attr: str

    def __str__(self):
        return f"{self.alias}.{self.attr}"


@dataclass(frozen=True)
class SelectAggregate:
    fn: str
    column: ColumnRef | None  # None for COUNT(*)
    distinct: bool = False


@dataclass
class QuerySpec:
    tables: list  # (table name, alias) in FROM order
    select_columns: list = field(default_factory=list)  # ColumnRef (enumeration)
    select_aggregates: list = field(default_factory=list)  # SelectAggregate
    group_by: list = field(default_factory=list)  # ColumnRef
    join_conds: list = field(default_factory=list)  # (ColumnRef, ColumnRef)
    filters: list = field(default_factory=list)  # (ColumnRef, op, literal)

    @property
    def is_aggregate(self):
        return bool(self.select_aggregates)

    def aliases(self):
        return [a for _, a in self.tables]


@dataclass
class Atom:
    alias: str
    table: str
    renaming: dict  # original attribute -> class id


@dataclass
class OutputSpec:
    kind: str  # "enumeration" | "aggregate"
    columns: list = field(default_factory=list)  # class ids (enumeration)
    aggregates: list = field(default_factory=list)  # engine.Aggregate over class ids
    group_by: list = field(default_factory=list)  # class ids
    source_aliases: list = field(default_factory=list)  # aliases written in SELECT/GROUP BY

    def needed_classes(self):
        if self.kind == "enumeration":
            return list(self.columns)
        need = list(self.group_by)
        for a in self.aggregates:
            if a.attribute is not None and a.attribute not in need:
                need.append(a.attribute)
        return need


@dataclass
class NormalizedCQ:
    atoms: list  # Atom, FROM order
    filters: dict  # alias -> [engine.Predicate] over class ids
    output: OutputSpec
    # class id -> number of atoms containing it; both the estimator and the
    # feature extractor read it, so it is counted once, from `atoms`
    occurrences: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        occ = {}
        for atom in self.atoms:
            for cid in set(atom.renaming.values()):
                occ[cid] = occ.get(cid, 0) + 1
        self.occurrences = occ

    def class_ids(self):
        """All class ids, deterministic order (FROM order, then attribute)."""
        out = []
        seen = set()
        for atom in self.atoms:
            for attr in sorted(atom.renaming):
                cid = atom.renaming[attr]
                if cid not in seen:
                    seen.add(cid)
                    out.append(cid)
        return out


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# one match per token: leading whitespace is skipped inside the match, and
# any other character no alternative accepts is a `bad` token
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        (?P<number>[0-9]+\.[0-9]+|[0-9]+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<qualified>[A-Za-z_][A-Za-z_0-9]*\.[A-Za-z_][A-Za-z_0-9]*)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),;*])
      | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "AS", "GROUP", "BY", "DISTINCT"}
_REJECTED = {"OR", "JOIN", "LEFT", "RIGHT", "INNER", "OUTER", "EXISTS", "IN",
             "BETWEEN", "LIKE", "UNION", "NOT", "HAVING", "ORDER", "LIMIT"}


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


def _position(sql, offset):
    """1-based (line, column) of a character offset; only "\n" ends a line."""
    return sql.count("\n", 0, offset) + 1, offset - sql.rfind("\n", 0, offset)


def _scan(sql):
    """(kind, value, offset) per token, ending with an "eof" token.

    Keywords are upper-cased and string literals unquoted; positions are
    only turned into lines and columns when an error needs them.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(sql):
        kind = m.lastgroup
        value = m.group(kind)
        start = m.start(kind)
        if kind == "ident":
            upper = value.upper()
            if upper in _KEYWORDS:
                kind, value = "keyword", upper
            elif upper in _REJECTED:
                raise UnsupportedConstruct(f"{upper} is not supported",
                                           *_position(sql, start))
        elif kind == "string":
            value = value[1:-1].replace("''", "'")
        elif kind == "bad":
            raise ParseError(f"unexpected character {value!r}",
                             *_position(sql, start))
        tokens.append((kind, value, start))
    tokens.append(("eof", "", len(sql)))
    return tokens


def tokenize(sql):
    tokens = []
    line, line_start, seen = 1, -1, 0
    for kind, value, offset in _scan(sql):
        breaks = sql.count("\n", seen, offset)
        if breaks:
            line += breaks
            line_start = sql.rfind("\n", seen, offset)
        seen = offset
        tokens.append(Token(kind, value, line, offset - line_start))
    return tokens


class _Parser:
    """Recursive descent over `_scan` tokens, (kind, value, offset) tuples."""

    def __init__(self, sql):
        self.sql = sql
        self.tokens = _scan(sql)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, *_position(self.sql, tok[2]))

    def unsupported(self, message, tok=None):
        tok = tok or self.peek()
        raise UnsupportedConstruct(message, *_position(self.sql, tok[2]))

    def expect_keyword(self, kw):
        tok = self.next()
        if tok[0] != "keyword" or tok[1] != kw:
            self.error(f"expected {kw}, found {tok[1]!r}", tok)
        return tok

    def accept_keyword(self, kw):
        kind, value, _ = self.tokens[self.pos]
        if kind == "keyword" and value == kw:
            self.pos += 1
            return True
        return False

    def accept_punct(self, ch):
        kind, value, _ = self.tokens[self.pos]
        if kind == "punct" and value == ch:
            self.pos += 1
            return True
        return False

    def expect_punct(self, ch):
        tok = self.next()
        if tok[0] != "punct" or tok[1] != ch:
            self.error(f"expected {ch!r}, found {tok[1]!r}", tok)

    # -- grammar ------------------------------------------------------------

    def parse(self):
        self.expect_keyword("SELECT")
        columns, aggregates = self.select_list()
        self.expect_keyword("FROM")
        tables = self.table_list()
        join_conds, filters = [], []
        if self.accept_keyword("WHERE"):
            join_conds, filters = self.condition_list()
        group_by = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = self.column_list()
        self.accept_punct(";")
        tok = self.peek()
        if tok[0] != "eof":
            self.error(f"trailing input {tok[1]!r}", tok)
        return tables, columns, aggregates, group_by, join_conds, filters

    def select_list(self):
        # bare columns next to aggregates must be grouping columns; that is
        # validated against GROUP BY after parsing
        columns, aggregates = [], []
        while True:
            kind, value, _ = self.peek()
            if kind == "punct" and value == "*":
                self.unsupported("SELECT * is not supported")
            if kind == "ident" and value.upper() in AGG_FUNCTIONS:
                aggregates.append(self.aggregate_expr())
            elif kind == "qualified":
                columns.append(self.column_ref())
            else:
                self.error(f"expected column or aggregate, found {value!r}")
            if not self.accept_punct(","):
                break
        return columns, aggregates

    def aggregate_expr(self):
        fn_tok = self.next()
        fn = fn_tok[1].upper()
        self.expect_punct("(")
        distinct = self.accept_keyword("DISTINCT")
        if self.accept_punct("*"):
            if fn != "COUNT" or distinct:
                inner = "DISTINCT *" if distinct else "*"
                self.error(f"{fn}({inner}) is not valid", fn_tok)
            col = None
        else:
            col = self.column_ref()
        kind, value, _ = self.peek()
        if kind == "op" or (kind == "punct" and value == "("):
            self.unsupported("arithmetic inside aggregates is not supported")
        self.expect_punct(")")
        return SelectAggregate(fn, col, distinct)

    def column_ref(self):
        tok = self.next()
        if tok[0] != "qualified":
            self.error(f"expected alias.attribute, found {tok[1]!r}", tok)
        alias, attr = tok[1].split(".")
        return ColumnRef(alias, attr)

    def column_list(self):
        cols = [self.column_ref()]
        while self.accept_punct(","):
            cols.append(self.column_ref())
        return cols

    def table_list(self):
        tables = []
        while True:
            tok = self.next()
            if tok[0] != "ident":
                self.error(f"expected table name, found {tok[1]!r}", tok)
            name = tok[1]
            if self.accept_keyword("AS"):
                alias_tok = self.next()
                if alias_tok[0] != "ident":
                    self.error("expected alias after AS", alias_tok)
                alias = alias_tok[1]
            elif self.peek()[0] == "ident":
                alias = self.next()[1]
            else:
                alias = name  # bare table auto-aliased to itself
            tables.append((name, alias))
            if not self.accept_punct(","):
                break
        return tables

    def condition_list(self):
        join_conds, filters = [], []
        while True:
            left = self.column_ref()
            op_tok = self.next()
            if op_tok[0] != "op":
                self.error(f"expected comparison operator, found {op_tok[1]!r}", op_tok)
            op = "!=" if op_tok[1] == "<>" else op_tok[1]
            kind, value, _ = tok = self.peek()
            if kind == "qualified":
                right = self.column_ref()
                if op != "=":
                    self.unsupported("non-equality conditions between columns", op_tok)
                if left == right:
                    self.error("join condition must relate two distinct columns", op_tok)
                join_conds.append((left, right))
            elif kind == "number":
                self.pos += 1
                filters.append((left, op, float(value) if "." in value else int(value)))
            elif kind == "string":
                self.pos += 1
                filters.append((left, op, value))
            elif kind == "keyword" and value == "SELECT":
                self.unsupported("subqueries are not supported")
            else:
                self.error(f"expected literal or column, found {value!r}", tok)
            if not self.accept_keyword("AND"):
                break
        return join_conds, filters


def parse_query(sql: str) -> QuerySpec:
    parser = _Parser(sql)
    tables, columns, aggregates, group_by, join_conds, filters = parser.parse()
    aliases = [a for _, a in tables]
    if len(set(aliases)) != len(aliases):
        raise ParseError(f"duplicate alias in FROM clause: {aliases}")
    known = set(aliases)

    def check(col: ColumnRef):
        if col.alias not in known:
            raise ParseError(f"unknown alias {col.alias!r} in {col}")

    for col in columns:
        check(col)
    for agg in aggregates:
        if agg.column is not None:
            check(agg.column)
    for col in group_by:
        check(col)
    for l, r in join_conds:
        check(l)
        check(r)
    for col, _, _ in filters:
        check(col)
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
# normalization: equi-joins -> natural joins via attribute renaming
# ---------------------------------------------------------------------------


def normalize(spec: QuerySpec, db=None) -> NormalizedCQ:
    """Merge equi-join columns into shared attribute classes.

    Class ids are the representative "alias.attr" with the lowest FROM
    position (ties broken by attribute name).  When a database is supplied,
    every table column participates (unmentioned ones as singletons);
    otherwise only columns referenced by the query.
    """
    # union-find over (alias, attr) tuples; a ColumnRef is one, so spec
    # columns and plain tuples for table columns find the same entries.
    # Insertion order is first-mention order.
    parent = {}

    def find(col):
        root = parent[col]
        if root == col:
            return col
        while parent[root] != root:
            root = parent[root]
        while parent[col] != root:
            parent[col], col = root, parent[col]
        return root

    for l, r in spec.join_conds:
        parent.setdefault(l, l)
        parent.setdefault(r, r)
        root_l, root_r = find(l), find(r)
        if root_l != root_r:
            parent[root_r] = root_l
    for col in spec.select_columns:
        parent.setdefault(col, col)
    for agg in spec.select_aggregates:
        if agg.column is not None:
            parent.setdefault(agg.column, agg.column)
    for col in spec.group_by:
        parent.setdefault(col, col)
    for col, _, _ in spec.filters:
        parent.setdefault(col, col)
    if db is not None:
        for name, alias in spec.tables:
            for attr in db.table(name).schema:
                col = (alias, attr)
                parent.setdefault(col, col)

    classes = {}
    for col in parent:
        classes.setdefault(find(col), []).append(col)
    alias_pos = {a: i for i, (_, a) in enumerate(spec.tables)}
    class_id = {}
    renamings = {alias: {} for alias in alias_pos}
    for members in classes.values():
        if len(members) == 1:
            rep = members[0]
        else:
            rep = min(members, key=lambda c: (alias_pos[c[0]], c[1]))
        cid = f"{rep[0]}.{rep[1]}"
        for col in members:
            class_id[col] = cid
    # renamings list each atom's attributes in class order, then first mention
    for (alias, attr), cid in class_id.items():
        renamings[alias][attr] = cid
    atoms = [
        Atom(alias=alias, table=name, renaming=renamings[alias])
        for name, alias in spec.tables
    ]

    filters = {}
    for col, op, literal in spec.filters:
        filters.setdefault(col.alias, []).append(
            Predicate(class_id[col], op, literal)
        )

    if spec.is_aggregate:
        source_aliases = []
        for ref in spec.group_by + [
            a.column for a in spec.select_aggregates if a.column is not None
        ]:
            if ref.alias not in source_aliases:
                source_aliases.append(ref.alias)
        output = OutputSpec(
            kind="aggregate",
            aggregates=[
                Aggregate(
                    a.fn,
                    class_id[a.column] if a.column is not None else None,
                    a.distinct,
                )
                for a in spec.select_aggregates
            ],
            group_by=[class_id[c] for c in spec.group_by],
            source_aliases=source_aliases,
        )
    else:
        output = OutputSpec(
            kind="enumeration",
            columns=[class_id[c] for c in spec.select_columns],
            source_aliases=list(
                dict.fromkeys(c.alias for c in spec.select_columns)
            ),
        )
    return NormalizedCQ(atoms=atoms, filters=filters, output=output)


# ---------------------------------------------------------------------------
# SQL emission (used by the augmentation CLI to write query variants)
# ---------------------------------------------------------------------------

def _literal_sql(value):
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


def to_sql(spec: QuerySpec) -> str:
    if spec.is_aggregate:
        parts = []
        for col in spec.select_columns:
            parts.append(str(col))
        for a in spec.select_aggregates:
            inner = str(a.column) if a.column is not None else "*"
            if a.distinct:
                inner = "DISTINCT " + inner
            parts.append(f"{a.fn}({inner})")
        select = ", ".join(parts)
    else:
        select = ", ".join(str(c) for c in spec.select_columns)
    from_clause = ", ".join(f"{name} AS {alias}" for name, alias in spec.tables)
    conds = [f"{l} = {r}" for l, r in spec.join_conds]
    conds += [f"{c} {op} {_literal_sql(v)}" for c, op, v in spec.filters]
    sql = f"SELECT {select} FROM {from_clause}"
    if conds:
        sql += " WHERE " + " AND ".join(conds)
    if spec.group_by:
        sql += " GROUP BY " + ", ".join(str(c) for c in spec.group_by)
    return sql
