"""Parsing of a restricted SQL dialect and equi-join normalization.

The dialect covers single SELECT statements with comma-separated FROM
items, a WHERE conjunction of equality join conditions and single-table
comparison filters, the aggregate functions MIN/MAX/COUNT/SUM/AVG
(optionally DISTINCT, COUNT(*) allowed), and GROUP BY.  Everything else
(OR, subqueries, explicit JOIN syntax, BETWEEN/IN/LIKE, arithmetic) is
rejected as unsupported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .engine import AGG_FUNCTIONS, Aggregate, Predicate
from .errors import ParseError, UnsupportedConstruct

# ---------------------------------------------------------------------------
# query structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
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

    def atom_index(self, alias):
        for i, atom in enumerate(self.atoms):
            if atom.alias == alias:
                return i
        raise KeyError(alias)

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

    def class_occurrences(self):
        """class id -> number of atoms containing it."""
        occ = {}
        for atom in self.atoms:
            for cid in set(atom.renaming.values()):
                occ[cid] = occ.get(cid, 0) + 1
        return occ


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<qualified>[A-Za-z_][A-Za-z_0-9]*\.[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),;*])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "AS", "GROUP", "BY", "DISTINCT"}
_REJECTED = {"OR", "JOIN", "LEFT", "RIGHT", "INNER", "OUTER", "EXISTS", "IN",
             "BETWEEN", "LIKE", "UNION", "NOT", "HAVING", "ORDER", "LIMIT"}


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    column: int


def tokenize(sql):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            raise ParseError(f"unexpected character {sql[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            value = text
            if kind == "string":
                value = text[1:-1].replace("''", "'")
            elif kind == "ident":
                upper = text.upper()
                if upper in _KEYWORDS:
                    kind, value = "keyword", upper
                elif upper in _REJECTED:
                    raise UnsupportedConstruct(f"{upper} is not supported", line, col)
            tokens.append(Token(kind, value, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def unsupported(self, message, tok=None):
        tok = tok or self.peek()
        raise UnsupportedConstruct(message, tok.line, tok.column)

    def expect_keyword(self, kw):
        tok = self.next()
        if tok.kind != "keyword" or tok.value != kw:
            self.error(f"expected {kw}, found {tok.value!r}", tok)
        return tok

    def accept_keyword(self, kw):
        tok = self.peek()
        if tok.kind == "keyword" and tok.value == kw:
            self.next()
            return True
        return False

    def accept_punct(self, ch):
        tok = self.peek()
        if tok.kind == "punct" and tok.value == ch:
            self.next()
            return True
        return False

    def expect_punct(self, ch):
        tok = self.next()
        if tok.kind != "punct" or tok.value != ch:
            self.error(f"expected {ch!r}, found {tok.value!r}", tok)

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
        if tok.kind != "eof":
            self.error(f"trailing input {tok.value!r}", tok)
        return tables, columns, aggregates, group_by, join_conds, filters

    def select_list(self):
        columns, aggregates = [], []
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.value == "*":
                self.unsupported("SELECT * is not supported")
            if tok.kind == "ident" and tok.value.upper() in AGG_FUNCTIONS:
                aggregates.append(self.aggregate_expr())
            elif tok.kind == "qualified":
                columns.append(self.column_ref())
            else:
                self.error(f"expected column or aggregate, found {tok.value!r}")
            if not self.accept_punct(","):
                break
        if columns and aggregates:
            # bare columns next to aggregates must be grouping columns;
            # validated against GROUP BY after parsing
            pass
        return columns, aggregates

    def aggregate_expr(self):
        fn_tok = self.next()
        fn = fn_tok.value.upper()
        self.expect_punct("(")
        distinct = self.accept_keyword("DISTINCT")
        tok = self.peek()
        if tok.kind == "punct" and tok.value == "*":
            self.next()
            if fn != "COUNT":
                self.error(f"{fn}(*) is not valid", fn_tok)
            col = None
        else:
            col = self.column_ref()
        tok = self.peek()
        if tok.kind == "op" or (tok.kind == "punct" and tok.value == "("):
            self.unsupported("arithmetic inside aggregates is not supported")
        self.expect_punct(")")
        return SelectAggregate(fn, col, distinct)

    def column_ref(self):
        tok = self.next()
        if tok.kind != "qualified":
            self.error(f"expected alias.attribute, found {tok.value!r}", tok)
        alias, attr = tok.value.split(".")
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
            if tok.kind != "ident":
                self.error(f"expected table name, found {tok.value!r}", tok)
            name = tok.value
            if self.accept_keyword("AS"):
                alias_tok = self.next()
                if alias_tok.kind != "ident":
                    self.error("expected alias after AS", alias_tok)
                alias = alias_tok.value
            elif self.peek().kind == "ident":
                alias = self.next().value
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
            if op_tok.kind != "op":
                self.error(f"expected comparison operator, found {op_tok.value!r}", op_tok)
            op = "!=" if op_tok.value == "<>" else op_tok.value
            tok = self.peek()
            if tok.kind == "qualified":
                right = self.column_ref()
                if op != "=":
                    self.unsupported("non-equality conditions between columns", op_tok)
                if left == right:
                    self.error("join condition must relate two distinct columns", op_tok)
                join_conds.append((left, right))
            elif tok.kind in ("number", "string"):
                lit_tok = self.next()
                if lit_tok.kind == "number":
                    literal = float(lit_tok.value) if "." in lit_tok.value else int(lit_tok.value)
                else:
                    literal = lit_tok.value
                filters.append((left, op, literal))
            elif tok.kind == "keyword" and tok.value == "SELECT":
                self.unsupported("subqueries are not supported")
            else:
                self.error(f"expected literal or column, found {tok.value!r}", tok)
            if not self.accept_keyword("AND"):
                break
        return join_conds, filters


def parse_query(sql: str) -> QuerySpec:
    parser = _Parser(tokenize(sql))
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


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def normalize(spec: QuerySpec, db=None) -> NormalizedCQ:
    """Merge equi-join columns into shared attribute classes.

    Class ids are the representative "alias.attr" with the lowest FROM
    position (ties broken by attribute name).  When a database is supplied,
    every table column participates (unmentioned ones as singletons);
    otherwise only columns referenced by the query.
    """
    alias_pos = {a: i for i, (_, a) in enumerate(spec.tables)}
    uf = _UnionFind()
    mentioned = []

    def touch(col: ColumnRef):
        if col not in uf.parent:
            mentioned.append(col)
        uf.find(col)

    for l, r in spec.join_conds:
        touch(l)
        touch(r)
        uf.union(l, r)
    for col in spec.select_columns:
        touch(col)
    for agg in spec.select_aggregates:
        if agg.column is not None:
            touch(agg.column)
    for col in spec.group_by:
        touch(col)
    for col, _, _ in spec.filters:
        touch(col)
    if db is not None:
        for name, alias in spec.tables:
            for attr in db.table(name).schema:
                touch(ColumnRef(alias, attr))

    classes = {}
    for col in mentioned:
        classes.setdefault(uf.find(col), []).append(col)
    class_id = {}
    for root, members in classes.items():
        rep = min(members, key=lambda c: (alias_pos[c.alias], c.attr))
        cid = f"{rep.alias}.{rep.attr}"
        for col in members:
            class_id[col] = cid

    atoms = []
    for name, alias in spec.tables:
        renaming = {
            col.attr: class_id[col]
            for col in class_id
            if col.alias == alias
        }
        atoms.append(Atom(alias=alias, table=name, renaming=renaming))

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
