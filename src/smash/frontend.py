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
from itertools import chain
from operator import itemgetter
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


@dataclass(frozen=True, slots=True)
class SelectAggregate:
    fn: str
    column: ColumnRef | None  # None for COUNT(*)
    distinct: bool = False


@dataclass(slots=True)
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


@dataclass(slots=True)
class Atom:
    alias: str
    table: str
    renaming: dict  # original attribute -> class id


@dataclass(slots=True)
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


@dataclass(slots=True)
class NormalizedCQ:
    """A normalized query, and the compact query IR every planning stage reads.

    The IR is built once, from `atoms`: each atom's distinct class ids in
    renaming order (`atom_classes`), every class id in `class_ids()` order
    with its position (`class_index`), each atom's classes as an int
    bitmask over those positions (`masks`), the number of atoms holding
    each class (`occurrences`) and the classes held by more than one atom
    (`shared`).  A `NormalizedCQ` must not change after it is made.
    """

    atoms: list  # Atom, FROM order
    filters: dict  # alias -> [engine.Predicate] over class ids
    output: OutputSpec
    atom_classes: list = field(init=False, repr=False, compare=False)
    class_index: dict = field(init=False, repr=False, compare=False)
    masks: list = field(init=False, repr=False, compare=False)
    occurrences: dict = field(init=False, repr=False, compare=False)
    shared: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        occ = {}
        atom_classes = []
        masks = []
        for atom in self.atoms:
            renaming = atom.renaming
            mask = 0
            for attr in sorted(renaming):
                cid = renaming[attr]
                i = index.get(cid)
                if i is None:  # a class first seen here
                    i = index[cid] = len(index)
                    occ[cid] = 1
                    mask |= 1 << i
                elif not mask >> i & 1:  # not yet counted for this atom
                    occ[cid] += 1
                    mask |= 1 << i
            masks.append(mask)
            classes = tuple(renaming.values())
            if mask.bit_count() != len(classes):  # an intra-atom equality
                classes = tuple(dict.fromkeys(classes))
            atom_classes.append(classes)
        self.atom_classes = atom_classes
        self.class_index = index
        self.masks = masks
        self.occurrences = occ
        self.shared = frozenset([cid for cid, n in occ.items() if n > 1])

    def class_ids(self):
        """All class ids, deterministic order (FROM order, then attribute)."""
        return list(self.class_index)

    def mask_of(self, class_ids):
        """The bitmask of some of the query's class ids."""
        index = self.class_index
        mask = 0
        for cid in class_ids:
            mask |= 1 << index[cid]
        return mask


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# one match per token: leading whitespace is skipped before the one
# unnamed group, and any other character no alternative accepts is a token
# of its own, which the scanner rejects.  `findall` returns the tokens'
# texts, and a token's first character tells its kind.  Quantifiers are
# possessive where giving characters back cannot change the match; a string
# literal may give back a doubled quote, so that an unterminated literal
# still ends at its last quote that can close it.
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


def parse_query(sql: str) -> QuerySpec:
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
# normalization: equi-joins -> natural joins via attribute renaming
# ---------------------------------------------------------------------------


def normalize(spec: QuerySpec, db=None) -> NormalizedCQ:
    """Merge equi-join columns into shared attribute classes.

    Class ids are the representative "alias.attr" with the lowest FROM
    position (ties broken by attribute name).  When a database is supplied,
    every table column participates (unmentioned ones as singletons);
    otherwise only columns referenced by the query.  The returned query
    carries the query IR (see `NormalizedCQ`), built here once.
    """
    # union-find over the join-condition columns, (alias, attr) tuples; a
    # ColumnRef is one, so spec columns and plain tuples for table columns
    # find the same entries.  Insertion order is first-mention order.
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

    # a column whose parent is a root needs no `find`
    for l, r in spec.join_conds:
        root_l = parent.setdefault(l, l)
        if parent[root_l] != root_l:
            root_l = find(l)
        root_r = parent.setdefault(r, r)
        if parent[root_r] != root_r:
            root_r = find(r)
        if root_l != root_r:
            parent[root_r] = root_l
    # renamings list each atom's attributes in class order, then first
    # mention.  Every join-condition column is mentioned before any other,
    # so the join classes come first, in the order of their first members;
    # then each other column is a class alone, in first-mention order.
    members = {}
    for col, root in parent.items():
        if parent[root] != root:
            root = find(col)
        members.setdefault(root, []).append(col)
    alias_pos = {}
    renamings = {}
    for pos, (_, alias) in enumerate(spec.tables):
        alias_pos[alias] = pos
        renamings[alias] = {}
    for group in members.values():
        alias, attr = group[0]
        if len(group) > 1:  # the member first in FROM order, then by name
            best = alias_pos[alias]
            for a, t in group:
                pos = alias_pos[a]
                if pos < best or (pos == best and t < attr):
                    alias, attr, best = a, t, pos
        cid = f"{alias}.{attr}"
        for alias, attr in group:
            renamings[alias][attr] = cid
    for alias, attr in chain(
            spec.select_columns,
            [a.column for a in spec.select_aggregates if a.column is not None],
            spec.group_by,
            [col for col, _, _ in spec.filters]):
        renaming = renamings[alias]
        if attr not in renaming:
            renaming[attr] = f"{alias}.{attr}"
    atoms = []
    for name, alias in spec.tables:
        renaming = renamings[alias]
        if db is not None:
            for attr in db.table(name).schema:
                if attr not in renaming:
                    renaming[attr] = f"{alias}.{attr}"
        atoms.append(Atom(alias, name, renaming))

    filters = {}
    for (alias, attr), op, literal in spec.filters:
        filters.setdefault(alias, []).append(
            Predicate(renamings[alias][attr], op, literal)
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
                    None if a.column is None else renamings[a.column[0]][a.column[1]],
                    a.distinct,
                )
                for a in spec.select_aggregates
            ],
            group_by=[renamings[alias][attr] for alias, attr in spec.group_by],
            source_aliases=source_aliases,
        )
    else:
        output = OutputSpec(
            kind="enumeration",
            columns=[renamings[alias][attr] for alias, attr in spec.select_columns],
            source_aliases=list(dict.fromkeys([c[0] for c in spec.select_columns])),
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
