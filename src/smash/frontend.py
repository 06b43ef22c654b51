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
from decimal import Decimal
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .engine import _OPS, AGG_FUNCTIONS, Aggregate, Predicate
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


class Atom(NamedTuple):
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

    `normalize` builds the IR while it renames the columns: every class id
    with its bit position (`class_index`, in the order normalization makes
    the classes), each atom's classes as an int bitmask over those
    positions (`masks`; an atom with an intra-atom equality has fewer bits
    than attributes), the number of atoms holding each class
    (`occurrences`, in bit order) and the classes held by more than one
    atom (`shared`).  A `NormalizedCQ` must not change after it is made.
    """

    atoms: list  # Atom, FROM order
    filters: dict  # alias -> [engine.Predicate] over class ids
    output: OutputSpec
    class_index: dict = field(repr=False, compare=False)
    masks: list = field(repr=False, compare=False)
    occurrences: dict = field(repr=False, compare=False)
    shared: frozenset = field(repr=False, compare=False)

    def class_ids(self):
        """All class ids, deterministic order (FROM order, then attribute)."""
        return list(dict.fromkeys(
            [atom.renaming[attr] for atom in self.atoms for attr in sorted(atom.renaming)]))

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

# one match per token.  No alternative starts with whitespace, so the
# search steps over it; any other character the first alternatives do not
# take is a token of its own: punctuation, a one-character operator, or a
# character the scanner rejects.  `findall` returns the tokens' texts, and
# a token's first character tells its kind.
# Quantifiers are possessive where giving characters back cannot change the
# match; a string literal may give back a doubled quote, so that an
# unterminated literal still ends at its last quote that can close it.
_TOKEN_RE = re.compile(
    r"""
        [A-Za-z_][A-Za-z_0-9]*+(?:\.[A-Za-z_][A-Za-z_0-9]*+)?  # ident, qualified
      | [0-9]++(?:\.[0-9]++)?                                # number
      | [<>!]=|<>                                            # two-character op
      | '(?:[^']|'')*'                                       # string
      | \S                                                   # punct, op, bad
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
_WORDS = frozenset(_KEYWORDS | _REJECTED)  # no table name or alias
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
_OP_TEXTS = frozenset(_OPS) | {"<>"}  # "<>" is read as "!="


def _token_position(sql, index):
    """1-based (line, column) of the index-th token, or of the "eof" token
    after the last one; only "\n" ends a line.  Errors only, so it scans
    again."""
    offsets = [m.start() for m in _TOKEN_RE.finditer(sql)]
    offsets.append(len(sql))
    offset = offsets[index]
    return sql.count("\n", 0, offset) + 1, offset - sql.rfind("\n", 0, offset)


def _scan(sql):
    """Every token's value, ending with "" for eof, or the first scan error.

    Keywords are upper-cased and string literals unquoted.  A word in
    `_REJECTED` raises `UnsupportedConstruct`; a character no token starts
    with, a lone "!" or a lone quote (what `\\S` matched) raises
    `ParseError`.  The parser runs it only on its error path: a scan error
    anywhere in the text comes before any grammar error, and the values
    are what error messages show.
    """
    values = _TOKEN_RE.findall(sql)
    for i, text in enumerate(values):
        kind = _FIRST.get(text[0])
        if kind == "ident":
            if "." in text or len(text) > _LONGEST_WORD:
                continue
            upper = text.upper()
            if upper in _KEYWORDS:
                values[i] = upper
            elif upper in _REJECTED:
                raise UnsupportedConstruct(f"{upper} is not supported",
                                           *_token_position(sql, i))
        elif kind == "string" and len(text) > 1:
            values[i] = text[1:-1].replace("''", "'")
        elif kind is None or text in ("!", "'"):
            raise ParseError(f"unexpected character {text!r}",
                             *_token_position(sql, i))
    values.append("")
    return values


def _is_name(text):
    """Whether a token is a table name or alias: an identifier token (the
    only ASCII identifiers `_TOKEN_RE` makes) that is no keyword or
    rejected word."""
    return text.isidentifier() and text.isascii() and text.upper() not in _WORDS


# _new(cls, values) makes a NamedTuple `cls` without its Python-level
# constructor; a qualified token's split on its one dot makes a ColumnRef
_new = tuple.__new__


def _fail(sql, message, at, error=ParseError):
    """Raise `error` at the token with index `at`, unless the text has a
    scan error, which is raised instead: the scan's errors come first."""
    _scan(sql)
    raise error(message, *_token_position(sql, at))


def _found(sql, at):
    """Token `at`'s scanned value, for an error message; raises the first
    scan error instead, if there is one."""
    return _scan(sql)[at]


def _column_at(sql, texts, pos):
    text = texts[pos]
    if "." not in text or text[0] not in _IDENT_START:
        _fail(sql, f"expected alias.attribute, found {_found(sql, pos)!r}", pos)
    return _new(ColumnRef, text.split("."))


def parse_query(sql: str) -> QuerySpec:
    """Recursive descent over the token texts `_TOKEN_RE.findall` returns.

    The texts are not classified beforehand: the grammar tests a token
    where it reads it, for what it expects there.  A keyword is a token
    whose upper case is that keyword (no single character, as an
    unexpected one is, upper-cases to a keyword or aggregate); a column is
    a qualified identifier (a token holding a dot that starts as an
    identifier does); a table name or alias is an identifier that is no
    keyword or rejected word.  Every token up to the end is read by one of
    these tests, and none of them accepts a token `_scan` rejects, so a
    rejected word or an unexpected character always reaches `_fail`, which
    raises the scan's error first.  Error messages show the token's
    scanned value (`_found`).
    """
    texts = _TOKEN_RE.findall(sql)
    texts.append("")  # eof; no token is empty
    if texts[0].upper() != "SELECT":
        _fail(sql, f"expected SELECT, found {_found(sql, 0)!r}", 0)
    # select list: bare columns next to aggregates must be grouping
    # columns; that is validated against GROUP BY after parsing
    pos = 1
    columns, aggregates = [], []
    while True:
        text = texts[pos]
        if "." in text and text[0] in _IDENT_START:
            columns.append(_new(ColumnRef, text.split(".")))
            pos += 1
        elif text.upper() in AGG_FUNCTIONS:
            start = pos
            fn = text.upper()
            pos += 1
            if texts[pos] != "(":
                _fail(sql, f"expected '(', found {_found(sql, pos)!r}", pos)
            pos += 1
            distinct = texts[pos].upper() == "DISTINCT"
            if distinct:
                pos += 1
            if texts[pos] == "*":
                if fn != "COUNT" or distinct:
                    inner = "DISTINCT *" if distinct else "*"
                    _fail(sql, f"{fn}({inner}) is not valid", start)
                col = None
            else:
                col = _column_at(sql, texts, pos)
            pos += 1
            text = texts[pos]
            if text in _OP_TEXTS or text == "(":
                _fail(sql, "arithmetic inside aggregates is not supported", pos,
                      UnsupportedConstruct)
            if text != ")":
                _fail(sql, f"expected ')', found {_found(sql, pos)!r}", pos)
            pos += 1
            aggregates.append(SelectAggregate(fn, col, distinct))
        elif text == "*":
            _fail(sql, "SELECT * is not supported", pos, UnsupportedConstruct)
        else:
            _fail(sql, f"expected column or aggregate, found {_found(sql, pos)!r}", pos)
        if texts[pos] != ",":
            break
        pos += 1
    if texts[pos].upper() != "FROM":
        _fail(sql, f"expected FROM, found {_found(sql, pos)!r}", pos)
    pos += 1
    tables = []
    known = set()
    while True:
        name = texts[pos]
        if not _is_name(name):
            _fail(sql, f"expected table name, found {_found(sql, pos)!r}", pos)
        word = texts[pos + 1]
        if word.upper() == "AS":
            alias = texts[pos + 2]
            if not _is_name(alias):
                _fail(sql, "expected alias after AS", pos + 2)
            pos += 3
        elif _is_name(word):
            alias = word  # bare alias
            pos += 2
        else:
            alias = name  # bare table auto-aliased to itself
            pos += 1
        tables.append((name, alias))
        known.add(alias)
        if texts[pos] != ",":
            break
        pos += 1
    join_conds, filters = [], []
    if texts[pos].upper() == "WHERE":
        pos += 1
        while True:
            left = _column_at(sql, texts, pos)
            op = texts[pos + 1]
            if op not in _OP_TEXTS:
                _fail(sql, f"expected comparison operator, found {_found(sql, pos + 1)!r}",
                      pos + 1)
            if op == "<>":
                op = "!="
            value = texts[pos + 2]
            first = value[:1]
            if "." in value and first in _IDENT_START:
                right = _new(ColumnRef, value.split("."))
                if op != "=":
                    _fail(sql, "non-equality conditions between columns", pos + 1,
                          UnsupportedConstruct)
                if left == right:
                    _fail(sql, "join condition must relate two distinct columns", pos + 1)
                join_conds.append((left, right))
            elif first in _DIGITS:
                filters.append((left, op, float(value) if "." in value else int(value)))
            elif first == "'" and len(value) > 1:
                filters.append((left, op, value[1:-1].replace("''", "'")))
            elif value.upper() == "SELECT":
                _fail(sql, "subqueries are not supported", pos + 2, UnsupportedConstruct)
            else:
                _fail(sql, f"expected literal or column, found {_found(sql, pos + 2)!r}",
                      pos + 2)
            pos += 3
            if texts[pos].upper() != "AND":
                break
            pos += 1
    group_by = []
    if texts[pos].upper() == "GROUP":
        pos += 1
        if texts[pos].upper() != "BY":
            _fail(sql, f"expected BY, found {_found(sql, pos)!r}", pos)
        group_by.append(_column_at(sql, texts, pos + 1))
        pos += 2
        while texts[pos] == ",":
            group_by.append(_column_at(sql, texts, pos + 1))
            pos += 2
    if texts[pos] == ";":
        pos += 1
    if texts[pos]:
        _fail(sql, f"trailing input {_found(sql, pos)!r}", pos)

    if len(known) != len(tables):
        raise ParseError(f"duplicate alias in FROM clause: {[a for _, a in tables]}")
    # every column written, in the order they are checked
    refs = list(columns)
    for a in aggregates:
        if a.column is not None:
            refs.append(a.column)
    refs += group_by
    refs += chain.from_iterable(join_conds)
    refs += map(itemgetter(0), filters)
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
    return QuerySpec(tables, columns, aggregates, group_by, join_conds, filters)


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
    # the join-condition columns, (alias, attr) tuples, grouped into
    # classes: each class is the list of its members in first-mention
    # order, and the classes are in the order of their first members.  A
    # ColumnRef is such a tuple, so spec columns and plain tuples for table
    # columns find the same entries.
    group_of = {}
    groups = []
    for l, r in spec.join_conds:
        group_l = group_of.get(l)
        group_r = group_of.get(r)
        if group_l is None:
            if group_r is None:
                group_of[l] = group_of[r] = group = [l, r]
                groups.append(group)
            else:
                group_r.append(l)
                group_of[l] = group_r
        elif group_r is None:
            group_l.append(r)
            group_of[r] = group_l
        elif group_l is not group_r:  # two classes meet: merge them
            rank = {}
            for col in chain.from_iterable(spec.join_conds):
                rank.setdefault(col, len(rank))
            merged = sorted(group_l + group_r, key=rank.__getitem__)
            first, second = [i for i, g in enumerate(groups)
                             if g is group_l or g is group_r]
            groups[first] = merged
            del groups[second]
            for col in merged:
                group_of[col] = merged
    # renamings list each atom's attributes in class order, then first
    # mention.  Every join-condition column is mentioned before any other,
    # so the join classes come first, in the order of their first members;
    # then each other column is a class alone, in first-mention order.
    # Each class gets the next bit as it is made, and each atom's mask its
    # bits; a join class occurs in as many atoms as it adds a bit to.
    alias_pos = {}
    renamings = {}
    masks = {}
    for pos, (_, alias) in enumerate(spec.tables):
        alias_pos[alias] = pos
        renamings[alias] = {}
        masks[alias] = 0
    index = {}  # class id -> bit position
    n_classes = 0
    occ = {}
    shared = []
    for group in groups:
        alias, attr = group[0]
        if len(group) > 1:  # the member first in FROM order, then by name
            best = alias_pos[alias]
            for a, t in group:
                pos = alias_pos[a]
                if pos < best or (pos == best and t < attr):
                    alias, attr, best = a, t, pos
        cid = f"{alias}.{attr}"
        index[cid] = n_classes
        bit = 1 << n_classes
        n_classes += 1
        n = 0
        for alias, attr in group:
            renamings[alias][attr] = cid
            mask = masks[alias]
            if not mask & bit:
                masks[alias] = mask | bit
                n += 1
        occ[cid] = n
        if n > 1:
            shared.append(cid)
    mentioned = list(spec.select_columns)
    for a in spec.select_aggregates:
        if a.column is not None:
            mentioned.append(a.column)
    mentioned += spec.group_by
    mentioned += map(itemgetter(0), spec.filters)
    for alias, attr in mentioned:
        renaming = renamings[alias]
        if attr not in renaming:
            cid = renaming[attr] = f"{alias}.{attr}"
            masks[alias] |= 1 << n_classes
            index[cid] = n_classes
            n_classes += 1
            occ[cid] = 1
    atoms = []
    atom_masks = []
    for name, alias in spec.tables:
        renaming = renamings[alias]
        mask = masks[alias]
        if db is not None:
            # the table's columns, in schema order
            for attr in db.table(name).schema:
                if attr not in renaming:
                    cid = renaming[attr] = f"{alias}.{attr}"
                    mask |= 1 << n_classes
                    index[cid] = n_classes
                    n_classes += 1
                    occ[cid] = 1
        atoms.append(_new(Atom, (alias, name, renaming)))
        atom_masks.append(mask)

    filters = {}
    for (alias, attr), op, literal in spec.filters:
        filters.setdefault(alias, []).append(
            Predicate(renamings[alias][attr], op, literal)
        )

    if spec.is_aggregate:
        group_by = []
        source_aliases = []  # aliases written in GROUP BY, then in aggregates
        for alias, attr in spec.group_by:
            group_by.append(renamings[alias][attr])
            if alias not in source_aliases:
                source_aliases.append(alias)
        aggregates = []
        for a in spec.select_aggregates:
            if a.column is None:
                aggregates.append(Aggregate(a.fn, None, a.distinct))
                continue
            alias, attr = a.column
            aggregates.append(Aggregate(a.fn, renamings[alias][attr], a.distinct))
            if alias not in source_aliases:
                source_aliases.append(alias)
        output = OutputSpec("aggregate", [], aggregates, group_by, source_aliases)
    else:
        columns = []
        for alias, attr in spec.select_columns:
            columns.append(renamings[alias][attr])
        output = OutputSpec("enumeration", columns, source_aliases=list(
            dict.fromkeys(map(itemgetter(0), spec.select_columns))))
    return NormalizedCQ(atoms, filters, output, index, atom_masks, occ, frozenset(shared))


# ---------------------------------------------------------------------------
# SQL emission (used by the augmentation CLI to write query variants)
# ---------------------------------------------------------------------------

def _literal_sql(value):
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float):
        # repr's shortest round-trip digits without the exponent the parser
        # does not read; a whole float keeps its ".0", so it reads as a float
        text = format(Decimal(repr(value)), "f")
        return text if "." in text else text + ".0"
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
