"""In-memory bag-semantics relational engine.

Relations are named schemas over multisets of tuples.  The module provides
the basic operators (semi-join, natural join, projection, grouping), the
left-deep baseline evaluator for normalized conjunctive queries, and a
simple cardinality estimator based on distinct-value counts, which a
`Database` records per base table when the table is added.  Evaluation and
estimation read a query atom through one scan (renaming, intra-atom
equalities, filters), so both reject a column its table lacks and raise
the same filter errors.  The semi-join (Yannakakis) program is the
rewriter's plan, which `rewriter.interpret_sequence` runs on these
operators.
"""

from __future__ import annotations

import csv
import json
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, repeat
from pathlib import Path

from .errors import (
    AggregateOverNonNumeric,
    EmptyAggregate,
    TypeMismatch,
    UnknownAttribute,
)

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

AGG_FUNCTIONS = ("MIN", "MAX", "COUNT", "SUM", "AVG")


@dataclass(frozen=True, slots=True)
class Predicate:
    """Single-relation comparison against a literal."""

    attribute: str
    op: str
    literal: object

    def matches(self, value):
        if _is_number(value) != _is_number(self.literal):
            raise TypeMismatch(
                f"cannot compare {value!r} with literal {self.literal!r}"
            )
        return _OPS[self.op](value, self.literal)


@dataclass
class Relation:
    name: str
    schema: list
    rows: list = field(default_factory=list)

    def __post_init__(self):
        self.schema = list(self.schema)
        if len(set(self.schema)) != len(self.schema):
            raise ValueError(f"duplicate attribute in schema of {self.name}")
        self.rows = [tuple(r) for r in self.rows]
        for r in self.rows:
            if len(r) != len(self.schema):
                raise ValueError(
                    f"row arity {len(r)} != schema arity {len(self.schema)} "
                    f"in relation {self.name}"
                )

    def column(self, attr):
        idx = self._index(attr)
        return [r[idx] for r in self.rows]

    def _index(self, attr):
        try:
            return self.schema.index(attr)
        except ValueError:
            raise UnknownAttribute(f"{attr} not in {self.name}{tuple(self.schema)}")

    def __len__(self):
        return len(self.rows)


_NDV_SAMPLE_ROWS = 512


def _prefix_ndv(rows, indexes):
    """Distinct counts of the columns at `indexes` over the first
    `_NDV_SAMPLE_ROWS` rows, one set per column.

    A deterministic prefix keeps the count cheap on large tables.
    """
    sample = rows if len(rows) <= _NDV_SAMPLE_ROWS else rows[:_NDV_SAMPLE_ROWS]
    counts = []
    for i in indexes:
        counts.append(len(set(map(operator.itemgetter(i), sample))))
    return counts


@dataclass(frozen=True)
class TableStats:
    """What the estimator knows of a base table without reading its rows."""

    index: dict  # column -> position in the schema
    ndv: dict  # column -> distinct values among the first _NDV_SAMPLE_ROWS rows
    rows: int  # row count


@dataclass
class Database:
    """Named base tables and their statistics.

    `add` is the only way in: it records each table's `TableStats` once, so
    a table must not change after it is added.
    """

    tables: dict = field(default_factory=dict, init=False)
    stats: dict = field(default_factory=dict, init=False, repr=False)

    def add(self, rel: Relation):
        if rel.name in self.tables:
            raise ValueError(f"duplicate table {rel.name}")
        self.tables[rel.name] = rel
        schema = rel.schema
        self.stats[rel.name] = TableStats(
            index={col: i for i, col in enumerate(schema)},
            ndv=dict(zip(schema, _prefix_ndv(rel.rows, range(len(schema))))),
            rows=len(rel.rows),
        )

    def table(self, name):
        if name not in self.tables:
            raise UnknownAttribute(f"unknown table {name}")
        return self.tables[name]


@dataclass
class OpCounter:
    joins: int = 0
    semijoins: int = 0
    filters: int = 0
    aggregates: int = 0
    intermediate_tuples: int = 0  # summed output sizes of (semi-)joins


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# basic operators
# ---------------------------------------------------------------------------

def _shared(left: Relation, right: Relation):
    rset = set(right.schema)
    return [a for a in left.schema if a in rset]


def semi_join(left: Relation, right: Relation, counter: OpCounter | None = None) -> Relation:
    shared = _shared(left, right)
    if counter is not None:
        counter.semijoins += 1
    if not shared:
        rows = list(left.rows) if right.rows else []
    else:
        li = [left._index(a) for a in shared]
        ri = [right._index(a) for a in shared]
        keys = {tuple(r[i] for i in ri) for r in right.rows}
        rows = [r for r in left.rows if tuple(r[i] for i in li) in keys]
    if counter is not None:
        counter.intermediate_tuples += len(rows)
    return Relation(left.name, left.schema, rows)


def natural_join(left: Relation, right: Relation, counter: OpCounter | None = None) -> Relation:
    shared = _shared(left, right)
    if counter is not None:
        counter.joins += 1
    li = [left._index(a) for a in shared]
    extra = [a for a in right.schema if a not in shared]
    ei = [right._index(a) for a in extra]
    ri = [right._index(a) for a in shared]
    buckets = defaultdict(list)
    for r in right.rows:
        buckets[tuple(r[i] for i in ri)].append(tuple(r[i] for i in ei))
    rows = []
    for l in left.rows:
        key = tuple(l[i] for i in li)
        for tail in buckets.get(key, ()):
            rows.append(l + tail)
    if counter is not None:
        counter.intermediate_tuples += len(rows)
    return Relation(f"({left.name}*{right.name})", left.schema + extra, rows)


def project(rel: Relation, attrs, counter: OpCounter | None = None) -> Relation:
    """Projection that tolerates repeated attributes (labels get suffixed)."""
    idxs = [rel._index(a) for a in attrs]
    labels, seen = [], {}
    for a in attrs:
        seen[a] = seen.get(a, 0) + 1
        labels.append(a if seen[a] == 1 else f"{a}#{seen[a]}")
    rows = [tuple(r[i] for i in idxs) for r in rel.rows]
    return Relation(rel.name, labels, rows)


@dataclass(frozen=True, slots=True)
class Aggregate:
    fn: str  # MIN | MAX | COUNT | SUM | AVG
    attribute: str | None  # None only for COUNT(*)
    distinct: bool = False

    def label(self):
        inner = self.attribute if self.attribute is not None else "*"
        if self.distinct:
            inner = f"distinct {inner}"
        return f"{self.fn.lower()}({inner})"


def _agg_value(agg: Aggregate, values):
    if agg.fn == "COUNT":
        if agg.attribute is None:
            return len(values)
        return len(set(values)) if agg.distinct else len(values)
    if agg.distinct:
        values = list(set(values))
    if not values:
        raise EmptyAggregate(f"{agg.label()} over empty input")
    if agg.fn == "MIN":
        return min(values)
    if agg.fn == "MAX":
        return max(values)
    if any(not _is_number(v) for v in values):
        raise AggregateOverNonNumeric(f"{agg.label()} over non-numeric values")
    if agg.fn == "SUM":
        return sum(values)
    if agg.fn == "AVG":
        return sum(values) / len(values)
    raise ValueError(f"unknown aggregate {agg.fn}")


def group_aggregate(rel: Relation, grouping, aggs, counter: OpCounter | None = None) -> Relation:
    aggs = [a if isinstance(a, Aggregate) else Aggregate(*a) for a in aggs]
    gidx = [rel._index(g) for g in grouping]
    aidx = [rel._index(a.attribute) if a.attribute is not None else None for a in aggs]
    if counter is not None:
        counter.aggregates += 1
    if not grouping and not rel.rows:
        # closed scalar model: no NULL stand-in for empty aggregates
        raise EmptyAggregate("aggregate over empty ungrouped relation")
    groups = {}
    order = []
    for r in rel.rows:
        key = tuple(r[i] for i in gidx)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)
    schema = list(grouping)
    for a in aggs:
        label = a.label()
        while label in schema:
            label += "_"
        schema.append(label)
    rows = []
    for key in order:
        members = groups[key]
        vals = []
        for a, i in zip(aggs, aidx):
            col = [m[i] for m in members] if i is not None else members
            vals.append(_agg_value(a, col))
        rows.append(key + tuple(vals))
    return Relation(f"agg({rel.name})", schema, rows)


# ---------------------------------------------------------------------------
# query evaluation over a NormalizedCQ
# ---------------------------------------------------------------------------

def _is_number_type(t):
    return issubclass(t, (int, float)) and not issubclass(t, bool)


# value types that need no `_is_number_type` test: whether the literal is a
# number -> types that are numbers exactly when it is
_PLAIN_TYPES = {True: frozenset((int, float)), False: frozenset((str,))}


def _select(rows, index, pred):
    """Rows whose value at `index` satisfies `pred`, tested a column at a time.

    Returns (kept rows, error).  When `pred.matches` raises on some row, the
    error is the first such row's and only rows before it are kept: exactly
    the rows a row-at-a-time filter compares with later predicates before it
    raises.
    """
    values = list(map(operator.itemgetter(index), rows))
    number = _is_number(pred.literal)
    types = set(map(type, values))
    if types <= _PLAIN_TYPES[number] or all(_is_number_type(t) == number for t in types):
        try:
            keep = map(_OPS[pred.op], values, repeat(pred.literal))
            return list(compress(rows, keep)), None
        except Exception:
            pass  # raised again, with its row, below
    kept = []
    for row, value in zip(rows, values):
        try:
            if pred.matches(value):
                kept.append(row)
        except Exception as exc:
            return kept, exc
    return kept, None


def _atom_rows(cq, atom, db: Database):
    """The one scan of a query atom, which execution and estimation share.

    Returns (columns, rows).  `columns` maps each class id to the schema
    positions of its attributes, in schema order; a column the renaming
    does not name is the class `alias.col`.  `rows` are the base rows, in
    the table's layout and order, that satisfy the intra-atom equalities
    and then each predicate in query order (see `_select`).
    """
    base = db.table(atom.table)
    renaming = atom.renaming
    index = db.stats[atom.table].index
    if not renaming.keys() <= index.keys():
        raise UnknownAttribute(
            f"{atom.table} has no column {min(renaming.keys() - index.keys())}")
    columns = {}
    for i, col in enumerate(base.schema):
        cid = renaming.get(col)
        columns.setdefault(f"{atom.alias}.{col}" if cid is None else cid, []).append(i)
    rows = base.rows
    dup = []
    for ix in columns.values():
        if len(ix) > 1:
            dup.append(ix)
    if dup:  # intra-atom equalities
        rows = [r for r in rows if all(len({r[i] for i in ix}) == 1 for ix in dup)]
    error = None
    for p in cq.filters.get(atom.alias, ()):
        rows, exc = _select(rows, columns[p.attribute][0], p)
        if exc is not None:
            error = exc
    if error is not None:
        raise error
    return columns, rows


def atom_relation(cq, atom, db: Database, counter: OpCounter | None = None) -> Relation:
    """Renamed, filtered relation for one query atom: the atom's scan with
    one column per join class, read at the class's first attribute."""
    columns, rows = _atom_rows(cq, atom, db)
    if counter is not None and cq.filters.get(atom.alias):
        counter.filters += 1
    firsts = [ix[0] for ix in columns.values()]
    return Relation(atom.alias, list(columns),
                    [tuple(r[i] for i in firsts) for r in rows])


def _apply_output(rel: Relation, output, counter: OpCounter | None = None) -> Relation:
    if output.kind == "enumeration":
        return project(rel, output.columns)
    return group_aggregate(rel, output.group_by, output.aggregates, counter)


def evaluate_baseline(cq, db: Database, counter: OpCounter | None = None) -> Relation:
    """Filters, then left-deep natural joins in FROM order, then output."""
    rel = None
    for atom in cq.atoms:
        r = atom_relation(cq, atom, db, counter)
        rel = r if rel is None else natural_join(rel, r, counter)
    return _apply_output(rel, cq.output, counter)


# ---------------------------------------------------------------------------
# cardinality estimation (stand-in for optimizer estimates)
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class EstimateSet:
    table_rows: list  # exact post-filter row counts, FROM order
    join_rows: list  # per-join estimates for the left-deep join sequence
    total_cost: float


def _atom_stats(cq, i, db: Database):
    """Post-filter row count and distinct counts of atom i's shared classes.

    An atom without filters and intra-atom equalities whose renaming names
    only columns of its table is that table renamed, so its counts are the
    table's ingestion `TableStats` and no row is read.  Any other atom
    counts the rows of its scan, `_atom_rows`, over the same prefix sample
    as the table's, a class at its first attribute.  Only classes shared
    between atoms enter the join estimates, so distinct counts are limited
    to those, in the renaming's order.  Whether the atom has an intra-atom
    equality (fewer class bits than attributes) and which classes are
    shared come from the query IR.
    """
    atom = cq.atoms[i]
    renaming = atom.renaming
    shared = cq.shared
    stats = db.stats.get(atom.table)
    if (stats is not None and atom.alias not in cq.filters
            and cq.masks[i].bit_count() == len(renaming)):
        ndv = stats.ndv  # every column of the table
        counts = {}
        for attr, cid in renaming.items():
            if attr not in ndv:
                break
            if cid in shared:
                counts[cid] = ndv[attr]
        else:
            return stats.rows, counts
    columns, rows = _atom_rows(cq, atom, db)
    wanted = []
    firsts = []
    for cid in dict.fromkeys(renaming.values()):
        if cid in shared:
            wanted.append(cid)
            firsts.append(columns[cid][0])
    return len(rows), dict(zip(wanted, _prefix_ndv(rows, firsts)))


def estimate_cardinalities(cq, db: Database) -> EstimateSet:
    """Exact post-filter counts plus distinct-value join-size estimates.

    The per-join estimate for A joining B on shared attributes x is
    |A| * |B| / prod_x max(ndv_A(x), ndv_B(x)).  Distinct counts are taken
    over the first `_NDV_SAMPLE_ROWS` rows of an atom.  `Database.add`
    records them for every column of a base table once, so an atom without
    filters and intra-atom equalities reads them from there; other atoms
    count them over the rows of their scan, the one `atom_relation` builds
    its relation from, on each call.  A renamed column the table lacks
    raises `UnknownAttribute`, as it does in execution.
    """
    table_rows = []
    join_rows = []
    ndv = None
    est = 0.0
    for i in range(len(cq.atoms)):
        nrows, r_ndv = _atom_stats(cq, i, db)
        table_rows.append(nrows)
        if ndv is None:
            est = float(nrows)
            ndv = r_ndv
            continue
        # the denominator multiplies in r_ndv's order, each class with its
        # distinct count before this join, which then becomes the minimum
        denom = 1.0
        for a, v in r_ndv.items():
            w = ndv.get(a)
            if w is None:
                ndv[a] = v
            else:
                denom *= max(w, v, 1)
                if v < w:
                    ndv[a] = v
        est = est * nrows / denom
        join_rows.append(est)
    total = float(sum(join_rows) + sum(table_rows))
    return EstimateSet(table_rows, join_rows, total)


# ---------------------------------------------------------------------------
# table ingestion
# ---------------------------------------------------------------------------

def _cast_column(values, cast=None):
    """A column's values cast once: by `cast` if given, else by the first
    of int, float and str that parses every value."""
    if cast is not None:
        return list(map(cast, values))
    for cast in (int, float):
        try:
            return list(map(cast, values))
        except ValueError:
            pass
    return list(values)


_TYPE_CASTS = {"int64": int, "float64": float, "string": str}


def load_table(path, name=None, schema_file=None) -> Relation:
    """Load a headered CSV; types inferred unless a sidecar schema is given.

    A row with more or fewer fields than the header raises ValueError,
    naming the file and the row's line.
    """
    path = Path(path)
    name = name or path.stem
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        raw = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, "
                    f"but the header has {len(header)}"
                )
            raw.append(row)
    casts = [None] * len(header)
    if schema_file is not None:
        with open(schema_file) as fh:
            spec = json.load(fh)
        casts = [_TYPE_CASTS[spec[col]] for col in header]
    columns = zip(*raw) if raw else [()] * len(header)
    return Relation(name, header, list(zip(*map(_cast_column, columns, casts))))


def save_database(db: Database, directory):
    """Write each table as a headered CSV that load_database can read back."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for rel in db.tables.values():
        with open(directory / f"{rel.name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rel.schema)
            writer.writerows(rel.rows)


def load_database(directory) -> Database:
    db = Database()
    directory = Path(directory)
    for path in sorted(directory.glob("*.csv")):
        sidecar = path.with_suffix(".schema.json")
        db.add(load_table(path, schema_file=sidecar if sidecar.exists() else None))
    return db
