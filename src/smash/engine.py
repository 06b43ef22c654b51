"""In-memory bag-semantics relational engine.

A database stores each base table by column (`Table`); the relations the
operators pass on are named schemas over multisets of row tuples.
`Database.add` checks a table once, as it enters a database; the operators
build their outputs without a second check and count nothing.  The module
provides the basic operators (semi-join, natural join, projection,
grouping), the one loop that runs a plan of statements on them and counts
their work in an `OpCounter`, for Base's left-deep plan and the rewriter's
semi-join (Yannakakis) plan alike, and a simple cardinality estimator based
on distinct-value counts, which a `Database` records per base table when
the table is added.  Evaluation and estimation read a query atom through
one scan (renaming, intra-atom equalities, filters), so both reject a
column its table lacks and raise the same filter errors.
"""

from __future__ import annotations

import csv
import json
import operator
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, repeat
from pathlib import Path
from typing import NamedTuple

from .errors import SmashError, json_object

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
            raise SmashError(
                f"cannot compare {value!r} with literal {self.literal!r}"
            )
        return _OPS[self.op](value, self.literal)


def _position(name, schema, attr):
    try:
        return schema.index(attr)
    except ValueError:
        raise SmashError(f"{attr} not in {name}{tuple(schema)}")


@dataclass(slots=True)
class Relation:
    """A name, a schema and a list of row tuples as long as the schema.

    A plain record: the operators build rows that hold by construction.
    """

    name: str
    schema: list
    rows: list = field(default_factory=list)

    def _index(self, attr):
        return _position(self.name, self.schema, attr)

    def __len__(self):
        return len(self.rows)


@dataclass(slots=True)
class Table:
    """A base table as a database stores it: a name, a schema and one
    column per attribute in row order, an int column compactly as a `range`
    or an `array.array` (see `int_typecode`), any other as a list.  Readers
    use only len, indexing, slicing and iteration, so all three read alike.
    `Database.add` checks a table as it enters a database; a table must not
    change after that.  Planning and execution read the columns.
    """

    name: str
    schema: list
    columns: list

    def column(self, attr):
        """`attr`'s column, the table's own: not a copy."""
        return self.columns[_position(self.name, self.schema, attr)]

    @property
    def rows(self):
        """The row tuples, built anew on each read, for readers outside
        planning and execution (an oracle, a digest)."""
        return list(zip(*self.columns))


def int_typecode(lo, hi):
    """The narrowest `array` typecode whose items hold every int from `lo`
    to `hi`: unsigned unless `lo` is negative; None when no 64-bit type
    holds them, so the column stays a list."""
    for code in "BbHhIiQq":  # narrowest first, unsigned before signed
        bits = 8 * array(code).itemsize
        least = 0 if code.isupper() else -(1 << bits - 1)
        if least <= lo and hi < least + (1 << bits):
            return code
    return None


_NDV_SAMPLE_ROWS = 512


@dataclass(frozen=True)
class TableStats:
    """What the estimator knows of a base table without reading its rows."""

    ndv: dict  # column -> distinct values among the first _NDV_SAMPLE_ROWS rows
    rows: int  # row count


@dataclass
class Database:
    """Named base tables and their statistics.

    `add` is the only way in: it checks each table and records its
    `TableStats` once, so a table must not change after it is added.
    """

    tables: dict = field(default_factory=dict, init=False)
    stats: dict = field(default_factory=dict, init=False, repr=False)

    def add(self, table: Table):
        """Check `table` and store it as the table `table.name`.

        The schema becomes a list; the columns (see `Table`) are stored as
        given, not copied or converted.  A duplicate attribute, a column
        count other than the schema's, a column that is not a list, array
        or range, or columns of unequal length raise SmashError naming the
        table, and leave the database as it was.
        """
        name = table.name
        if name in self.tables:
            raise SmashError(f"duplicate table {name}")
        schema = list(table.schema)
        if len(set(schema)) != len(schema):
            raise SmashError(f"duplicate attribute in schema of {name}")
        columns = table.columns
        if len(columns) != len(schema):
            raise SmashError(
                f"{len(columns)} columns != schema arity {len(schema)} in table {name}")
        for attr, col in zip(schema, columns):
            if not isinstance(col, (list, array, range)):
                raise SmashError(
                    f"column {attr} of table {name} is a {type(col).__name__}, "
                    f"not a list, array or range")
        n = len(columns[0]) if columns else 0
        for attr, col in zip(schema, columns):
            if len(col) != n:
                raise SmashError(
                    f"column {attr} has {len(col)} values, column {schema[0]} {n}, "
                    f"in table {name}")
        stats = TableStats(
            ndv={attr: len(set(col[:_NDV_SAMPLE_ROWS]))
                 for attr, col in zip(schema, columns)},
            rows=n,
        )
        table.schema = schema
        self.tables[name] = table
        self.stats[name] = stats

    def table(self, name):
        if name not in self.tables:
            raise SmashError(f"unknown table {name}")
        return self.tables[name]


@dataclass
class OpCounter:
    """What one run of a plan did.  Only `_run` updates it: an operation
    before its operator runs, its output rows and a passed filter after."""

    joins: int = 0  # natural joins: one per child of a join_project
    semijoins: int = 0  # semi-joins: one per semijoin
    filters: int = 0  # atoms with filters whose scan passed them all
    aggregates: int = 0  # groupings: one per aggregate
    intermediate_tuples: int = 0  # (semi-)join output rows, summed: C_out


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# basic operators
# ---------------------------------------------------------------------------

def _shared(left: Relation, right: Relation):
    rset = set(right.schema)
    return [a for a in left.schema if a in rset]


def semi_join(left: Relation, right: Relation) -> Relation:
    shared = _shared(left, right)
    if not shared:
        rows = list(left.rows) if right.rows else []
    else:
        li = [left._index(a) for a in shared]
        ri = [right._index(a) for a in shared]
        keys = {tuple(r[i] for i in ri) for r in right.rows}
        rows = [r for r in left.rows if tuple(r[i] for i in li) in keys]
    return Relation(left.name, left.schema, rows)


def natural_join(left: Relation, right: Relation) -> Relation:
    shared = _shared(left, right)
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
    return Relation(f"({left.name}*{right.name})", left.schema + extra, rows)


def project(rel: Relation, attrs) -> Relation:
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
        raise SmashError(f"{agg.label()} over empty input")
    if agg.fn == "MIN":
        return min(values)
    if agg.fn == "MAX":
        return max(values)
    if any(not _is_number(v) for v in values):
        raise SmashError(f"{agg.label()} over non-numeric values")
    if agg.fn == "SUM":
        return sum(values)
    if agg.fn == "AVG":
        return sum(values) / len(values)
    raise ValueError(f"unknown aggregate {agg.fn}")


def group_aggregate(rel: Relation, grouping, aggs) -> Relation:
    gidx = [rel._index(g) for g in grouping]
    aidx = [rel._index(a.attribute) if a.attribute is not None else None for a in aggs]
    if not grouping and not rel.rows:
        # closed scalar model: no NULL stand-in for empty aggregates
        raise SmashError("aggregate over empty ungrouped relation")
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
# query evaluation over a NormalizedCQ: atom scans, plans and their loop
# ---------------------------------------------------------------------------

# literal type -> value types on which every comparison with such a literal
# neither mismatches nor raises (a bool literal has none: "a" < True raises)
_NUMBERS = frozenset((int, float))
_PLAIN_TYPES = {int: _NUMBERS, float: _NUMBERS, str: frozenset((str,))}


def _select(values, positions, pred):
    """The `positions` whose value in `values` (the column at those
    positions, in order) satisfies `pred`, tested a column at a time.

    Returns (kept positions, error).  When `pred.matches` raises on some
    value, the error is the first such value's and only positions before it
    are kept: exactly the rows a row-at-a-time filter compares with later
    predicates before it raises.
    """
    if set(map(type, values)) <= _PLAIN_TYPES.get(type(pred.literal), frozenset()):
        keep = map(_OPS[pred.op], values, repeat(pred.literal))
        return list(compress(positions, keep)), None
    kept = []
    for position, value in zip(positions, values):
        try:
            if pred.matches(value):
                kept.append(position)
        except Exception as exc:
            return kept, exc
    return kept, None


def _atom_rows(cq, atom, db: Database):
    """The one scan of a query atom, which execution and estimation share.

    Returns (classes, keep).  `classes` maps each class id to the schema
    positions of its attributes, in schema order; a column the renaming
    does not name is the class `alias.col`.  `keep` holds the positions, in
    table order, of the rows that satisfy the intra-atom equalities and then
    each predicate in query order (see `_select`): a `range` of every row
    when nothing is dropped.  The scan reads the table's columns and builds
    no row, apart from the rows of an atom with an intra-atom equality.
    """
    table = db.table(atom.table)
    renaming = atom.renaming
    stats = db.stats[atom.table]
    ndv = stats.ndv
    if not renaming.keys() <= ndv.keys():
        raise SmashError(
            f"{atom.table} has no column {min(renaming.keys() - ndv.keys())}")
    classes = {}
    for i, col in enumerate(table.schema):
        cid = renaming.get(col)
        classes.setdefault(f"{atom.alias}.{col}" if cid is None else cid, []).append(i)
    columns = table.columns
    keep = range(stats.rows)
    dup = []
    for ix in classes.values():
        if len(ix) > 1:
            dup.append(ix)
    if dup:  # intra-atom equalities
        keep = [k for k, r in enumerate(zip(*columns))
                if all(len({r[i] for i in ix}) == 1 for ix in dup)]
    error = None
    for p in cq.filters.get(atom.alias, ()):
        col = columns[classes[p.attribute][0]]
        values = col if len(keep) == len(col) else list(map(col.__getitem__, keep))
        keep, exc = _select(values, keep, p)
        if exc is not None:
            error = exc
    if error is not None:
        raise error
    return classes, keep


def atom_relation(cq, atom, db: Database) -> Relation:
    """Renamed, filtered relation for one query atom: the atom's scan with
    one column per join class, read at the class's first attribute.  Row
    tuples are built only for the rows the scan keeps."""
    classes, keep = _atom_rows(cq, atom, db)
    table = db.tables[atom.table]
    firsts = [table.columns[ix[0]] for ix in classes.values()]
    if len(keep) < db.stats[atom.table].rows:
        firsts = [list(map(col.__getitem__, keep)) for col in firsts]
    return Relation(atom.alias, list(classes), list(zip(*firsts)))


class Statement(NamedTuple):
    name: str | None  # None for the plan's result, its one unnamed statement
    form: tuple  # structural form: the op, then its operands


def _result(cq, source):
    """A plan's last statement, its result: the query's output over
    `source`, a projection on the output columns for an enumeration and
    the grouping for an aggregate query."""
    out = cq.output
    if out.kind == "enumeration":
        return Statement(None, ("join_project", source, [], list(out.columns)))
    return Statement(None, ("aggregate", source))


def _base_plan(cq):
    """Base as a plan: a view per atom, one left-deep join of the views in
    FROM order without projection, and the output."""
    views = [f"E{i + 1}" for i in range(len(cq.atoms))]
    statements = [Statement(name, ("atom", i)) for i, name in enumerate(views)]
    statements.append(Statement("F1", ("join_project", views[0], views[1:], [])))
    statements.append(_result(cq, "F1"))
    return statements


def evaluate_baseline(cq, db: Database, counter: OpCounter | None = None) -> Relation:
    """Base: runs `_base_plan(cq)`, filtered atoms joined left-deep in
    FROM order, then the output."""
    return _run(_base_plan(cq), cq, db, counter)[1]


def _run(statements, cq, db, counter):
    """The one loop that executes plans, Base's and the rewriter's alike:
    runs the statements in order, counting them into `counter` (or a
    throwaway `OpCounter`), and returns every named intermediate, by name,
    and the result, the unnamed statement's relation (None if there is
    none; a second unnamed statement is a duplicate name)."""
    if counter is None:
        counter = OpCounter()
    namespace = {}

    def resolve(name):
        if name not in namespace:
            raise SmashError(f"undefined intermediate {name!r}")
        return namespace[name]

    for stmt in statements:
        form = stmt.form
        op = form[0]
        if op == "atom":
            atom = cq.atoms[form[1]]
            rel = atom_relation(cq, atom, db)
            if cq.filters.get(atom.alias):
                counter.filters += 1
        elif op == "semijoin":
            left, right = resolve(form[1]), resolve(form[2])
            counter.semijoins += 1
            rel = semi_join(left, right)
            counter.intermediate_tuples += len(rel)
        elif op == "aggregate":
            rel = resolve(form[1])
            counter.aggregates += 1
            rel = group_aggregate(rel, cq.output.group_by, cq.output.aggregates)
        elif op == "join_project":
            rel = resolve(form[1])
            for child in form[2]:
                right = resolve(child)
                counter.joins += 1
                rel = natural_join(rel, right)
                counter.intermediate_tuples += len(rel)
            if form[3]:
                rel = project(rel, form[3])
        else:
            raise ValueError(f"unknown structural form {op!r}")
        if stmt.name in namespace:
            raise ValueError(f"duplicate intermediate name {stmt.name!r}")
        namespace[stmt.name] = rel
    return namespace, namespace.pop(None, None)


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
    counts the rows its scan, `_atom_rows`, keeps, and distinct values on
    the columns at those rows over the same prefix sample as the table's, a
    class at its first attribute; it builds no row tuple.  Only classes
    shared between atoms enter the join estimates, so distinct counts are
    limited to those, in the renaming's order.  Whether the atom has an
    intra-atom equality (fewer class bits than attributes) and which
    classes are shared come from the query IR.
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
    classes, keep = _atom_rows(cq, atom, db)
    columns = db.tables[atom.table].columns
    sample = keep[:_NDV_SAMPLE_ROWS]
    counts = {}
    for cid in dict.fromkeys(renaming.values()):
        if cid in shared:
            col = columns[classes[cid][0]]
            counts[cid] = len(set(map(col.__getitem__, sample)))
    return len(keep), counts


def estimate_cardinalities(cq, db: Database) -> EstimateSet:
    """Exact post-filter counts plus distinct-value join-size estimates.

    The per-join estimate for A joining B on shared attributes x is
    |A| * |B| / prod_x max(ndv_A(x), ndv_B(x)).  Distinct counts are taken
    over the first `_NDV_SAMPLE_ROWS` rows of an atom.  `Database.add`
    records them for every column of a base table once, so an atom without
    filters and intra-atom equalities reads them from there; other atoms
    count them on the columns, at the rows their scan keeps (the ones
    `atom_relation` builds its relation from), on each call.  A renamed
    column the table lacks raises `SmashError`, as it does in execution.
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
    of int, float and str that parses every value.  An int column becomes
    an array of the narrowest typecode for its values, if one holds them."""
    if cast is None:
        for cast in (int, float, str):
            try:
                values = list(map(cast, values))
                break
            except ValueError:
                pass
    else:
        values = list(map(cast, values))
    code = cast is int and int_typecode(min(values, default=0), max(values, default=0))
    return array(code, values) if code else values


_TYPE_CASTS = {"int64": int, "float64": float, "string": str}


def _sidecar_casts(schema_file, path, header):
    """Per column of `path`'s `header`, the cast its type in the sidecar
    schema `schema_file` names.  A sidecar that is not a JSON object raises
    SmashError naming it; a column without a type, or an unknown type,
    raises SmashError naming the sidecar and the column."""
    spec = json_object(schema_file, "column types")
    casts = []
    for col in header:
        if col not in spec:
            raise SmashError(f"{schema_file}: no type for column {col!r} of {path}")
        if not isinstance(spec[col], str) or spec[col] not in _TYPE_CASTS:
            raise SmashError(
                f"{schema_file}: column {col!r} has unknown type {spec[col]!r}, "
                f"not one of {', '.join(_TYPE_CASTS)}"
            )
        casts.append(_TYPE_CASTS[spec[col]])
    return casts


def _bad_value(path, col, cast, values):
    """The SmashError for the first of a column's `values` that `cast`
    rejects: it names the file, the line, the column and the value."""
    for i, value in enumerate(values):
        try:
            cast(value)
        except ValueError:
            break
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for _ in range(i + 2):  # the header, then rows 0 .. i
            next(reader)
    return SmashError(
        f"{path}, line {reader.line_num}: column {col!r} value {value!r} "
        f"is not a valid {cast.__name__}"
    )


def load_table(path, schema_file=None) -> Table:
    """Load a headered CSV; types inferred unless a sidecar schema is given.

    A file without a header, or a row with more or fewer fields than the
    header, raises SmashError naming the file (and the row's line).  So
    does a sidecar that gives a column no type or an unknown one (naming
    the sidecar and the column), or a value its column's type does not
    parse (naming the file, line and column).  An int column is an array
    of the narrowest typecode for its values (a list beyond 64 bits).
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SmashError(f"{path}: empty file, no header")
        raw = []
        for row in reader:
            if len(row) != len(header):
                raise SmashError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, "
                    f"but the header has {len(header)}"
                )
            raw.append(row)
    casts = [None] * len(header)
    if schema_file is not None:
        casts = _sidecar_casts(schema_file, path, header)
    columns = zip(*raw) if raw else [()] * len(header)
    cast_columns = []
    for col, values, cast in zip(header, columns, casts):
        try:
            cast_columns.append(_cast_column(values, cast))
        except ValueError:
            raise _bad_value(path, col, cast, values) from None
    return Table(path.stem, header, cast_columns)


_SAVED_TYPES = {cast: name for name, cast in _TYPE_CASTS.items()}


def save_database(db: Database, directory):
    """Write each table as a headered CSV and its sidecar
    `<table>.schema.json`, which load_database reads back with the values'
    types: each column's one type, int64 for an empty one as the guess
    gives.  A column of bools, or of values of several types, which a CSV
    would give back as other values, raises SmashError naming the table and
    the column before any file is written."""
    types = {name: {} for name in db.tables}
    for name, table in db.tables.items():
        for attr, col in zip(table.schema, table.columns):
            # an array's or a range's values all have its first value's type
            kinds = set(map(type, col if type(col) is list else col[:1])) or {int}
            if len(kinds) > 1 or not kinds <= _SAVED_TYPES.keys():
                raise SmashError(
                    f"{name}: column {attr!r} holds "
                    f"{' and '.join(sorted(k.__name__ for k in kinds))} values, but a "
                    f"saved column holds only ints, only floats or only strs")
            types[name][attr] = _SAVED_TYPES[kinds.pop()]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, table in db.tables.items():
        with open(directory / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.schema)
            writer.writerows(zip(*table.columns))
        (directory / f"{name}.schema.json").write_text(json.dumps(types[name]) + "\n")


def load_database(directory) -> Database:
    """Every `*.csv` of `directory` as a table (see `load_table`), with the
    sidecar `<table>.schema.json` when one exists.

    Int columns come back compact, whatever form they were saved from.  A
    `directory` that is not one raises SmashError naming it.
    """
    db = Database()
    directory = Path(directory)
    if not directory.is_dir():
        raise SmashError(f"{directory}: not a directory")
    for path in sorted(directory.glob("*.csv")):
        sidecar = path.with_suffix(".schema.json")
        db.add(load_table(path, sidecar if sidecar.exists() else None))
    return db
