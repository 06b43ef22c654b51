"""Workload augmentation and the synthetic workload generator.

Three augmentation steps multiply a base query into variants: filter
perturbation (literals moved toward larger/smaller results), aggregate
attribute rotation (one MIN variant per table), and enumeration variants
(random pairs of join attributes in the SELECT clause).  The generator
produces seeded tree-shaped (hence acyclic) queries together with matching
tables; a dangling-fraction knob controls how many tuples are eliminated
by semi-joins, which steers which evaluation strategy wins.
"""

from __future__ import annotations

import operator
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat, starmap

import numpy as np

from .engine import _OPS, Database, Table, _check_literal, int_typecode
from .errors import SmashError
from .frontend import ColumnRef, QuerySpec, SelectAggregate


def _copy(q: QuerySpec) -> QuerySpec:
    return QuerySpec(
        tables=list(q.tables),
        select_columns=list(q.select_columns),
        select_aggregates=list(q.select_aggregates),
        group_by=list(q.group_by),
        join_conds=list(q.join_conds),
        filters=list(q.filters),
    )


# ---------------------------------------------------------------------------
# filter augmentation
# ---------------------------------------------------------------------------

def _table_of(q: QuerySpec, alias):
    for name, a in q.tables:
        if a == alias:
            return name
    raise KeyError(alias)


def _perturb_literal(column_values, op, literal, direction):
    """New literal moving the result toward "bigger" or "smaller"."""
    values = sorted(set(column_values))
    if len(values) <= 1:
        return literal
    arr = np.asarray(values, dtype=float) if not isinstance(values[0], str) else None
    if op in (">", ">=", "<", "<="):
        if arr is not None:
            lo = float(np.quantile(arr, 0.25))
            hi = float(np.quantile(arr, 0.75))
            if isinstance(values[0], int):  # a column holds one type
                lo, hi = round(lo), round(hi)
        else:
            lo = values[len(values) // 4]
            hi = values[(3 * len(values)) // 4]
        want_low = (op in (">", ">=")) == (direction == "bigger")
        candidate = lo if want_low else hi
        return candidate if candidate != literal else (values[0] if want_low else values[-1])
    # equality-style filters: swap in another value by frequency
    freq = Counter(column_values)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], str(kv[0])))
    want_frequent = (op == "=") == (direction == "bigger")
    ordered = ranked if want_frequent else ranked[::-1]
    for value, _ in ordered:
        if value != literal:
            return value
    return literal


def augment_filters(q: QuerySpec, db: Database):
    """0 filters -> [q]; 1 filter -> 2 variants; >=2 filters -> 3 variants.

    A filter the engine would reject on its column's first value raises
    the engine's SmashError (see `engine._check_literal`)."""
    if not q.filters:
        return [q]
    columns = []  # each filter's column
    for col, _, lit in q.filters:
        name = _table_of(q, col.alias)
        columns.append(db.table(name).column(col.attr))
        if columns[-1]:
            _check_literal(db.stats[name].types[col.attr], columns[-1][0], lit)
    if len(q.filters) == 1:
        col, op, lit = q.filters[0]
        new_lit = _perturb_literal(columns[0], op, lit, "smaller")
        if new_lit == lit:
            new_lit = _perturb_literal(columns[0], op, lit, "bigger")
        variant = _copy(q)
        variant.filters = [(col, op, new_lit)]
        return [q, variant]
    # rank filters by how strongly a perturbation changes the post-filter count
    impact = []
    for i, ((_, op, lit), values) in enumerate(zip(q.filters, columns)):
        compare = _OPS[op]
        base = sum(1 for v in values if compare(v, lit))
        deltas = []
        for direction in ("bigger", "smaller"):
            new_lit = _perturb_literal(values, op, lit, direction)
            deltas.append(abs(sum(1 for v in values if compare(v, new_lit)) - base))
        impact.append((-max(deltas), i))
    chosen = [i for _, i in sorted(impact)[:2]]

    def variant_with(idx, direction):
        col, op, lit = q.filters[idx]
        new_lit = _perturb_literal(columns[idx], op, lit, direction)
        variant = _copy(q)
        variant.filters = list(q.filters)
        variant.filters[idx] = (col, op, new_lit)
        return variant

    return [q, variant_with(chosen[0], "bigger"), variant_with(chosen[1], "smaller")]


# ---------------------------------------------------------------------------
# aggregate-attribute augmentation
# ---------------------------------------------------------------------------

def augment_aggregate_attribute(q: QuerySpec, db: Database):
    """One MIN variant per table, over that table's first column."""
    if not q.is_aggregate:
        raise SmashError("enumeration queries have no aggregate to rotate")
    variants = []
    for name, alias in q.tables:
        attr = db.table(name).schema[0]
        variant = _copy(q)
        variant.select_columns = []
        variant.group_by = list(q.group_by)
        variant.select_aggregates = [
            SelectAggregate("MIN", ColumnRef(alias, attr), False)
        ]
        variants.append(variant)
    return variants


# ---------------------------------------------------------------------------
# enumeration augmentation
# ---------------------------------------------------------------------------

def augment_enumeration(q: QuerySpec, rng: random.Random):
    """Replace the output by random pairs of join attributes."""
    if not q.join_conds:
        raise SmashError("query has no join conditions")
    attrs = []
    for l, r in q.join_conds:
        for col in (l, r):
            if col not in attrs:
                attrs.append(col)

    def enum_variant(columns):
        variant = _copy(q)
        variant.select_aggregates = []
        variant.group_by = []
        variant.select_columns = list(columns)
        return variant

    if len(attrs) < 3:
        return [enum_variant(attrs)]
    pairs = []
    while len(pairs) < 3:
        pair = tuple(sorted(rng.sample(range(len(attrs)), 2)))
        if pair not in pairs:
            pairs.append(pair)
    return [enum_variant([attrs[i], attrs[j]]) for i, j in pairs]


# ---------------------------------------------------------------------------
# synthetic workload generation
# ---------------------------------------------------------------------------

@dataclass
class WorkloadSpec:
    seed: int = 42
    n_base_queries: int = 20
    n_relations: tuple = (3, 5)
    rows: tuple = (20, 60)
    fanout: tuple = (1, 2)
    dangling_fraction: float = 0.3
    shape: str = "random"  # random | star | chain
    filter_prob: float = 0.3
    payload_range: int = 100
    aggregate_prob: float = 0.5
    name_prefix: str = "q"

    def validate(self):
        if not (0.0 <= self.dangling_fraction <= 1.0):
            raise SmashError("dangling fraction must be within [0, 1]")
        for lo, hi in (self.n_relations, self.rows, self.fanout):
            if lo > hi or lo < 1:
                raise SmashError("ranges must be nonempty")


def _tree_parents(rng, k, shape):
    if shape == "star":
        return [None] + [0] * (k - 1)
    if shape == "chain":
        return [None] + list(range(k - 1))
    return [None] + [rng.randrange(i) for i in range(1, k)]


def _randrange_draws(rng, n, count):
    """`count` values of `rng.randrange(n)`, drawn as it draws them.

    CPython's `randrange(n)` (`_randbelow_with_getrandbits`) calls
    `getrandbits(n.bit_length())` until a value falls below n.  Asking, one
    batch at a time, for as many values as are still missing makes the
    same calls in the same order: a batch never holds more calls than the
    values it must still yield, so it never draws past the last call the
    per-value loop would make.
    """
    n = operator.index(n)
    if n < 1:  # getrandbits(0) is 0, so the batches would never fill
        raise ValueError("empty range for randrange()")
    getrandbits, bits = rng.getrandbits, n.bit_length()
    values = []
    while len(values) < count:
        values += filter(n.__gt__, map(getrandbits, repeat(bits, count - len(values))))
    return values


def _payloads(rng, spec: WorkloadSpec, count):
    """`count` `_randrange_draws` below `spec.payload_range`, as an array of
    its narrowest typecode, or a list beyond 64 bits (a byte array is built
    from `bytes`, 3× faster than from the list)."""
    values = _randrange_draws(rng, spec.payload_range, count)
    code = int_typecode(0, spec.payload_range - 1)
    if code is None:
        return values
    return array(code, bytes(values) if code == "B" else values)


def _generate_one(rng, spec: WorkloadSpec, qid):
    """One tree-shaped query over `k` tables of its own, drawn from `rng`.

    The order of the draws is part of the workload: the table count, the
    tree, the root's row count and payloads; then, per table in
    breadth-first order, its fanout and one `random()` per non-core row of
    its parent; then the other tables' payloads in table order; then the
    filter and the output.  Change that order, or the number of draws, and
    the tables and queries of every seed change.  Own keys are a `range`;
    parent keys and payloads arrays of the narrowest typecode for their bound.
    """
    k = rng.randint(*spec.n_relations)
    parents = _tree_parents(rng, k, spec.shape)
    children = [[] for _ in range(k)]
    for c, p in enumerate(parents):
        if p is not None:
            children[p].append(c)

    table_names = [f"{qid}_t{i}" for i in range(k)]
    aliases = [f"r{i}" for i in range(k)]
    edge_attr = {}
    for c, p in enumerate(parents):
        if p is not None:
            edge_attr[c] = f"k{c}"

    n_root = rng.randint(*spec.rows)
    row_counts = [n_root] + [0] * (k - 1)
    # a child row's key into its parent; its own key is its position
    parent_keys = {}
    # a few "core" rows always join through every table, so query results
    # are never empty regardless of the dangling fraction
    core_rows = {0: set(range(min(2, n_root)))}
    root_payloads = _payloads(rng, spec, n_root)
    queue = list(children[0])
    while queue:
        node = queue.pop(0)
        parent = parents[node]
        fanout = rng.randint(*spec.fanout)
        # dangling concentrates on the last table so the baseline builds a
        # large intermediate before it collapses; earlier tables dangle
        # mildly, keeping generated instances diverse
        dangling = (
            spec.dangling_fraction if node == k - 1
            else spec.dangling_fraction * 0.25
        )
        # each non-core parent row, in order, is dropped when its draw
        # falls below `dangling`; a core row draws nothing and stays
        n_parent = row_counts[parent]
        core = sorted(core_rows[parent])
        keep = list(map(operator.ge,
                        starmap(rng.random, repeat((), n_parent - len(core))),
                        repeat(dangling)))
        for key in core:
            keep.insert(key, True)
        kept = list(compress(range(n_parent), keep))
        code = int_typecode(0, n_parent - 1)
        parent_keys[node] = array(code, np.repeat(np.array(kept, code), fanout).tobytes())
        row_counts[node] = len(parent_keys[node])
        core_rows[node] = {kept.index(key) * fanout for key in core}
        queue.extend(children[node])

    relations = []
    for node in range(k):
        # one key column per child edge, equal to the row's own key, and a
        # payload column; a child table leads with its parent key
        own_keys = [range(row_counts[node])] * len(children[node])
        schema = [edge_attr[c] for c in children[node]] + ["v"]
        if node == 0:
            columns = [*own_keys, root_payloads]
        else:
            schema.insert(0, edge_attr[node])
            payloads = _payloads(rng, spec, row_counts[node])
            columns = [parent_keys[node], *own_keys, payloads]
        relations.append(Table(table_names[node], schema, columns))

    tables = [(table_names[i], aliases[i]) for i in range(k)]
    join_conds = []
    for c, p in enumerate(parents):
        if p is not None:
            join_conds.append(
                (ColumnRef(aliases[p], edge_attr[c]), ColumnRef(aliases[c], edge_attr[c]))
            )
    filters = []
    if rng.random() < spec.filter_prob:
        target = rng.randrange(k)
        threshold = rng.randrange(spec.payload_range // 4)
        filters.append((ColumnRef(aliases[target], "v"), ">=", threshold))

    if k > 1 and rng.random() >= spec.aggregate_prob:
        first = join_conds[0]
        query = QuerySpec(
            tables=tables,
            select_columns=[first[0], first[1]],
            join_conds=join_conds,
            filters=filters,
        )
    else:
        target = rng.randrange(k)
        query = QuerySpec(
            tables=tables,
            select_aggregates=[
                SelectAggregate("MIN", ColumnRef(aliases[target], "v"), False)
            ],
            join_conds=join_conds,
            filters=filters,
        )
    return relations, query


def generate_workload(spec: WorkloadSpec):
    """Seeded database + query list; identical seeds reproduce both.

    Every int column is compact (see `_generate_one`).
    """
    db = Database()
    return db, _add_workload(db, spec)


def _add_workload(db, spec: WorkloadSpec):
    """Add the spec's tables to `db`; returns its queries."""
    spec.validate()
    rng = random.Random(spec.seed)
    queries = []
    for i in range(spec.n_base_queries):
        qid = f"{spec.name_prefix}{i:04d}"
        relations, query = _generate_one(rng, spec, qid)
        for rel in relations:
            db.add(rel)
        queries.append((qid, query))
    return queries


def generate_two_regime_workload(seed=42, n_queries=200):
    """Half the queries favor semi-join rewriting, half the baseline.

    The "heavy" half uses star queries over larger tables with high fanout
    and a large dangling fraction (semi-joins prune early); the "light"
    half uses fully-joining chains of tiny tables where rewriting overhead
    dominates.
    """
    n_heavy = n_queries // 2
    n_light = n_queries - n_heavy
    heavy = WorkloadSpec(
        seed=seed,
        n_base_queries=n_heavy,
        n_relations=(4, 4),
        rows=(250, 350),
        fanout=(5, 7),
        dangling_fraction=0.9,
        shape="star",
        filter_prob=0.0,
        aggregate_prob=0.6,
        name_prefix="hv",
    )
    light = WorkloadSpec(
        seed=seed + 1,
        n_base_queries=n_light,
        n_relations=(3, 3),
        rows=(1500, 2500),
        fanout=(1, 1),
        dangling_fraction=0.0,
        shape="chain",
        filter_prob=0.0,
        aggregate_prob=0.0,
        name_prefix="lt",
    )
    db = Database()
    queries = _add_workload(db, heavy)
    return db, queries + _add_workload(db, light)
