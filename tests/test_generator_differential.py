"""Differential test of the workload generator against its row-at-a-time form.

`oracle_generate_one` is the generator as it was before its row building
drew each table's payloads and dangling draws in batches, kept verbatim
(renamed, with its `_tree_parents`): one `randrange` or `random()` call
per row and one `tuple([...])` per row.  The generator must make the same
draws in the same order, so for every spec and seed both give the same
tables (names, schemas, rows in order, value types) and the same queries.
"""

import random
from itertools import product
from pathlib import Path

import pytest

from smash import augmentation
from smash.augmentation import (
    WorkloadSpec,
    _randrange_draws,
    generate_two_regime_workload,
    generate_workload,
)
from smash.engine import Relation
from smash.frontend import ColumnRef, QuerySpec, SelectAggregate, to_sql

REPO = Path(__file__).resolve().parent.parent
SHAPES = ("random", "star", "chain")
PAYLOAD_RANGES = (1, 3, 100, 257)


def oracle_tree_parents(rng, k, shape):
    if shape == "star":
        return [None] + [0] * (k - 1)
    if shape == "chain":
        return [None] + list(range(k - 1))
    return [None] + [rng.randrange(i) for i in range(1, k)]


def oracle_generate_one(rng, spec: WorkloadSpec, qid):
    k = rng.randint(*spec.n_relations)
    parents = oracle_tree_parents(rng, k, spec.shape)
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
    rows_of = {}
    # a few "core" rows always join through every table, so query results
    # are never empty regardless of the dangling fraction
    core_rows = {0: set(range(min(2, n_root)))}

    # root: one key column per child edge plus a payload column
    schema0 = [edge_attr[c] for c in children[0]] + ["v"]
    rows_of[0] = [
        tuple([r] * len(children[0]) + [rng.randrange(spec.payload_range)])
        for r in range(n_root)
    ]
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
        rows = []
        core = set()
        idx = 0
        for parent_key in range(row_counts[parent]):
            is_core = parent_key in core_rows[parent]
            if not is_core and rng.random() < dangling:
                continue
            if is_core:
                core.add(idx)
            for _ in range(fanout):
                rows.append((parent_key, idx))
                idx += 1
        row_counts[node] = len(rows)
        rows_of[node] = rows
        core_rows[node] = core
        queue.extend(children[node])

    relations = []
    for node in range(k):
        if node == 0:
            schema = schema0
            rows = rows_of[0]
        else:
            schema = [edge_attr[node]]
            schema += [edge_attr[c] for c in children[node]]
            schema += ["v"]
            rows = [
                tuple(
                    [pk] + [own] * len(children[node])
                    + [rng.randrange(spec.payload_range)]
                )
                for pk, own in rows_of[node]
            ]
        relations.append(Relation(table_names[node], schema, rows))

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


def snapshot(generate):
    """(tables, queries, error) of `generate()`: every table's name, schema
    and rows (as their repr, so 1 and 1.0 differ), every query's id and
    SQL text, or the ValueError's message."""
    try:
        db, queries = generate()
    except ValueError as exc:
        return None, None, str(exc)
    tables = [(name, rel.schema, repr(rel.rows)) for name, rel in db.tables.items()]
    return tables, [(qid, to_sql(q)) for qid, q in queries], None


def assert_same_as_oracle(generate):
    """`generate()` gives what it gave with the oracle generator; returns
    that snapshot."""
    got = snapshot(generate)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(augmentation, "_generate_one", oracle_generate_one)
        expected = snapshot(generate)
    assert got[2] == expected[2]
    assert got[1] == expected[1]
    assert got[0] == expected[0]
    return got


@pytest.mark.parametrize("seed", [42, 11])
@pytest.mark.parametrize("name", ["two_regime", "selector_wide"])
def test_benchmark_workloads_match_the_oracle(monkeypatch, name, seed):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    from smashbench import WORKLOADS

    tables, queries, error = assert_same_as_oracle(lambda: WORKLOADS[name].generate(seed))
    assert error is None and len(queries) == 240


def spread_of_specs():
    """Every shape x payload range x dangling fraction 0, 1 or random,
    with single-table queries, fanouts 1-7 and filters drawn or not."""
    rng = random.Random(2026)
    specs = []
    for i, (shape, payload_range, dangling) in enumerate(
            product(SHAPES, PAYLOAD_RANGES, (0.0, 1.0, None))):
        low = rng.randint(1, 3)
        rows = rng.randint(1, 20)
        fanout = 1 + i % 7
        specs.append(WorkloadSpec(
            seed=rng.randrange(10**6),
            n_base_queries=rng.randint(1, 5),
            n_relations=(1, 1) if i % 4 == 0 else (low, rng.randint(low, 4)),
            rows=(rows, rows + rng.randint(0, 10)),
            fanout=(fanout, rng.randint(fanout, 7)),
            dangling_fraction=rng.random() if dangling is None else dangling,
            shape=shape,
            filter_prob=rng.choice((0.0, 0.5, 1.0)),
            payload_range=payload_range,
            aggregate_prob=rng.random(),
            name_prefix=f"s{i}_",
        ))
    return specs


def test_spread_of_specs_matches_the_oracle():
    outcomes = []
    for spec in spread_of_specs():
        tables, _, error = assert_same_as_oracle(lambda: generate_workload(spec))
        outcomes.append((spec.payload_range, error is None))
    # a filter over payloads below 4 has an empty threshold range, which
    # randrange rejects on either side; every range also generates tables
    assert set(outcomes) == {(r, ok) for r in PAYLOAD_RANGES for ok in (True, False)} - {
        (100, False), (257, False)}


@pytest.mark.parametrize("seed", [42, 11])
def test_two_regime_at_a_smaller_size_matches_the_oracle(seed):
    assert_same_as_oracle(lambda: generate_two_regime_workload(seed, 20))


def test_empty_payload_range_raises():
    for payload_range in (0, -3):
        spec = WorkloadSpec(n_base_queries=2, payload_range=payload_range)
        with pytest.raises(ValueError, match="empty range"):
            generate_workload(spec)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 100, 128, 257, 2**31 + 1, 2**70 - 5])
def test_batched_draws_equal_randrange(n):
    ours, theirs = random.Random(n), random.Random(n)
    for count in (0, 1, 5, 333):
        assert _randrange_draws(ours, n, count) == [theirs.randrange(n) for _ in range(count)]
    assert ours.getstate() == theirs.getstate()
