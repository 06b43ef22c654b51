"""Shared fixtures and the independent brute-force oracle.

The oracle evaluates a QuerySpec by backtracking nested-loop joins over
the raw table rows, with its own filter and aggregate code, so it shares
no logic with the engine under test.  Results are compared as multisets
of positional tuples.
"""

import operator
from collections import Counter

import pytest

from smash.augmentation import WorkloadSpec, generate_workload
from smash.engine import Database, Table

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def from_rows(name, schema, rows):
    """The `Table` of `rows`, row tuples (or lists) as long as the schema,
    stored by column as `Database.add` takes it."""
    if not rows:
        return Table(name, schema, [[] for _ in schema])
    return Table(name, schema, [list(col) for col in zip(*rows, strict=True)])


@pytest.fixture
def chain_db():
    """R(a,b)-S(b,c)-T(c,d); exactly one joining combination (1,1,10,100)."""
    db = Database()
    db.add(from_rows("R", ["a", "b"], [(1, 1), (2, 5)]))
    db.add(from_rows("S", ["b", "c"], [(1, 10), (7, 11)]))
    db.add(from_rows("T", ["c", "d"], [(10, 100), (12, 101)]))
    return db


CHAIN_SQL = "SELECT MIN(R.a) FROM R, S, T WHERE R.b = S.b AND S.c = T.c"


@pytest.fixture
def toy_db():
    """users/votes/badges in the flavor of a Q&A site schema."""
    db = Database()
    db.add(from_rows("users", ["Id", "DownVotes", "UpVotes"], [
        (1, 0, 10), (2, 0, 3), (3, 10, 0), (4, 0, 7), (5, 2, 2),
    ]))
    db.add(from_rows("votes", ["Id", "UserId", "BountyAmount"], [
        (100, 1, 0), (101, 1, 50), (102, 2, 0), (103, 3, 10),
        (104, 4, 0), (105, 4, 100),
    ]))
    db.add(from_rows("badges", ["Id", "UserId", "Name"], [
        (200, 1, "gold"), (201, 2, "silver"), (202, 2, "gold"),
        (203, 5, "bronze"),
    ]))
    return db


def oracle_matches(spec, db):
    """All satisfying alias -> row environments via backtracking."""
    tabs = [(db.table(name), alias) for name, alias in spec.tables]
    rel_of = {alias: rel for rel, alias in tabs}
    filters_by_alias = {}
    for col, op, lit in spec.filters:
        filters_by_alias.setdefault(col.alias, []).append((col, op, lit))

    def value(env, col):
        rel = rel_of[col.alias]
        return env[col.alias][rel.schema.index(col.attr)]

    # conditions checkable once the i-th table is bound
    order = [alias for _, alias in tabs]
    conds_at = {alias: [] for alias in order}
    for l, r in spec.join_conds:
        later = max(l.alias, r.alias, key=order.index)
        conds_at[later].append((l, r))

    matches = []

    def consistent(env, alias):
        for col, op, lit in filters_by_alias.get(alias, []):
            if not _OPS[op](value(env, col), lit):
                return False
        for l, r in conds_at[alias]:
            if value(env, l) != value(env, r):
                return False
        return True

    def rec(i, env):
        if i == len(tabs):
            matches.append(dict(env))
            return
        rel, alias = tabs[i]
        for row in rel.rows:
            env[alias] = row
            if consistent(env, alias):
                rec(i + 1, env)
        del env[alias]

    rec(0, {})
    return matches


def oracle_rows(spec, db):
    """Answer multiset of a QuerySpec via backtracking nested loops."""
    rel_of = {alias: db.table(name) for name, alias in spec.tables}

    def value(env, col):
        rel = rel_of[col.alias]
        return env[col.alias][rel.schema.index(col.attr)]

    matches = oracle_matches(spec, db)

    if not spec.is_aggregate:
        return Counter(
            tuple(value(env, c) for c in spec.select_columns) for env in matches
        )
    groups = {}
    for env in matches:
        key = tuple(value(env, c) for c in spec.group_by)
        groups.setdefault(key, []).append(env)
    out = Counter()
    for key, members in groups.items():
        vals = []
        for agg in spec.select_aggregates:
            if agg.column is None:
                vals.append(len(members))
                continue
            column = [value(env, agg.column) for env in members]
            if agg.distinct:
                column = list(set(column))
            fn = agg.fn.upper()
            if fn == "MIN":
                vals.append(min(column))
            elif fn == "MAX":
                vals.append(max(column))
            elif fn == "COUNT":
                vals.append(len(column))
            elif fn == "SUM":
                vals.append(sum(column))
            elif fn == "AVG":
                vals.append(sum(column) / len(column))
            else:
                raise AssertionError(f"oracle: unknown aggregate {fn}")
        out[key + tuple(vals)] += 1
    return out


def result_multiset(relation):
    return Counter(relation.rows)


def random_specs(seed, count, max_relations=6, max_rows=40):
    """Diverse small instances for correctness testing.

    Yields (db, QuerySpec) pairs; every query is tree-shaped.
    """
    import random as _random

    meta = _random.Random(seed)
    for i in range(count):
        spec = WorkloadSpec(
            seed=meta.randrange(10**9),
            n_base_queries=1,
            n_relations=(1, max_relations),
            rows=(2, max_rows),
            fanout=(1, 2),
            dangling_fraction=meta.choice([0.0, 0.2, 0.5, 0.8]),
            shape=meta.choice(["random", "star", "chain"]),
            filter_prob=0.4,
            aggregate_prob=0.5,
            name_prefix=f"g{i}_",
        )
        db, queries = generate_workload(spec)
        yield db, queries[0][1]


def selector_wide(seed, n):
    """The benchmark's selector_wide generator, on fewer queries."""
    return generate_workload(WorkloadSpec(
        seed=seed, n_base_queries=n, n_relations=(4, 8), rows=(20, 60),
        fanout=(1, 2), shape="random", filter_prob=0.5, aggregate_prob=0.5,
        name_prefix="sw",
    ))
