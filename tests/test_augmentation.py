"""Augmentation and workload-generation tests."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smash.acyclic import analyze
from smash.augmentation import (
    WorkloadSpec,
    augment_aggregate_attribute,
    augment_enumeration,
    augment_filters,
    generate_two_regime_workload,
    generate_workload,
)
from smash.engine import OpCounter, evaluate_baseline
from smash.errors import SmashError
from smash.frontend import normalize, parse_query, to_sql
from smash.rewriter import interpret_sequence, rewrite

EXAMPLE_SQL = (
    "SELECT MIN(u.Id) FROM users AS u, votes AS v, badges AS b "
    "WHERE u.Id = v.UserId AND u.Id = b.UserId "
    "AND v.BountyAmount >= 0 AND u.DownVotes = 0 AND u.UpVotes >= 1"
)


class TestFilterAugmentation:
    def test_no_filters_singleton(self, toy_db):
        q = parse_query("SELECT MIN(u.Id) FROM users AS u")
        assert augment_filters(q, toy_db) == [q]

    def test_one_filter_doubles(self, toy_db):
        q = parse_query(
            "SELECT MIN(v.Id) FROM votes AS v WHERE v.BountyAmount >= 0"
        )
        variants = augment_filters(q, toy_db)
        assert len(variants) == 2
        assert variants[0] == q
        assert variants[1].filters[0][2] != 0  # the literal moved

    def test_three_filters_give_triple(self, toy_db):
        q = parse_query(EXAMPLE_SQL)
        variants = augment_filters(q, toy_db)
        assert len(variants) == 3
        assert variants[0] == q
        for v in variants[1:]:
            assert len(v.filters) == len(q.filters)
            changed = [a != b for a, b in zip(v.filters, q.filters)]
            assert sum(changed) == 1  # exactly one literal perturbed

    def test_variants_still_parse(self, toy_db):
        for v in augment_filters(parse_query(EXAMPLE_SQL), toy_db):
            assert parse_query(to_sql(v)) == v

    @settings(database=None)
    @given(st.floats(min_value=0.0, allow_infinity=False))
    @example(0.00001)
    @example(123456789012345678901.5)
    def test_float_literals_round_trip(self, value):
        # a float str() writes with an exponent, as 1e-05, must parse back
        spec = parse_query("SELECT MIN(u.Id) FROM users AS u WHERE u.Score > 0.5")
        spec.filters = [(spec.filters[0][0], ">", value)]
        back = parse_query(to_sql(spec)).filters[0][2]
        assert type(back) is float and back == value


class TestAggregateAugmentation:
    def test_one_variant_per_table(self, toy_db):
        q = parse_query(EXAMPLE_SQL)
        variants = augment_aggregate_attribute(q, toy_db)
        assert len(variants) == 3
        refs = [v.select_aggregates[0] for v in variants]
        assert all(a.fn == "MIN" for a in refs)
        assert [a.column.alias for a in refs] == ["u", "v", "b"]
        # first column of each table
        assert all(a.column.attr == "Id" for a in refs)

    def test_nine_total_with_filters(self, toy_db):
        total = 0
        for fv in augment_filters(parse_query(EXAMPLE_SQL), toy_db):
            total += len(augment_aggregate_attribute(fv, toy_db))
        assert total == 9

    def test_single_table(self, toy_db):
        q = parse_query("SELECT MIN(u.Id) FROM users AS u")
        assert len(augment_aggregate_attribute(q, toy_db)) == 1

    def test_enumeration_rejected(self, toy_db):
        q = parse_query(
            "SELECT u.Id, v.UserId FROM users AS u, votes AS v "
            "WHERE u.Id = v.UserId"
        )
        with pytest.raises(SmashError, match="^enumeration queries have no aggregate to rotate$"):
            augment_aggregate_attribute(q, toy_db)


class TestEnumerationAugmentation:
    def test_three_distinct_pairs(self):
        q = parse_query(
            "SELECT MIN(u.Id) FROM users AS u, votes AS v, badges AS b "
            "WHERE u.Id = v.UserId AND u.Id = b.UserId"
        )
        variants = augment_enumeration(q, random.Random(1))
        assert len(variants) == 3
        pairs = [tuple(v.select_columns) for v in variants]
        assert len(set(pairs)) == 3
        for v in variants:
            assert not v.is_aggregate and len(v.select_columns) == 2

    def test_single_join_single_variant(self):
        q = parse_query(
            "SELECT MIN(u.Id) FROM users AS u, votes AS v "
            "WHERE u.Id = v.UserId"
        )
        variants = augment_enumeration(q, random.Random(1))
        assert len(variants) == 1
        assert len(variants[0].select_columns) == 2

    def test_no_joins_rejected(self):
        with pytest.raises(SmashError, match="^query has no join conditions$"):
            augment_enumeration(
                parse_query("SELECT MIN(u.Id) FROM users AS u"),
                random.Random(1),
            )

    def test_determinism(self):
        q = parse_query(
            "SELECT MIN(u.Id) FROM users AS u, votes AS v, badges AS b "
            "WHERE u.Id = v.UserId AND u.Id = b.UserId"
        )
        a = augment_enumeration(q, random.Random(9))
        b = augment_enumeration(q, random.Random(9))
        assert a == b


class TestGenerator:
    def test_empty_workload(self):
        db, queries = generate_workload(WorkloadSpec(n_base_queries=0))
        assert queries == [] and db.tables == {}

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            generate_workload(WorkloadSpec(dangling_fraction=1.5)).validate()

    def test_determinism(self):
        a_db, a_q = generate_workload(WorkloadSpec(seed=5, n_base_queries=5))
        b_db, b_q = generate_workload(WorkloadSpec(seed=5, n_base_queries=5))
        assert a_q == b_q
        assert {n: r.rows for n, r in a_db.tables.items()} == \
               {n: r.rows for n, r in b_db.tables.items()}

    def test_all_generated_queries_valid(self):
        db, queries = generate_workload(
            WorkloadSpec(seed=3, n_base_queries=25, filter_prob=0.5)
        )
        for _, q in queries:
            again = parse_query(to_sql(q))
            cq = normalize(again, db)
            analyze(cq)  # raises if cyclic

    def test_dangling_star_favors_semi_joins(self):
        db, queries = generate_workload(WorkloadSpec(
            seed=13, n_base_queries=6, shape="star", n_relations=(4, 4),
            rows=(80, 100), fanout=(2, 3), dangling_fraction=0.9,
            filter_prob=0.0, aggregate_prob=1.0,
        ))
        wins = 0
        for _, q in queries:
            cq = normalize(q, db)
            tree, _ = analyze(cq)
            cb, cy = OpCounter(), OpCounter()
            evaluate_baseline(cq, db, cb)
            interpret_sequence(rewrite(tree, cq, db), cq, db, cy)
            if cy.intermediate_tuples < cb.intermediate_tuples:
                wins += 1
        assert wins == len(queries)

    def test_two_regime_prefixes_and_size(self):
        db, queries = generate_two_regime_workload(seed=1, n_queries=10)
        ids = [qid for qid, _ in queries]
        assert len(queries) == 10
        assert sum(i.startswith("hv") for i in ids) == 5
        assert sum(i.startswith("lt") for i in ids) == 5
