"""Feature extraction tests, anchored to the published six-statistics rows."""

import math

import pytest

from smash.acyclic import analyze
from smash.engine import EstimateSet, estimate_cardinalities
from smash.errors import SmashError
from smash.features import (
    FEATURE_COUNT,
    SixStats,
    extract_features,
    feature_names,
    reduce_set,
)
from smash.frontend import normalize, parse_query

from conftest import CHAIN_SQL


class TestReduceSet:
    def test_container_counts_row(self):
        s = reduce_set([1, 1, 1, 1, 1, 2, 3])
        assert round(s.min, 2) == 1.0
        assert round(s.q25, 2) == 1.0
        assert round(s.median, 2) == 1.0
        assert round(s.q75, 2) == 1.5
        assert round(s.max, 2) == 3.0
        assert round(s.mean, 2) == 1.43

    def test_branching_degrees_row(self):
        s = reduce_set([3, 1])
        assert list(s) == [1.0, 1.5, 2.0, 2.5, 3.0, 2.0]

    def test_singleton(self):
        assert list(reduce_set([5])) == [5.0] * 6

    def test_empty_raises(self):
        with pytest.raises(SmashError, match="^cannot summarize an empty collection$"):
            reduce_set([])

    def test_ordering_invariant(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            vals = [rng.uniform(-10, 10) for _ in range(rng.randint(1, 20))]
            s = reduce_set(vals)
            assert s.min <= s.q25 <= s.median <= s.q75 <= s.max
            assert s.min <= s.mean <= s.max


def chain_features(chain_db, sql=CHAIN_SQL):
    cq = normalize(parse_query(sql), chain_db)
    tree, _ = analyze(cq)
    return extract_features(cq, tree, estimate_cardinalities(cq, chain_db))


def six(fv, name):
    """The six statistics of one collection, read off the flat vector."""
    return [getattr(fv, f"{name}_{s}") for s in SixStats._fields]


class TestExtractFeatures:
    def test_chain_fixture_values(self, chain_db):
        fv = chain_features(chain_db)
        assert fv.is_0ma == 1
        assert fv.n_relations == 3
        assert fv.n_filters == 0
        assert fv.n_joins == 2
        assert fv.n_conditions == 2
        assert fv.depth == 2
        # container counts {2,2,1,1}: join classes occur twice, endpoints once
        assert fv.container_counts_max == 2.0
        assert fv.container_counts_min == 1.0
        assert fv.container_counts_mean == 1.5
        # branching degrees {1,1}: two non-leaf nodes with one child each
        assert six(fv, "branching_degrees") == [1.0] * 6

    def test_single_atom_degenerate(self, chain_db):
        fv = chain_features(chain_db, "SELECT MIN(R.a) FROM R")
        assert fv.n_relations == 1
        assert fv.n_joins == 0
        assert fv.depth == 0
        assert six(fv, "container_counts") == [1.0] * 6
        assert six(fv, "branching_degrees") == list(SixStats.zeros())
        assert six(fv, "est_join_rows") == list(SixStats.zeros())

    def test_filters_counted(self, chain_db):
        fv = chain_features(
            chain_db,
            "SELECT MIN(R.a) FROM R, S WHERE R.b = S.b AND R.a >= 1 AND S.c = 10",
        )
        assert fv.n_filters == 2
        assert fv.n_joins == 1
        assert fv.n_conditions == 3

    def test_vector_length_and_order_stable(self, chain_db):
        names = feature_names()
        assert len(names) == FEATURE_COUNT == 31
        assert names[0] == "is_0ma"
        assert names[5:8] == ["depth", "container_counts_min", "container_counts_q25"]
        assert names[17:20] == ["branching_degrees_mean", "est_total_cost",
                                "est_single_table_rows_min"]
        assert names[-1] == "est_join_rows_mean"
        fv1 = chain_features(chain_db)
        fv2 = chain_features(chain_db)
        assert fv1 == fv2
        assert len(fv1) == FEATURE_COUNT
        assert all(type(v) is float for v in fv1)
        assert repr(list(fv1)) == repr(list(fv2))  # byte-identical

    def test_as_dict_keys_match_names(self, chain_db):
        fv = chain_features(chain_db)
        assert list(fv._asdict()) == feature_names()

    @pytest.mark.parametrize("est", [
        EstimateSet([4, 2], [3.0], math.inf),
        EstimateSet([4, 2], [math.nan], 7.0),
        EstimateSet([4, math.inf], [3.0], 7.0),
    ], ids=["total_cost_inf", "join_rows_nan", "table_rows_inf"])
    def test_non_finite_estimate_raises(self, chain_db, est):
        cq = normalize(parse_query(CHAIN_SQL), chain_db)
        tree, _ = analyze(cq)
        with pytest.raises(ValueError, match="non-finite"):
            extract_features(cq, tree, est)
