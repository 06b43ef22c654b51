"""Fixed-order feature vectors for the algorithm selector.

Query-shape counters, join-tree statistics, and estimator outputs are
combined into one flat vector.  Variable-length collections (attribute
container counts, branching degrees, per-table and per-join row estimates)
are summarized by six order statistics each.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .engine import EstimateSet
from .errors import SmashError


class SixStats(NamedTuple):
    min: float
    q25: float
    median: float
    q75: float
    max: float
    mean: float

    @classmethod
    def zeros(cls):
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


# _new(cls, values) makes a NamedTuple `cls` without its Python-level
# constructor
_new = tuple.__new__


def _summarize(arr):
    """Six order statistics of floats already in ascending order.

    Quantiles interpolate linearly at q*(n-1); the mean adds the values in
    ascending order.  For q = k/4 that position is exactly (n-1)*k/4, so
    its whole and fractional parts come from integer arithmetic.
    """
    last = len(arr) - 1
    stats = [arr[0]]
    for k in (1, 2, 3):
        pos = last * k
        lo = pos >> 2
        frac = (pos & 3) * 0.25
        stats.append(arr[lo] * (1 - frac) + arr[lo + 1 if frac else lo] * frac)
    stats.append(arr[-1])
    stats.append(sum(arr) / len(arr))
    return _new(SixStats, stats)


def reduce_set(values) -> SixStats:
    """Six order statistics; quantiles interpolate linearly at q*(n-1)."""
    if len(values) == 0:
        raise SmashError("cannot summarize an empty collection")
    return _summarize(sorted(map(float, values)))


class FeatureVector(NamedTuple):
    """The selector's input: query-shape counters, then six order
    statistics (`SixStats`) per collection, one float each.  A CART node's
    `feature` is a field's index."""

    is_0ma: float
    n_relations: float
    n_conditions: float
    n_filters: float
    n_joins: float
    depth: float
    container_counts_min: float
    container_counts_q25: float
    container_counts_median: float
    container_counts_q75: float
    container_counts_max: float
    container_counts_mean: float
    branching_degrees_min: float
    branching_degrees_q25: float
    branching_degrees_median: float
    branching_degrees_q75: float
    branching_degrees_max: float
    branching_degrees_mean: float
    est_total_cost: float
    est_single_table_rows_min: float
    est_single_table_rows_q25: float
    est_single_table_rows_median: float
    est_single_table_rows_q75: float
    est_single_table_rows_max: float
    est_single_table_rows_mean: float
    est_join_rows_min: float
    est_join_rows_q25: float
    est_join_rows_median: float
    est_join_rows_q75: float
    est_join_rows_max: float
    est_join_rows_mean: float


def feature_names():
    """One name per `FeatureVector` field, in its order."""
    return list(FeatureVector._fields)


FEATURE_COUNT = len(FeatureVector._fields)
_ZEROS = SixStats.zeros()


def extract_features(cq, tree, est: EstimateSet) -> FeatureVector:
    """The feature vector of a planned query, read off the query IR, the
    join tree and the estimates; each collection is sorted once.  An
    estimate that is not finite raises SmashError."""
    occurrences = cq.occurrences
    n_joins = sum(occurrences.values()) - len(occurrences)
    n_filters = sum(map(len, cq.filters.values()))
    branching = []
    for kids in tree.children.values():
        if kids:
            branching.append(float(len(kids)))
    branching.sort()
    values = (
        float(tree.oma_flag),
        float(len(cq.atoms)),
        float(n_joins + n_filters),
        float(n_filters),
        float(n_joins),
        float(tree.depth),
        *reduce_set(occurrences.values()),
        *(_summarize(branching) if branching else _ZEROS),
        float(est.total_cost),
        *reduce_set(est.table_rows),
        *(reduce_set(est.join_rows) if est.join_rows else _ZEROS),
    )
    if not all(map(math.isfinite, values)):
        raise SmashError("feature vector contains non-finite values")
    return _new(FeatureVector, values)
