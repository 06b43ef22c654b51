"""Fixed-order feature vectors for the algorithm selector.

Query-shape counters, join-tree statistics, and estimator outputs are
combined into one flat vector.  Variable-length collections (attribute
container counts, branching degrees, per-table and per-join row estimates)
are summarized by six order statistics each.
"""

from __future__ import annotations

import math
from typing import NamedTuple, get_type_hints

from .engine import EstimateSet
from .errors import EmptySet


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
        raise EmptySet("cannot summarize an empty collection")
    return _summarize(sorted(map(float, values)))


class FeatureVector(NamedTuple):
    is_0ma: int
    n_relations: int
    n_conditions: int
    n_filters: int
    n_joins: int
    depth: int
    container_counts: SixStats
    branching_degrees: SixStats
    est_total_cost: float
    est_single_table_rows: SixStats
    est_join_rows: SixStats

    def as_list(self):
        out = [
            float(self.is_0ma),
            float(self.n_relations),
            float(self.n_conditions),
            float(self.n_filters),
            float(self.n_joins),
            float(self.depth),
        ]
        out += self.container_counts
        out += self.branching_degrees
        out.append(float(self.est_total_cost))
        out += self.est_single_table_rows
        out += self.est_join_rows
        if not all(map(math.isfinite, out)):
            raise ValueError("feature vector contains non-finite values")
        return out

    def as_dict(self):
        return dict(zip(feature_names(), self.as_list()))


def feature_names():
    """One name per `FeatureVector.as_list` entry, in its order: a SixStats
    field `f` gives f_min .. f_mean."""
    types = get_type_hints(FeatureVector)
    names = []
    for name in FeatureVector._fields:
        if types[name] is SixStats:
            names += [f"{name}_{s}" for s in SixStats._fields]
        else:
            names.append(name)
    return names


FEATURE_COUNT = len(feature_names())
_ZEROS = SixStats.zeros()


def extract_features(cq, tree, est: EstimateSet) -> FeatureVector:
    """The feature vector of a planned query, read off the query IR, the
    join tree and the estimates; each collection is sorted once."""
    occurrences = cq.occurrences
    n_joins = sum(occurrences.values()) - len(occurrences)
    n_filters = sum(map(len, cq.filters.values()))
    branching = []
    for kids in tree.children().values():
        if kids:
            branching.append(float(len(kids)))
    branching.sort()
    return _new(FeatureVector, (
        int(tree.oma_flag),
        len(cq.atoms),
        n_joins + n_filters,
        n_filters,
        n_joins,
        tree.depth(),
        reduce_set(occurrences.values()),
        _summarize(branching) if branching else _ZEROS,
        est.total_cost,
        reduce_set(est.table_rows),
        reduce_set(est.join_rows) if est.join_rows else _ZEROS,
    ))
