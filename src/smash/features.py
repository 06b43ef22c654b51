"""Fixed-order feature vectors for the algorithm selector.

Query-shape counters, join-tree statistics, and estimator outputs are
combined into one flat vector.  Variable-length collections (attribute
container counts, branching degrees, per-table and per-join row estimates)
are summarized by six order statistics each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import EstimateSet
from .errors import EmptySet


@dataclass(frozen=True)
class SixStats:
    min: float
    q25: float
    median: float
    q75: float
    max: float
    mean: float

    def as_list(self):
        return [self.min, self.q25, self.median, self.q75, self.max, self.mean]

    @classmethod
    def zeros(cls):
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _quantile(sorted_values, q):
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def reduce_set(values) -> SixStats:
    """Six order statistics; quantiles interpolate linearly at q*(n-1)."""
    if len(values) == 0:
        raise EmptySet("cannot summarize an empty collection")
    arr = sorted(map(float, values))
    return SixStats(
        min=arr[0],
        q25=_quantile(arr, 0.25),
        median=_quantile(arr, 0.5),
        q75=_quantile(arr, 0.75),
        max=arr[-1],
        mean=sum(arr) / len(arr),
    )


_SCALAR_FIELDS = [
    "is_0ma",
    "n_relations",
    "n_conditions",
    "n_filters",
    "n_joins",
    "depth",
]
_SET_FIELDS = [
    "container_counts",
    "branching_degrees",
]
_STAT_NAMES = ["min", "q25", "median", "q75", "max", "mean"]


@dataclass(frozen=True)
class FeatureVector:
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
        out += self.container_counts.as_list()
        out += self.branching_degrees.as_list()
        out.append(float(self.est_total_cost))
        out += self.est_single_table_rows.as_list()
        out += self.est_join_rows.as_list()
        if not all(math.isfinite(v) for v in out):
            raise ValueError("feature vector contains non-finite values")
        return out

    def as_dict(self):
        return dict(zip(feature_names(), self.as_list()))


def feature_names():
    names = list(_SCALAR_FIELDS)
    for group in _SET_FIELDS:
        names += [f"{group}_{s}" for s in _STAT_NAMES]
    names.append("est_total_cost")
    for group in ("est_single_table_rows", "est_join_rows"):
        names += [f"{group}_{s}" for s in _STAT_NAMES]
    return names


FEATURE_COUNT = len(feature_names())


def extract_features(cq, tree, est: EstimateSet) -> FeatureVector:
    occurrences = cq.occurrences
    n_joins = sum(c - 1 for c in occurrences.values())
    n_filters = sum(len(ps) for ps in cq.filters.values())
    container = [occurrences[cid] for cid in cq.class_ids()]
    branching = [len(kids) for kids in tree.children().values() if kids]
    return FeatureVector(
        is_0ma=int(tree.oma_flag),
        n_relations=len(cq.atoms),
        n_conditions=n_joins + n_filters,
        n_filters=n_filters,
        n_joins=n_joins,
        depth=tree.depth(),
        container_counts=reduce_set(container),
        branching_degrees=reduce_set(branching) if branching else SixStats.zeros(),
        est_total_cost=est.total_cost,
        est_single_table_rows=reduce_set(est.table_rows),
        est_join_rows=reduce_set(est.join_rows) if est.join_rows else SixStats.zeros(),
    )
