"""Learned algorithm selection: labeling, CART, k-NN, metrics, decisions.

Runtime pairs become labeled examples (class 1 means the rewritten plan was
faster; the regression target is the sign-log transformed time difference
t_rewritten - t_original, so negative predictions favor rewriting).  The
decision tree and k-NN models are implemented from scratch with fully
deterministic tie-breaking so that identical inputs serialize identically.

CART grows breadth-first, one tree level per pass (as SLIQ does over
presorted attribute lists).  The level's rows are sorted once per feature
by (node, value), and every (feature, threshold) candidate of every node
on it gets its gain from running sums: class counts for Gini, sums of
node-centred targets for variance.  That is O(m log m * features) per
level of m rows, plus O(n) for each re-scored partition of an n-row node,
instead of the exhaustive O(n * thresholds * features) per node.  The
running-sum gains only screen: every candidate within 1e-9 (times the node
impurity, if above 1) of its node's best is re-scored exactly as the
exhaustive search scores it -- threshold (lo + hi) / 2, partition
x <= threshold in row order, `_gini`/`_variance` -- and the first
candidate, in feature then threshold order, that no later one beats by
more than 1e-12 wins.  Models are therefore byte-identical to the
exhaustive depth-first search's; tests/test_cart_differential.py checks
this.  A cross-validation fold grows only the paths its held-out rows take
(a lazy decision tree: Friedman, Kohavi and Yun, AAAI 1996).  Each node is
screened on its own, so every split on those paths is the full tree's, and
so is every fold's accuracy.
"""

from __future__ import annotations

import inspect
import json
import math
import random
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyTraining,
    LengthMismatch,
    NonFinite,
    TooFewExamples,
    UnseenFeatureDimension,
    UntrainedModel,
)
from .features import FeatureVector, feature_names

ORIGINAL = "Original"
REWRITTEN = "Rewritten"


def sign_log(x) -> float:
    """sgn(x) * ln(|x| + 1)."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFinite(f"sign_log argument must be finite, got {x!r}")
    return math.copysign(math.log(abs(x) + 1.0), x)


def _as_values(features):
    if isinstance(features, FeatureVector):
        return features.as_list()
    return [float(v) for v in features]


@dataclass
class LabeledExample:
    query_id: str
    features: list
    t_original: float
    t_rewritten: float
    class_label: int
    reg_target: float


def label(query_id, features, t_original, t_rewritten) -> LabeledExample:
    values = _as_values(features)
    return LabeledExample(
        query_id=query_id,
        features=values,
        t_original=float(t_original),
        t_rewritten=float(t_rewritten),
        class_label=1 if t_rewritten < t_original else 0,
        reg_target=sign_log(t_rewritten - t_original),
    )


# ---------------------------------------------------------------------------
# dataset splitting
# ---------------------------------------------------------------------------

@dataclass
class Splits:
    train: list
    validation: list
    test: list
    folds: list  # (train subset, held-out fold) pairs over train+validation

    @property
    def pool(self):
        return self.train + self.validation


def split_dataset(examples, seed, n_folds=10) -> Splits:
    """Deterministic shuffled 80/10/10 split plus CV folds over the 90%."""
    if len(examples) < 20:
        raise TooFewExamples(f"need >= 20 examples, got {len(examples)}")
    shuffled = list(examples)
    random.Random(seed).shuffle(shuffled)
    n = len(shuffled)
    n_test = max(1, round(0.1 * n))
    n_val = max(1, round(0.1 * n))
    test = shuffled[:n_test]
    validation = shuffled[n_test:n_test + n_val]
    train = shuffled[n_test + n_val:]
    pool = train + validation
    folds = []
    for i in range(n_folds):
        held = pool[i::n_folds]
        rest = [e for j, e in enumerate(pool) if j % n_folds != i]
        if held:
            folds.append((rest, held))
    return Splits(train=train, validation=validation, test=test, folds=folds)


# ---------------------------------------------------------------------------
# CART
# ---------------------------------------------------------------------------

@dataclass
class CartModel:
    task: str  # classify | regress
    tree: dict
    importances: list
    feature_names: list
    n_features: int


def _gini(labels):
    n = len(labels)
    if n == 0:
        return 0.0
    p1 = float(np.asarray(labels, dtype=float).sum()) / n
    return 1.0 - p1 * p1 - (1.0 - p1) ** 2


def _variance(values):
    """float(np.var(values)) for non-empty input, bit for bit: np.var's own
    steps (sum / n, squared deviations, sum / n), without its dispatch."""
    a = np.asarray(values, dtype=float)
    if len(a) == 0:
        return 0.0
    d = a - a.sum() / len(a)
    return float((d * d).sum() / len(a))


def _leaf(task, y):
    y = np.asarray(y, dtype=float)
    if task == "classify":
        ones = int(y.sum())
        zeros = len(y) - ones
        return {
            "leaf": True,
            "counts": [zeros, ones],
            "prediction": 1 if ones > zeros else 0,
        }
    # np.mean's steps, bit for bit
    return {"leaf": True, "n": len(y), "prediction": float(y.sum() / len(y))}


_SCREEN_TOL = 1e-9


def _ratio(num, den):
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _ranks(X):
    """Each value's dense rank in its column; equal values share a rank.

    A stable sort on (node, rank) therefore orders a level's rows exactly
    as a stable sort on value within each node would.  NaNs sort last,
    each with its own rank, in row order, as they do in a stable sort.
    """
    order = np.argsort(X, axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.int64)
    np.cumsum(ordered[1:] != ordered[:-1], axis=0, out=steps[1:])
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps, axis=0)
    return ranks


def _screen_level(X, ranks, nodes, task):
    """Every open node's split candidates on one tree level, from one pass.

    `nodes` holds (rows in ascending order, node targets, impurity) per
    node, each with at least two rows.  The rows are concatenated node by
    node and each feature is sorted once by (node, value), so every array
    is (rows on the level) x features.  Each node's running sums, gains and
    screening cut are those a sort of that node alone gives, bit for bit:
    class counts for Gini, sums of node-centred targets for variance, and
    a score within _SCREEN_TOL (times the impurity, if above 1) of the
    node's best.  Returns, per node, its (feature, threshold) candidates
    in feature then threshold order.

    Screening is safe: the rounding error of a running-sum gain is orders
    of magnitude below the tolerance, so a candidate left out gains nearly
    1e-9 less than the best.  The 1e-12 rule never picks it, and leaving it
    out could change the pick only through a chain of about a thousand
    candidates, each within 1e-12 of the one before.  A candidate whose
    threshold rounded onto hi or overflowed may leave a side empty: it
    gains nothing, and no split with two sides gains less, so it screens
    none of them out; `_best_candidate` skips it.
    """
    sizes = np.array([len(rows) for rows, _, _ in nodes])
    starts = np.cumsum(sizes) - sizes
    rows = np.concatenate([rows for rows, _, _ in nodes])
    m, n_features = len(rows), X.shape[1]
    node = np.repeat(np.arange(len(nodes)), sizes)
    order = np.argsort(node[:, None] * len(X) + ranks[rows], axis=0, kind="stable")
    V = X[rows[order], np.arange(n_features)]
    lo, hi = V[:-1], V[1:]
    pair_node = node[:-1]  # pair k is rows k and k + 1 of the sorted level
    distinct = (lo < hi) & (pair_node == node[1:])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        T = (lo + hi) / 2.0
    first = starts[pair_node][:, None]
    # rows with x <= T: the rows of the node up to lo, unless T rounded to
    # hi (adjacent floats) or overflowed
    n_left = np.repeat(np.arange(1.0, m)[:, None] - first, n_features, axis=1)
    for k, f in zip(*np.nonzero(distinct & ((T >= hi) | (T < lo)))):
        s = first[k, 0]
        n_left[k, f] = np.searchsorted(
            V[s:s + sizes[pair_node[k]], f], T[k, f], side="right")
    y = np.concatenate([ys for _, ys, _ in nodes])
    if task == "regress":
        y = y - np.array([ys.sum() / len(ys) for _, ys, _ in nodes])[node]
    y = y[order]
    # cumulative sums restart at each node: nodes of one size at a time,
    # which keeps each node's additions in its own order
    running = np.empty_like(y)
    for size in np.unique(sizes).tolist():
        block = starts[sizes == size][:, None] + np.arange(size)
        running[block] = np.cumsum(y[block], axis=1)
    s_left = np.take_along_axis(
        running, first + np.maximum(n_left.astype(np.intp) - 1, 0), axis=0
    )
    s_left[n_left == 0] = 0.0
    s_right = running[(starts + sizes - 1)[pair_node]] - s_left
    n = sizes[pair_node][:, None]
    n_right = n - n_left
    # score = gain + a per-node constant
    if task == "classify":
        # -(n_l gini_l + n_r gini_r) / n, with gini = 2 p (1 - p)
        score = -2.0 * (_ratio(s_left * (n_left - s_left), n_left)
                        + _ratio(s_right * (n_right - s_right), n_right))
    else:
        # between-group sum of squares / n; the within-group part is the
        # node's total minus it
        score = _ratio(s_left**2, n_left) + _ratio(s_right**2, n_right)
    score /= n
    best = np.maximum.reduceat(np.where(distinct, score, -np.inf).max(axis=1), starts)
    cut = best - np.array([_SCREEN_TOL * max(1.0, imp) for _, _, imp in nodes])
    near = distinct & (score >= cut[pair_node][:, None])
    candidates = [[] for _ in nodes]
    features, pairs = np.nonzero(near.T)  # feature, then threshold order
    for f, j, threshold in zip(features.tolist(), pair_node[pairs].tolist(),
                               T[pairs, features].tolist()):
        candidates[j].append((f, threshold))
    return candidates


def _best_candidate(X, rows, ys, imp, candidates, impurity):
    """The candidate the exhaustive search picks, or None: each is scored
    on its `x <= threshold` partition in row order, a partition with an
    empty side is skipped, and the first one, in feature then threshold
    order, that no later one beats by more than 1e-12 wins.  Returns
    (gain, feature, threshold, goes-left mask, left impurity, right
    impurity); the impurities are those of the children's targets."""
    n = len(rows)
    best = None
    scored = {}  # partition -> (exact gain, impurities); tied features repeat partitions
    for f, threshold in candidates:
        goes_left = X[rows, f] <= threshold
        key = goes_left.tobytes()
        if key not in scored:
            left, right = ys[goes_left], ys[~goes_left]
            scored[key] = None
            if len(left) and len(right):
                imp_left, imp_right = impurity(left), impurity(right)
                gain = imp - (len(left) / n * imp_left + len(right) / n * imp_right)
                scored[key] = (gain, imp_left, imp_right)
        if scored[key] is None:
            continue
        gain, imp_left, imp_right = scored[key]
        if best is None or gain > best[0] + 1e-12:
            best = (gain, f, threshold, goes_left, imp_left, imp_right)
    return best


def _grow(train, task, max_depth=None, min_leaf=2, held=None):
    """The CART over `train`, grown breadth-first: its tree, its splits as
    (pre-order path, feature, weighted gain), and its number of features.

    With `held`, examples to decide, a node is screened and split only if
    some held row reaches it, routed as prediction routes them (`x <=
    threshold`, so a NaN goes right); a node that none reaches closes as a
    leaf unscreened.  `_screen_level` scores each node on its own, so every
    split made is the full tree's, and each held row ends in the leaf the
    full tree sends it to.
    """
    if not train:
        raise EmptyTraining("cannot train CART on an empty set")
    X = np.asarray([e.features for e in train], dtype=float)
    if X.shape[1] < 1:
        raise EmptyTraining("examples carry no features")
    y = np.asarray(
        [e.class_label if task == "classify" else e.reg_target for e in train],
        dtype=float,
    )
    reach = queries = None
    if held is not None:
        queries = np.asarray([_checked_values(e.features, X.shape[1]) for e in held],
                             dtype=float)
        reach = np.arange(len(held))
    impurity = _gini if task == "classify" else _variance
    n_total = len(y)
    ranks = _ranks(X)
    tree = {}
    # (node dict to fill, its rows in ascending order, their targets, their
    # impurity, its pre-order path, the held rows reaching it or None)
    level = [(tree, np.arange(n_total), y, impurity(y), (), reach)]
    splits = []  # (pre-order path, feature, weighted gain)
    depth = 0
    while level:
        open_nodes = []
        for entry in level:
            node, rows, ys, imp, _, reach = entry
            if (
                len(rows) < max(min_leaf, 2)  # a single row has no threshold
                or (max_depth is not None and depth >= max_depth)
                or imp == 0.0
                or (reach is not None and not len(reach))
            ):
                node.update(_leaf(task, ys))
            else:
                open_nodes.append(entry)
        if not open_nodes:
            break
        screened = _screen_level(
            X, ranks, [(rows, ys, imp) for _, rows, ys, imp, _, _ in open_nodes], task
        )
        level = []
        for (node, rows, ys, imp, path, reach), candidates in zip(open_nodes, screened):
            best = _best_candidate(X, rows, ys, imp, candidates, impurity)
            if best is None or best[0] < -1e-12:
                node.update(_leaf(task, ys))
                continue
            gain, f, threshold, goes_left, imp_left, imp_right = best
            splits.append((path, f, gain * (len(rows) / n_total)))
            node.update(leaf=False, feature=int(f), threshold=float(threshold),
                        left={}, right={})
            reach_left = reach_right = None
            if reach is not None:
                query_left = queries[reach, f] <= threshold
                reach_left, reach_right = reach[query_left], reach[~query_left]
            level += [(node["left"], rows[goes_left], ys[goes_left], imp_left,
                       path + (0,), reach_left),
                      (node["right"], rows[~goes_left], ys[~goes_left], imp_right,
                       path + (1,), reach_right)]
        depth += 1
    return tree, splits, X.shape[1]


def train_cart(train, task="classify", max_depth=None, min_leaf=2) -> CartModel:
    """Grow a CART breadth-first, one tree level per pass.

    Each level's open nodes are screened together by `_screen_level`, so
    the fixed cost of the array operations is paid once per depth instead
    of once per node; its arrays hold (rows on the level) x features
    values, at most the training set's size per feature.  Each node then
    re-scores its screened candidates as the exhaustive search scores them
    (threshold (lo + hi) / 2, partition x <= threshold in row order,
    `_gini`/`_variance`, the 1e-12 rule), and its children take the
    impurities of that winning partition.  Gini importances are summed in
    the pre-order a recursive build visits the nodes.  Models are
    therefore byte-identical to the exhaustive depth-first search's;
    tests/test_cart_differential.py checks this.

    A threshold (lo + hi) / 2 can round onto hi or overflow, so that its
    partition leaves one side empty; such a candidate is skipped, and a
    node with no other candidate becomes a leaf.
    """
    tree, splits, n_features = _grow(train, task, max_depth, min_leaf)
    importances = np.zeros(n_features)
    for _, f, weighted_gain in sorted(splits, key=lambda s: s[0]):
        importances[f] += weighted_gain
    total = importances.sum()
    if total > 0:
        importances = importances / total
    return CartModel(
        task=task,
        tree=tree,
        importances=[float(v) for v in importances],
        feature_names=feature_names() if n_features == len(feature_names())
        else [f"f{i}" for i in range(n_features)],
        n_features=n_features,
    )


def _cart_predict_one(model, values):
    node = model.tree
    while not node["leaf"]:
        if values[node["feature"]] <= node["threshold"]:
            node = node["left"]
        else:
            node = node["right"]
    return node["prediction"]


# ---------------------------------------------------------------------------
# k-NN
# ---------------------------------------------------------------------------

@dataclass
class KnnModel:
    task: str
    k: int
    mean: list
    scale: list
    points: list  # standardized feature rows, training order
    targets: list
    n_features: int = field(default=0)

    def __post_init__(self):
        if not self.n_features and self.points:
            self.n_features = len(self.points[0])


def train_knn(train, k=5, task="classify") -> KnnModel:
    if not train:
        raise EmptyTraining("cannot train k-NN on an empty set")
    if k > len(train):
        warnings.warn(
            f"k={k} exceeds training size {len(train)}; clamping", stacklevel=2
        )
        k = len(train)
    X = np.asarray([e.features for e in train], dtype=float)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Z = (X - mean) / scale
    y = [e.class_label if task == "classify" else e.reg_target for e in train]
    return KnnModel(
        task=task,
        k=k,
        mean=[float(v) for v in mean],
        scale=[float(v) for v in scale],
        points=[[float(v) for v in row] for row in Z],
        targets=y,
        n_features=X.shape[1],
    )


def _knn_predict_one(model, values):
    z = [(v - m) / s for v, m, s in zip(values, model.mean, model.scale)]
    dists = [
        (math.dist(z, p), i) for i, p in enumerate(model.points)
    ]
    dists.sort()  # ties broken by training order via the index component
    nearest = [model.targets[i] for _, i in dists[: model.k]]
    if model.task == "classify":
        ones = sum(nearest)
        return 1 if ones * 2 > len(nearest) else 0
    return float(np.mean(nearest))


# ---------------------------------------------------------------------------
# prediction and decisions
# ---------------------------------------------------------------------------

def _checked_values(fv, n_features):
    values = _as_values(fv)
    if len(values) != n_features:
        raise UnseenFeatureDimension(
            f"model expects {n_features} features, got {len(values)}"
        )
    return values


def predict(model, fv):
    values = _checked_values(fv, model.n_features)
    if isinstance(model, CartModel):
        return _cart_predict_one(model, values)
    if isinstance(model, KnnModel):
        return _knn_predict_one(model, values)
    raise UntrainedModel(f"unknown model type {type(model).__name__}")


def decide(model, fv, threshold=0.0) -> str:
    """Rewritten iff the model favors rewriting; boundary goes to Original."""
    value = predict(model, fv)
    if model.task == "classify":
        return REWRITTEN if value == 1 else ORIGINAL
    return REWRITTEN if value < threshold else ORIGINAL


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class Metrics:
    acc: float
    prec: float
    rec: float
    mse: float
    mae: float
    tp: int
    fp: int
    tn: int
    fn: int
    prec_undefined: bool = False
    rec_undefined: bool = False


def compute_metrics(predictions, truths, pred_values=None, true_values=None):
    """Classification confusion metrics plus MSE/MAE.

    `predictions`/`truths` are 0/1 class labels; optional value pairs give
    the regression-scale errors (defaults to the labels themselves).
    """
    if len(predictions) != len(truths) or not predictions:
        raise LengthMismatch(
            f"got {len(predictions)} predictions for {len(truths)} truths"
        )
    tp = sum(1 for p, t in zip(predictions, truths) if p == 1 and t == 1)
    fp = sum(1 for p, t in zip(predictions, truths) if p == 1 and t == 0)
    tn = sum(1 for p, t in zip(predictions, truths) if p == 0 and t == 0)
    fn = sum(1 for p, t in zip(predictions, truths) if p == 0 and t == 1)
    if pred_values is None:
        pred_values, true_values = predictions, truths
    errors = np.asarray(pred_values, dtype=float) - np.asarray(true_values, dtype=float)
    prec_undefined = tp + fp == 0
    rec_undefined = tp + fn == 0
    return Metrics(
        acc=(tp + tn) / len(truths),
        prec=float("nan") if prec_undefined else tp / (tp + fp),
        rec=float("nan") if rec_undefined else tp / (tp + fn),
        mse=float(np.mean(errors**2)),
        mae=float(np.mean(np.abs(errors))),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        prec_undefined=prec_undefined,
        rec_undefined=rec_undefined,
    )


def threshold_sweep(model, validation, grid):
    """For each threshold: decision metrics plus workload e2e seconds."""
    results = []
    for threshold in grid:
        decisions = [
            1 if decide(model, e.features, threshold) == REWRITTEN else 0
            for e in validation
        ]
        truths = [e.class_label for e in validation]
        metrics = compute_metrics(decisions, truths)
        e2e = sum(
            e.t_rewritten if d else e.t_original
            for d, e in zip(decisions, validation)
        )
        results.append((threshold, metrics, e2e))
    return results


def gini_importances(model: CartModel):
    """Descending (feature name, importance) pairs; zero entries omitted."""
    if not isinstance(model, CartModel):
        raise UntrainedModel("Gini importances require a CART model")
    pairs = [
        (name, imp)
        for name, imp in zip(model.feature_names, model.importances)
        if imp > 0
    ]
    return sorted(pairs, key=lambda kv: (-kv[1], kv[0]))


def cross_validate(folds, task="classify", trainer=train_cart, **params):
    """Accuracy per fold; folds come from split_dataset.

    With the CART trainer (also behind a `functools.wraps` wrapper, as a
    tracer installs one), a fold grows only the paths its held-out rows
    take and decides them on that tree: every split on those paths is the
    one `train_cart` makes, so the accuracies are its own.  Any other
    trainer is called on each fold's training part.
    """
    lazy = inspect.unwrap(trainer) is inspect.unwrap(train_cart)
    accuracies = []
    for train_part, held in folds:
        if lazy:
            tree, _, n_features = _grow(train_part, task, held=held, **params)
            model = CartModel(task, tree, importances=[], feature_names=[],
                              n_features=n_features)
        else:
            model = trainer(train_part, task=task, **params)
        hits = sum(
            (decide(model, e.features) == REWRITTEN) == (e.class_label == 1)
            for e in held
        )
        accuracies.append(hits / len(held))
    return accuracies


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_dataset(examples, path):
    """CSV: query_id, one column per feature, t_original, t_rewritten."""
    import csv

    if not examples:
        raise EmptyTraining("nothing to save")
    n = len(examples[0].features)
    header = ["query_id"]
    header += feature_names() if n == len(feature_names()) else [
        f"f{i}" for i in range(n)
    ]
    header += ["t_original", "t_rewritten"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for e in examples:
            writer.writerow(
                [e.query_id] + [repr(v) for v in e.features]
                + [repr(e.t_original), repr(e.t_rewritten)]
            )


def load_dataset(path):
    import csv

    examples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            qid, *rest = row
            values = [float(v) for v in rest]
            examples.append(label(qid, values[:-2], values[-2], values[-1]))
    return examples


_MODEL_KINDS = {"cart": CartModel, "knn": KnnModel}


def model_to_json(model) -> str:
    kind = next((k for k, cls in _MODEL_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise UntrainedModel(f"cannot serialize {type(model).__name__}")
    return json.dumps({"kind": kind, **vars(model)}, sort_keys=True, indent=2)


def save_model(model, path):
    with open(path, "w") as fh:
        fh.write(model_to_json(model))


def load_model(path):
    with open(path) as fh:
        payload = json.load(fh)
    kind = payload.pop("kind", None)
    if kind not in _MODEL_KINDS:
        raise UntrainedModel(f"unknown model kind {kind!r} in {path}")
    return _MODEL_KINDS[kind](**payload)
