"""Learned algorithm selection: labeling, CART, k-NN, metrics, decisions.

Runtime pairs become labeled examples (class 1 means the rewritten plan was
faster; the regression target is the sign-log transformed time difference
t_rewritten - t_original, so negative predictions favor rewriting).  The
decision tree and k-NN models are implemented from scratch with fully
deterministic tie-breaking so that identical inputs serialize identically.

CART split search sorts each node's rows once per feature (one stable
argsort over all features) and reads every (feature, threshold) candidate's
gain off running sums: class counts for Gini, sums of node-centred targets
for variance.  That is O(n log n * features) per node, plus O(n) for each
re-scored partition, instead of the exhaustive O(n * thresholds * features).
The running-sum gains only screen: every candidate within
1e-9 (times the node impurity, if above 1) of the best is re-scored exactly
as the exhaustive search scores it -- threshold (lo + hi) / 2, partition
x <= threshold in row order, `_gini`/`_variance` -- and the first
candidate, in feature then threshold order, that no later one beats by
more than 1e-12 wins.  Models are therefore byte-identical to the
exhaustive search's; tests/test_cart_differential.py checks this.
"""

from __future__ import annotations

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
    p1 = sum(labels) / n
    return 1.0 - p1 * p1 - (1.0 - p1) ** 2


def _variance(values):
    if len(values) == 0:
        return 0.0
    return float(np.var(np.asarray(values, dtype=float)))


def _leaf(task, y):
    if task == "classify":
        ones = int(sum(y))
        zeros = len(y) - ones
        return {
            "leaf": True,
            "counts": [zeros, ones],
            "prediction": 1 if ones > zeros else 0,
        }
    mean = float(np.mean(np.asarray(y, dtype=float)))
    return {"leaf": True, "n": len(y), "prediction": mean}


_SCREEN_TOL = 1e-9


def _ratio(num, den):
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _best_split(X, y, y_arr, idx, imp, impurity, task):
    """The split the exhaustive search picks at one node, or None.

    Screening is safe: the rounding error of a running-sum gain is orders
    of magnitude below the tolerance, so a candidate left out gains nearly
    1e-9 less than the best.  The 1e-12 rule never picks it, and leaving it
    out could change the pick only through a chain of about a thousand
    candidates, each within 1e-12 of the one before.
    """
    n = len(idx)
    Xn = X[idx]
    order = np.argsort(Xn, axis=0, kind="stable")
    V = np.take_along_axis(Xn, order, axis=0)
    lo, hi = V[:-1], V[1:]
    distinct = lo < hi
    if not distinct.any():
        return None
    with np.errstate(over="ignore"):
        T = (lo + hi) / 2.0
    # rows with x <= T: the k + 1 rows up to lo, unless T rounded to hi
    # (adjacent floats) or overflowed
    n_left = np.repeat(np.arange(1.0, n)[:, None], X.shape[1], axis=1)
    for k, f in zip(*np.nonzero(distinct & ((T >= hi) | (T < lo)))):
        n_left[k, f] = np.searchsorted(V[:, f], T[k, f], side="right")
    yn = y_arr[idx]
    if task == "regress":
        yn = yn - yn.mean()
    running = np.cumsum(yn[order], axis=0)
    s_left = np.take_along_axis(
        running, np.maximum(n_left.astype(np.intp) - 1, 0), axis=0
    )
    s_left[n_left == 0] = 0.0
    s_right = running[-1] - s_left
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
    tol = _SCREEN_TOL * max(1.0, imp)
    near = distinct & (score >= score[distinct].max() - tol)
    best = None  # (gain, feature, threshold, left idx, right idx)
    gains = {}  # partition -> exact gain; tied features repeat partitions
    for f, k in zip(*np.nonzero(near.T)):  # feature, then threshold order
        threshold = T[k, f]
        goes_left = Xn[:, f] <= threshold
        key = goes_left.tobytes()
        if key not in gains:
            left, right = idx[goes_left].tolist(), idx[~goes_left].tolist()
            gains[key] = imp - (
                len(left) / n * impurity([y[i] for i in left])
                + len(right) / n * impurity([y[i] for i in right])
            )
        gain = gains[key]
        if best is None or gain > best[0] + 1e-12:
            best = (gain, f, threshold, idx[goes_left], idx[~goes_left])
    return best


def train_cart(train, task="classify", max_depth=None, min_leaf=2) -> CartModel:
    if not train:
        raise EmptyTraining("cannot train CART on an empty set")
    X = np.asarray([e.features for e in train], dtype=float)
    if X.shape[1] < 1:
        raise EmptyTraining("examples carry no features")
    y = [e.class_label if task == "classify" else e.reg_target for e in train]
    y_arr = np.asarray(y, dtype=float)
    impurity = _gini if task == "classify" else _variance
    n_total = len(train)
    importances = np.zeros(X.shape[1])

    def build(idx, depth):
        node_y = [y[i] for i in idx.tolist()]
        imp = impurity(node_y)
        if (
            imp == 0.0
            or len(idx) < min_leaf
            or (max_depth is not None and depth >= max_depth)
        ):
            return _leaf(task, node_y)
        best = _best_split(X, y, y_arr, idx, imp, impurity, task)
        if best is None or best[0] < -1e-12:
            return _leaf(task, node_y)
        gain, f, threshold, left, right = best
        importances[f] += gain * (len(idx) / n_total)
        return {
            "leaf": False,
            "feature": int(f),
            "threshold": float(threshold),
            "left": build(left, depth + 1),
            "right": build(right, depth + 1),
        }

    tree = build(np.arange(n_total), 0)
    total = importances.sum()
    if total > 0:
        importances = importances / total
    return CartModel(
        task=task,
        tree=tree,
        importances=[float(v) for v in importances],
        feature_names=feature_names() if X.shape[1] == len(feature_names())
        else [f"f{i}" for i in range(X.shape[1])],
        n_features=X.shape[1],
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

def predict(model, fv):
    values = _as_values(fv)
    if len(values) != model.n_features:
        raise UnseenFeatureDimension(
            f"model expects {model.n_features} features, got {len(values)}"
        )
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
    """Accuracy per fold; folds come from split_dataset."""
    accuracies = []
    for train_part, held in folds:
        model = trainer(train_part, task=task, **params)
        if task == "classify":
            preds = [predict(model, e.features) for e in held]
            truths = [e.class_label for e in held]
        else:
            preds = [1 if predict(model, e.features) < 0 else 0 for e in held]
            truths = [e.class_label for e in held]
        accuracies.append(
            sum(1 for p, t in zip(preds, truths) if p == t) / len(held)
        )
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



def model_to_json(model) -> str:
    if isinstance(model, CartModel):
        payload = {
            "kind": "cart",
            "task": model.task,
            "tree": model.tree,
            "importances": model.importances,
            "feature_names": model.feature_names,
            "n_features": model.n_features,
        }
    elif isinstance(model, KnnModel):
        payload = {
            "kind": "knn",
            "task": model.task,
            "k": model.k,
            "mean": model.mean,
            "scale": model.scale,
            "points": model.points,
            "targets": model.targets,
            "n_features": model.n_features,
        }
    else:
        raise UntrainedModel(f"cannot serialize {type(model).__name__}")
    return json.dumps(payload, sort_keys=True, indent=2)


def save_model(model, path):
    with open(path, "w") as fh:
        fh.write(model_to_json(model))


def load_model(path):
    with open(path) as fh:
        payload = json.load(fh)
    if payload["kind"] == "cart":
        return CartModel(
            task=payload["task"],
            tree=payload["tree"],
            importances=payload["importances"],
            feature_names=payload["feature_names"],
            n_features=payload["n_features"],
        )
    return KnnModel(
        task=payload["task"],
        k=payload["k"],
        mean=payload["mean"],
        scale=payload["scale"],
        points=payload["points"],
        targets=payload["targets"],
        n_features=payload["n_features"],
    )
