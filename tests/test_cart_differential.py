"""Differential test of CART training against the exhaustive split search.

`reference_train_cart` is CART with the exhaustive split search: every
(feature, threshold) candidate is re-partitioned and scored from scratch,
and the tree is built depth-first by recursion.  It is slow and obviously
right, and `train_cart`, which grows the tree level by level, must
serialize byte for byte the same models on every dataset here.
`cross_validate`, which grows each fold's tree only along its held-out
rows' paths, must give exactly the full trees' accuracies.  The
oracle keeps its own impurity and leaf definitions (`np.var`/`np.mean` on
lists), so a change to the trainer's arithmetic cannot change both sides.
"""

import functools
import random
import signal
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pytest

from smash import ml
from smash.acyclic import analyze
from smash.augmentation import WorkloadSpec, generate_workload
from smash.engine import OpCounter, estimate_cardinalities, evaluate_baseline
from smash.errors import EmptyTraining, InvalidJoinTree
from smash.features import extract_features, feature_names
from smash.frontend import normalize
from smash.ml import (
    REWRITTEN,
    CartModel,
    LabeledExample,
    decide,
    label,
    model_to_json,
    split_dataset,
    train_cart,
)
from smash.rewriter import interpret_sequence, rewrite

TASKS = ("classify", "regress")


def gini(labels):
    n = len(labels)
    if n == 0:
        return 0.0
    p1 = sum(labels) / n
    return 1.0 - p1 * p1 - (1.0 - p1) ** 2


def variance(values):
    if len(values) == 0:
        return 0.0
    return float(np.var(np.asarray(values, dtype=float)))


def leaf(task, y):
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


def reference_train_cart(train, task="classify", max_depth=None, min_leaf=2) -> CartModel:
    if not train:
        raise EmptyTraining("cannot train CART on an empty set")
    X = np.asarray([e.features for e in train], dtype=float)
    if X.shape[1] < 1:
        raise EmptyTraining("examples carry no features")
    y = [e.class_label if task == "classify" else e.reg_target for e in train]
    impurity = gini if task == "classify" else variance
    n_total = len(train)
    importances = np.zeros(X.shape[1])

    def build(idx, depth):
        node_y = [y[i] for i in idx]
        imp = impurity(node_y)
        if (
            imp == 0.0
            or len(idx) < min_leaf
            or (max_depth is not None and depth >= max_depth)
        ):
            return leaf(task, node_y)
        best = None  # (gain, feature, threshold, left idx, right idx)
        for f in range(X.shape[1]):
            values = sorted(set(X[i, f] for i in idx))
            for lo, hi in zip(values, values[1:]):
                threshold = (lo + hi) / 2.0
                left = [i for i in idx if X[i, f] <= threshold]
                right = [i for i in idx if X[i, f] > threshold]
                if not left or not right:  # the threshold rounded or overflowed
                    continue
                gain = imp - (
                    len(left) / len(idx) * impurity([y[i] for i in left])
                    + len(right) / len(idx) * impurity([y[i] for i in right])
                )
                if best is None or gain > best[0] + 1e-12:
                    best = (gain, f, threshold, left, right)
        if best is None or best[0] < -1e-12:
            return leaf(task, node_y)
        gain, f, threshold, left, right = best
        importances[f] += gain * (len(idx) / n_total)
        return {
            "leaf": False,
            "feature": int(f),
            "threshold": float(threshold),
            "left": build(left, depth + 1),
            "right": build(right, depth + 1),
        }

    tree = build(list(range(n_total)), 0)
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


def assert_same_models(examples, **params):
    for task in TASKS:
        assert model_to_json(train_cart(examples, task=task, **params)) == (
            model_to_json(reference_train_cart(examples, task=task, **params))
        ), task


def timed_examples(rows, seed):
    """Examples over the given feature rows with random strategy timings."""
    rng = random.Random(seed)
    return [
        label(f"q{i}", x, rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
        for i, x in enumerate(rows)
    ]


@pytest.mark.parametrize("seed", range(4))
def test_tied_constant_and_duplicated_features(seed):
    rng = random.Random(seed)
    rows = []
    for _ in range(70):
        ties = [float(rng.randrange(3)), float(rng.randrange(5))]
        # a constant column, a copy of the first column, one spread column
        rows.append(ties + [7.0, ties[0], rng.uniform(0.0, 10.0)])
    assert_same_models(timed_examples(rows, seed))


@pytest.mark.parametrize("seed", range(4))
def test_adjacent_float_thresholds(seed):
    """The midpoint of two neighbouring floats rounds to one of them, here
    every other time to the upper one, and then `x <= threshold` takes the
    upper value too.  The leading all-distinct column keeps a split with
    two non-empty sides in every node."""
    rng = random.Random(seed)
    ladder = [1.0]
    for _ in range(5):
        ladder.append(float(np.nextafter(ladder[-1], 2.0)))
    rows, times = [], []
    for i in range(50):
        step = rng.randrange(len(ladder))
        rows.append([i + rng.random(), ladder[step], ladder[step % 2]])
        times.append((step + rng.random(), 2.5))
    examples = [
        label(f"q{i}", x, t_orig, t_rewr)
        for i, (x, (t_orig, t_rewr)) in enumerate(zip(rows, times))
    ]
    assert_same_models(examples)

@pytest.mark.parametrize(
    "max_depth,min_leaf", [(1, 2), (3, 2), (None, 0), (None, 9), (2, 30)]
)
def test_depth_and_leaf_limits(max_depth, min_leaf):
    rng = random.Random(11)
    rows = [
        [float(rng.randrange(6)), rng.uniform(0.0, 1.0), float(rng.randrange(2))]
        for _ in range(60)
    ]
    assert_same_models(
        timed_examples(rows, 11), max_depth=max_depth, min_leaf=min_leaf
    )


def test_zero_gain_levels():
    """Labels are the parity of three bits, so no single split gains
    anything until the last bit: every node of the first levels picks its
    first candidate at gain 0, beside sibling nodes on the same level."""
    rows = [[float(a), float(b), float(c)]
            for a in (0, 1) for b in (0, 1) for c in (0, 1)] * 3
    examples = [
        LabeledExample(f"q{i}", x, 1.0, 1.0, int(sum(x)) % 2, float(sum(x) % 2))
        for i, x in enumerate(rows)
    ]
    assert_same_models(examples)


def test_regress_targets_far_from_zero():
    """Targets with a large common offset: the running sums must not lose
    the small differences between splits to rounding."""
    rng = random.Random(3)
    examples = [
        LabeledExample(f"q{i}", [float(rng.randrange(8)), rng.random()],
                       1.0, 1.0, 0, -1e6 + rng.random())
        for i in range(60)
    ]
    assert model_to_json(train_cart(examples, task="regress")) == (
        model_to_json(reference_train_cart(examples, task="regress"))
    )


def count_labelled_dataset(seed, n_queries):
    """Random 4-8 table queries over small tables, labelled by the exact
    intermediate-tuple counts of the two strategies."""
    db, queries = generate_workload(WorkloadSpec(
        seed=seed, n_base_queries=n_queries, n_relations=(4, 8),
        rows=(20, 60), fanout=(1, 2), shape="random", filter_prob=0.5,
        aggregate_prob=0.5, name_prefix="sw",
    ))
    examples = []
    for qid, spec in queries:
        cq = normalize(spec, db)
        try:
            tree, _ = analyze(cq)
        except InvalidJoinTree:
            continue
        base, rewritten = OpCounter(), OpCounter()
        evaluate_baseline(cq, db, base)
        interpret_sequence(rewrite(tree, cq, db), cq, db, rewritten)
        fv = extract_features(cq, tree, estimate_cardinalities(cq, db))
        examples.append(label(qid, fv, base.intermediate_tuples,
                              rewritten.intermediate_tuples))
    return examples


def test_count_labelled_selector_dataset():
    examples = count_labelled_dataset(5, 40)
    assert len(examples[0].features) == len(feature_names())
    assert len({e.class_label for e in examples}) == 2
    assert_same_models(examples)


@pytest.fixture(scope="module")
def wide_examples():
    """A few hundred rows: the deeper levels hold one large node beside many
    2-7-row nodes, the mix that a level-wise pass must keep apart."""
    return count_labelled_dataset(7, 240)


def node_sizes_by_depth(model, examples):
    """depth -> sizes of the nodes at that depth, by routing each training
    example down the tree."""
    visits = defaultdict(int)
    for e in examples:
        node, depth = model.tree, 0
        while True:
            visits[(depth, id(node))] += 1
            if node["leaf"]:
                break
            side = "left" if e.features[node["feature"]] <= node["threshold"] else "right"
            node, depth = node[side], depth + 1
    sizes = defaultdict(list)
    for (depth, _), count in visits.items():
        sizes[depth].append(count)
    return sizes


def test_count_labelled_wide_dataset(wide_examples):
    model = train_cart(wide_examples, task="regress")
    assert any(
        max(sizes) >= 30 and sum(2 <= s <= 7 for s in sizes) >= 3
        for sizes in node_sizes_by_depth(model, wide_examples).values()
    )
    assert_same_models(wide_examples)


def split_depths(node, depth=0):
    """(depths of split nodes, depths of leaves)."""
    if node["leaf"]:
        return set(), {depth}
    splits, leaves = {depth}, set()
    for child in (node["left"], node["right"]):
        s, l = split_depths(child, depth + 1)
        splits |= s
        leaves |= l
    return splits, leaves


def test_max_depth_cuts_a_level_in_the_middle(wide_examples):
    """At the cut, the unlimited tree has both leaves and split nodes, so
    the limit closes some open nodes of a level that also holds leaves."""
    max_depth = 5
    for task in TASKS:
        splits, leaves = split_depths(train_cart(wide_examples, task=task).tree)
        assert max_depth in splits and max_depth in leaves, task
    assert_same_models(wide_examples, max_depth=max_depth)


def overflowing_midpoint_examples():
    """Two rows whose midpoint overflows to inf, so the only split sends
    both rows left and leaves the right side empty."""
    return [
        LabeledExample("q0", [1.7e308], 1.0, 1.0, 0, 0.0),
        LabeledExample("q1", [1.75e308], 1.0, 1.0, 1, 1.0),
    ]


@contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging: a node that took an
    empty-side split would reach the next level unchanged, forever."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow
@pytest.mark.parametrize("task", TASKS)
def test_split_with_an_empty_side_is_skipped(task):
    """The only candidate sends both rows left, so the root is a leaf."""
    for max_depth in (None, 3):
        with time_limit(10):
            model = train_cart(overflowing_midpoint_examples(), task=task,
                               max_depth=max_depth)
        assert model.tree["leaf"] and model.importances == [0.0], max_depth
        assert model_to_json(model) == model_to_json(reference_train_cart(
            overflowing_midpoint_examples(), task=task, max_depth=max_depth))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow
@pytest.mark.parametrize("seed", range(6))
def test_empty_side_candidates_among_others(seed):
    """Adjacent floats and values near the float limit in every column, so
    that many nodes' first candidates leave a side empty; the trees still
    end without max_depth, with no empty leaf."""
    rng = random.Random(seed)
    ladder = [1.0]
    for _ in range(3):
        ladder.append(float(np.nextafter(ladder[-1], 2.0)))
    huge = [1.7e308, 1.75e308, 1.79e308]
    rows = [[rng.choice(ladder), rng.choice(huge), rng.choice(ladder) * rng.choice((1, -1))]
            for _ in range(40)]
    examples = timed_examples(rows, seed)
    with time_limit(10):
        assert_same_models(examples)
        assert_same_models(examples, max_depth=2)
    for task in TASKS:
        assert "NaN" not in model_to_json(train_cart(examples, task=task))


# ---------------------------------------------------------------------------
# cross-validation grows only the held-out rows' paths
# ---------------------------------------------------------------------------

PARAMS = ({}, {"max_depth": 3}, {"min_leaf": 5})


def full_tree_accuracies(folds, task, **params):
    """Per fold, the accuracy of the full `train_cart` tree on the held-out
    rows, decided as `cross_validate` decides them."""
    accuracies = []
    for train, held in folds:
        model = train_cart(train, task=task, **params)
        hits = sum((decide(model, e.features) == REWRITTEN) == (e.class_label == 1)
                   for e in held)
        accuracies.append(hits / len(held))
    return accuracies


def nan_column_examples(seed):
    """Column 0 decides the label and is NaN in every fifth row, in the
    training and the held-out rows alike; a held-out NaN must go right at
    a split on it, as prediction sends it."""
    rng = random.Random(seed)
    examples = []
    for i in range(80):
        x = rng.uniform(0.0, 10.0)
        row = [float("nan") if i % 5 == 0 else x, rng.random(), float(rng.randrange(3))]
        examples.append(label(f"q{i}", row, x + rng.uniform(-2.0, 2.0), 5.0))
    return examples


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow
def test_cross_validate_matches_full_trees(wide_examples):
    rng = random.Random(0)
    tied = [[float(rng.randrange(3)), float(rng.randrange(5)), 7.0, rng.uniform(0.0, 10.0)]
            for _ in range(70)]
    overflowing = overflowing_midpoint_examples()
    datasets = {
        "timed": split_dataset(timed_examples(tied, 0), 0).folds,
        "nan_column": split_dataset(nan_column_examples(1), 1).folds,
        "wide": split_dataset(wide_examples, 42).folds,
        # held-out rows need not be left out of training
        "overflowing": [(overflowing, overflowing), (overflowing[:1], overflowing[1:])],
    }
    for name, folds in datasets.items():
        for task in TASKS:
            for params in PARAMS:
                assert ml.cross_validate(folds, task=task, **params) == (
                    full_tree_accuracies(folds, task, **params)), (name, task, params)
    assert any(train_cart(train, task="regress").tree["feature"] == 0
               for train, _ in datasets["nan_column"])


@pytest.fixture
def screened_nodes(monkeypatch):
    """The number of nodes `ml._screen_level` has screened so far."""
    count = [0]
    screen = ml._screen_level

    def counting(X, ranks, nodes, task):
        count[0] += len(nodes)
        return screen(X, ranks, nodes, task)

    monkeypatch.setattr(ml, "_screen_level", counting)
    return lambda: count[0]


def traced(monkeypatch):
    """Rebind `ml.train_cart` to a `functools.wraps` wrapper in `ml`'s
    namespace, as bench/spans.py does; returns the wrapper."""
    original = ml.train_cart

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(ml, "train_cart", wrapper)
    return wrapper


@pytest.mark.parametrize("tracer", ["off", "default trainer", "wrapper as trainer"])
def test_cv_fold_screens_fewer_nodes_than_full_training(
        wide_examples, screened_nodes, monkeypatch, tracer):
    """Every regress fold screens fewer nodes than the full tree on its
    training rows (about 420 nodes; the classify trees are too small for
    every fold to leave one out), and decides as the full tree does."""
    kwargs = {}
    if tracer != "off":
        wrapper = traced(monkeypatch)
        if tracer == "wrapper as trainer":
            kwargs["trainer"] = wrapper
    for task in TASKS:
        lazy_total = full_total = 0
        for fold in split_dataset(wide_examples, 42).folds:
            before = screened_nodes()
            accuracy = ml.cross_validate([fold], task=task, **kwargs)
            lazy = screened_nodes() - before
            assert accuracy == full_tree_accuracies([fold], task), task
            full = screened_nodes() - before - lazy
            assert 0 < lazy < full if task == "regress" else 0 < lazy <= full, task
            lazy_total, full_total = lazy_total + lazy, full_total + full
        assert lazy_total < full_total, task
