"""ML selector tests: labeling, splitting, CART, k-NN, metrics, decisions."""

import json
import math
import random
import warnings

import numpy as np
import pytest

from smash.errors import SmashError
from smash.ml import (
    ORIGINAL,
    REWRITTEN,
    CartModel,
    _leaf,
    _variance,
    compute_metrics,
    cross_validate,
    decide,
    gini_importances,
    label,
    load_model,
    model_to_json,
    predict,
    save_model,
    sign_log,
    split_dataset,
    threshold_sweep,
    train_cart,
    train_knn,
)


class TestSignLog:
    def test_anchor_values(self):
        assert sign_log(0) == 0.0
        assert sign_log(math.e - 1) == pytest.approx(1.0)
        assert sign_log(-(math.e - 1)) == pytest.approx(-1.0)

    def test_odd_and_monotone(self):
        grid = [x / 7 for x in range(-70, 71)]
        for x in grid:
            assert sign_log(-x) == pytest.approx(-sign_log(x))
        values = [sign_log(x) for x in grid]
        assert values == sorted(values)

    def test_round_trip(self):
        for x in [0.0, 0.1, 1.0, 42.5, -3.25, 1e6]:
            back = math.exp(abs(sign_log(x))) - 1
            assert back == pytest.approx(abs(x), abs=1e-12, rel=1e-12)

    def test_non_finite(self):
        with pytest.raises(SmashError, match="^sign_log argument must be finite, got inf$"):
            sign_log(float("inf"))


class TestLabel:
    def test_rewritten_faster(self):
        e = label("q", [0.0], 3.38, 0.11)
        assert e.class_label == 1 and e.reg_target < 0

    def test_original_faster(self):
        e = label("q", [0.0], 0.05, 0.09)
        assert e.class_label == 0 and e.reg_target > 0

    def test_tie_is_zero(self):
        e = label("q", [0.0], 1.0, 1.0)
        assert e.class_label == 0 and e.reg_target == 0.0

    def test_label_consistency(self):
        rng = random.Random(0)
        for _ in range(100):
            t0, t1 = rng.uniform(0, 5), rng.uniform(0, 5)
            e = label("q", [0.0], t0, t1)
            if e.reg_target != 0:
                assert e.class_label == (e.reg_target < 0)


def make_examples(n, rule, seed=0, d=3):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = [rng.uniform(0, 10) for _ in range(d)]
        fast_rewrite = rule(x)
        t_orig, t_rewr = (2.0, 1.0) if fast_rewrite else (1.0, 2.0)
        out.append(label(f"q{i}", x, t_orig, t_rewr))
    return out


class TestSplit:
    def test_sizes_100(self):
        ex = make_examples(100, lambda x: x[0] > 5)
        s = split_dataset(ex, 42)
        assert (len(s.train), len(s.validation), len(s.test)) == (80, 10, 10)
        assert len(s.folds) == 10
        assert all(len(held) == 9 for _, held in s.folds)

    def test_too_few(self):
        with pytest.raises(SmashError, match="^need >= 20 examples, got 19$"):
            split_dataset(make_examples(19, lambda x: True), 42)

    def test_determinism(self):
        ex = make_examples(50, lambda x: x[0] > 5)
        a = split_dataset(ex, 7)
        b = split_dataset(ex, 7)
        assert [e.query_id for e in a.test] == [e.query_id for e in b.test]

    def test_hygiene_no_test_leak(self):
        ex = make_examples(100, lambda x: x[0] > 5)
        s = split_dataset(ex, 42)
        test_ids = {e.query_id for e in s.test}
        for train_part, held in s.folds:
            fold_ids = {e.query_id for e in train_part + held}
            assert test_ids & fold_ids == set()


class TestCart:
    def test_separable_perfect_fit(self):
        ex = make_examples(500, lambda x: x[0] > 5)
        model = train_cart(ex, task="classify")
        acc = sum(
            predict(model, e.features) == e.class_label for e in ex
        ) / len(ex)
        assert acc == 1.0
        assert model.importances[0] == pytest.approx(1.0)

    def test_all_same_label_single_leaf(self):
        ex = make_examples(50, lambda x: True)
        model = train_cart(ex, task="classify")
        assert model.tree["leaf"]

    def test_xor_needs_depth_two(self):
        ex = []
        for i, (a, b) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)] * 10):
            fast = (a ^ b) == 1
            ex.append(label(f"q{i}", [a, b], 2.0 if fast else 1.0,
                            1.0 if fast else 2.0))
        model = train_cart(ex, task="classify")
        assert all(predict(model, e.features) == e.class_label for e in ex)

    def test_empty_training(self):
        with pytest.raises(SmashError, match="^cannot train CART on an empty set$"):
            train_cart([], task="classify")

    def test_determinism_byte_identical(self):
        ex = make_examples(200, lambda x: x[1] > 3)
        a = model_to_json(train_cart(ex, task="classify"))
        b = model_to_json(train_cart(ex, task="classify"))
        assert a == b

    def test_regression_mode(self):
        ex = make_examples(200, lambda x: x[0] > 5)
        model = train_cart(ex, task="regress")
        neg = predict(model, [9.0, 1.0, 1.0])
        pos = predict(model, [1.0, 1.0, 1.0])
        assert neg < 0 < pos

    def test_max_depth_respected(self):
        ex = make_examples(200, lambda x: x[0] > 5 and x[1] > 5)
        model = train_cart(ex, task="classify", max_depth=1)

        def depth(node):
            if node["leaf"]:
                return 0
            return 1 + max(depth(node["left"]), depth(node["right"]))

        assert depth(model.tree) <= 1

    def test_cross_validate_rejects_held_out_rows_of_another_width(self):
        ex = make_examples(30, lambda x: x[2] > 5)  # the root splits on the last column
        for width in (2, 4):
            held = [label("h", [1.0] * width, 1.0, 2.0)]
            with pytest.raises(SmashError, match=f"expects 3 features, got {width}"):
                cross_validate([(ex, held)], task="classify")


class TestImpurityArithmetic:
    """`_variance` and the regress leaf mean take np.var's and np.mean's own
    steps; the trainer's models stay byte-identical only if they agree with
    NumPy bit for bit, on lists and on arrays."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(6)
        for n in range(1, 301):
            for offset in (0.0, 1e6, -1e6):
                for magnitude in (1e-3, 1.0, 1e5):
                    x = offset + magnitude * rng.standard_normal(n)
                    yield x
                    yield x.tolist()
                    yield x[::2]  # a strided view

    def test_variance_is_np_var(self):
        for x in self.inputs():
            assert _variance(x).hex() == float(np.var(x)).hex()

    def test_leaf_mean_is_np_mean(self):
        for x in self.inputs():
            assert _leaf("regress", x)["prediction"].hex() == float(np.mean(x)).hex()

    def test_empty_input(self):
        for empty in ([], np.array([])):
            assert _variance(empty) == 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert math.isnan(_leaf("regress", empty)["prediction"])
                assert math.isnan(np.mean(empty))


class TestKnn:
    def test_exact_training_point(self):
        ex = make_examples(30, lambda x: x[0] > 5)
        model = train_knn(ex, k=1)
        for e in ex[:5]:
            assert predict(model, e.features) == e.class_label

    def test_k_clamped_with_warning(self):
        ex = make_examples(3, lambda x: True)
        with pytest.warns(UserWarning):
            model = train_knn(ex, k=5)
        assert model.k == 3

    def test_two_cluster_cv_accuracy(self):
        rng = random.Random(4)
        ex = []
        for i in range(60):
            cluster = i % 2
            x = [cluster * 10 + rng.uniform(-1, 1) for _ in range(3)]
            ex.append(label(f"q{i}", x, 2.0 if cluster else 1.0,
                            1.0 if cluster else 2.0))
        s = split_dataset(ex, 2)
        accs = []
        for train_part, held in s.folds:
            model = train_knn(train_part, k=5)
            accs.append(sum((decide(model, e.features) == REWRITTEN) == (e.class_label == 1)
                            for e in held) / len(held))
        assert sum(accs) / len(accs) == 1.0


class TestMetricsAndDecisions:
    def test_confusion_formulas(self):
        preds = [1] * 3 + [1] + [0] * 2 + [0] * 4
        truth = [1] * 3 + [0] + [1] * 2 + [0] * 4
        m = compute_metrics(preds, truth)
        assert (m.tp, m.fp, m.fn, m.tn) == (3, 1, 2, 4)
        assert m.acc == pytest.approx(0.7)
        assert m.prec == pytest.approx(0.75)
        assert m.rec == pytest.approx(0.6)

    def test_all_correct(self):
        m = compute_metrics([1, 0], [1, 0])
        assert m.acc == 1.0

    def test_undefined_precision_flagged(self):
        m = compute_metrics([0, 0], [1, 0])
        assert m.prec_undefined and math.isnan(m.prec)

    def test_length_mismatch(self):
        with pytest.raises(SmashError, match="^got 1 predictions for 2 truths$"):
            compute_metrics([1], [1, 0])

    def test_decide_boundary_goes_original(self):
        model = CartModel(task="regress",
                          tree={"leaf": True, "n": 1, "prediction": 0.0},
                          importances=[], feature_names=["f0"], n_features=1)
        assert decide(model, [1.0], threshold=0.0) == ORIGINAL
        model.tree["prediction"] = -0.5
        assert decide(model, [1.0], threshold=0.0) == REWRITTEN
        assert decide(model, [1.0], threshold=-1.0) == ORIGINAL

    def test_threshold_sweep_limits_and_monotonicity(self):
        ex = make_examples(100, lambda x: x[0] > 5)
        model = train_cart(ex, task="regress")
        grid = [-1e9, -0.5, 0.0, 0.5, 1e9]
        results = threshold_sweep(model, ex, grid)
        low, high = results[0][1], results[-1][1]
        assert low.rec_undefined or low.rec == 0.0
        assert low.prec_undefined
        assert high.rec == 1.0
        recalls = [0.0 if m.rec_undefined else m.rec for _, m, _ in results]
        assert recalls == sorted(recalls)

    def test_sweep_e2e_accounting(self):
        ex = make_examples(40, lambda x: x[0] > 5)
        model = train_cart(ex, task="regress")
        (_, _, e2e_all_orig), = threshold_sweep(model, ex, [-1e9])
        assert e2e_all_orig == pytest.approx(sum(e.t_original for e in ex))


class TestImportancesAndPersistence:
    def test_importances_sum_to_one(self):
        ex = make_examples(300, lambda x: x[0] > 5 and x[1] > 3)
        model = train_cart(ex, task="classify")
        assert sum(model.importances) == pytest.approx(1.0, abs=1e-9)
        ranked = gini_importances(model)
        assert ranked == sorted(ranked, key=lambda kv: -kv[1])

    def test_pure_root_empty_importances(self):
        ex = make_examples(20, lambda x: True)
        model = train_cart(ex, task="classify")
        assert gini_importances(model) == []

    def test_json_round_trip(self, tmp_path):
        ex = make_examples(100, lambda x: x[0] > 5)
        model = train_cart(ex, task="classify")
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert model_to_json(back) == model_to_json(model)
        for e in ex[:10]:
            assert predict(back, e.features) == predict(model, e.features)

    def test_knn_json_round_trip(self, tmp_path):
        ex = make_examples(40, lambda x: x[0] > 5)
        model = train_knn(ex, k=3, task="regress")
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back == model
        assert json.loads(model_to_json(back))["kind"] == "knn"

    @pytest.mark.parametrize("kind", ["forest", None])
    def test_unknown_model_kind_rejected(self, tmp_path, kind):
        model = train_knn(make_examples(10, lambda x: x[0] > 5))
        payload = json.loads(model_to_json(model))
        payload.pop("kind")
        if kind is not None:
            payload["kind"] = kind
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SmashError, match="unknown model kind"):
            load_model(path)

    def test_reg_at_zero_close_to_classifier(self):
        rng = random.Random(5)
        ex = []
        for i in range(200):
            x = [rng.uniform(0, 10) for _ in range(3)]
            fast = (x[0] > 5) ^ (rng.random() < 0.1)  # 10% label noise
            ex.append(label(f"q{i}", x, 2.0 if fast else 1.0,
                            1.0 if fast else 2.0))
        s = split_dataset(ex, 3)
        clf = train_cart(s.train, task="classify")
        reg = train_cart(s.train, task="regress")
        held = s.validation + s.test
        acc_clf = sum(
            predict(clf, e.features) == e.class_label for e in held
        ) / len(held)
        acc_reg = sum(
            (decide(reg, e.features, 0.0) == REWRITTEN) == e.class_label
            for e in held
        ) / len(held)
        assert abs(acc_reg - acc_clf) <= 0.05
