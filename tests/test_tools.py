"""The benchmark tools' shared set-up against what they recorded.

`tools/bench_cart.py` and `tools/bench_plan.py` label the benchmark's
selector_wide queries by exact intermediate-tuple counts, through
`harness.plan_query`.  The pool models trained on that dataset must stay
the ones `BENCH_cart.json` records, byte for byte, and the plans of those
queries the ones every side of `BENCH_plan.json` recorded.
"""

import hashlib
import json
from pathlib import Path

from smash import ml

REPO = Path(__file__).resolve().parent.parent


def test_selector_wide_pool_models_match_bench_cart(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.syspath_prepend(str(REPO / "tools"))
    import bench_cart

    splits = ml.split_dataset(bench_cart.build_examples(), bench_cart.SEED)
    digests = {
        task: hashlib.sha256(
            ml.model_to_json(ml.train_cart(splits.pool, task=task)).encode()
        ).hexdigest()
        for task in ("regress", "classify")
    }
    sides = json.loads((REPO / "BENCH_cart.json").read_text())["sides"]
    assert sides
    for name, side in sides.items():
        assert side["model_sha256"] == digests, name


def test_selector_wide_plans_match_bench_plan(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.syspath_prepend(str(REPO / "tools"))
    import bench_cart
    import bench_plan

    db, queries = bench_cart.workload("selector_wide")
    model = ml.train_cart(bench_cart.count_examples(db, queries), task="regress")
    digest = bench_plan.plan_digest(db, queries, model)
    sides = json.loads((REPO / "BENCH_plan.json").read_text())["sides"]
    assert sides
    for name, side in sides.items():
        assert side["plan_sha256"]["selector_wide"] == digest, name
