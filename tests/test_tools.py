"""`tools/ab.py`: its shared set-up against what it recorded, and its record.

The cart and plan measurements label the benchmark's selector_wide queries
by exact intermediate-tuple counts, through `harness.plan_query`.  The pool
models trained on that dataset and its 10-fold cross-validation accuracies
must stay the ones every side of `BENCH_cart.json` records, byte for byte,
the plans of those queries the ones every side of `BENCH_plan.json`
recorded, the benchmark's generated workloads the ones every side of
`BENCH_setup.json` recorded, and the selector_wide queries' operation
counts and results the ones every side of `BENCH_exec.json` recorded.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from smash import ml

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.syspath_prepend(str(REPO / "tools"))
    import ab

    return ab


def recorded_exact(name):
    sides = json.loads((REPO / name).read_text())["sides"]
    assert set(sides) == {"parent", "change"}
    return sides.items()


def test_selector_wide_pool_models_match_bench_cart(ab):
    splits = ml.split_dataset(ab.count_examples(*ab.workload("selector_wide")), ab.SEED)
    digests = {
        task: hashlib.sha256(
            ml.model_to_json(ml.train_cart(splits.pool, task=task)).encode()
        ).hexdigest()
        for task in ("regress", "classify")
    }
    for name, side in recorded_exact("BENCH_cart.json"):
        assert side["exact"]["model_sha256"] == digests, name


def test_selector_wide_cv_accuracies_match_bench_cart(ab):
    splits = ml.split_dataset(ab.count_examples(*ab.workload("selector_wide")), ab.SEED)
    accuracies = {task: ml.cross_validate(splits.folds, task)
                  for task in ("regress", "classify")}
    for name, side in recorded_exact("BENCH_cart.json"):
        assert side["exact"]["cv_accuracies"] == accuracies, name


def test_selector_wide_plans_match_bench_plan(ab):
    db, queries = ab.workload("selector_wide")
    model = ml.train_cart(ab.count_examples(db, queries), task="regress")
    digest = ab.plan_digest(db, queries, model)
    for name, side in recorded_exact("BENCH_plan.json"):
        assert side["exact"]["plan_sha256"]["selector_wide"] == digest, name


def test_generated_workloads_match_bench_setup(ab):
    from smashbench import WORKLOADS

    digests = {name: ab.workload_digest(*w.generate(ab.SEED)) for name, w in WORKLOADS.items()}
    for name, side in recorded_exact("BENCH_setup.json"):
        assert side["exact"]["workload_sha256"] == digests, name


def test_selector_wide_execution_matches_bench_exec(ab):
    db, queries = ab.workload("selector_wide")
    exact, _ = ab.counted_pass(db, ab.prepared_plans(db, queries))
    for name, side in recorded_exact("BENCH_exec.json"):
        for key, value in exact.items():
            assert side["exact"][key]["selector_wide"] == value, (name, key)


def rounds(times, digest="d", count=3):
    return [{"values": {"a_s": t, "b_s": 2 * t}, "exact": {"sha": digest, "n": count}}
            for t in times]


def test_record_ratios_are_change_over_parent_per_round(ab):
    record = ab.build_record({"parent": rounds([1.0, 2.0, 4.0, 5.0, 8.0]),
                              "change": rounds([0.5, 3.0, 2.0, 5.0, 4.0])})
    for metric in ("a_s", "b_s"):
        ratio = record["ratio_change_over_parent"][metric]
        assert ratio["per_round"] == [0.5, 1.5, 0.5, 1.0, 0.5]
        assert (ratio["q1"], ratio["median"], ratio["q3"]) == (0.5, 0.5, 1.0)
    assert record["sides"]["parent"]["values"]["b_s"] == {"median": 8.0, "q1": 4.0, "q3": 10.0}
    assert record["sides"]["change"]["exact"] == {"sha": "d", "n": 3}
    assert record["exact_agree"] == {"sha": True, "n": True}


def test_record_rejects_a_side_whose_rounds_disagree(ab):
    change = rounds([1.0] * 5)
    change[3]["exact"]["n"] = 4
    with pytest.raises(ValueError, match="change: exact output 'n' differs"):
        ab.build_record({"parent": rounds([1.0] * 5), "change": change})


def test_record_flags_sides_whose_exact_outputs_differ(ab):
    record = ab.build_record({"parent": rounds([1.0] * 5, digest="old"),
                              "change": rounds([1.0] * 5, digest="new")})
    assert record["exact_agree"] == {"sha": False, "n": True}


def test_parent_without_smash_is_rejected(ab, tmp_path, capsys):
    with pytest.raises(SystemExit):
        ab.main(["setup", "--parent", str(tmp_path)])
    assert "holds no smash/__init__.py" in capsys.readouterr().err


def test_worker_refuses_smash_from_another_tree(ab, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit, match="not from"):
        ab.use_source(tmp_path)


def test_failed_worker_shows_its_traceback(ab, tmp_path, capfd):
    (tmp_path / "smash").mkdir()
    (tmp_path / "smash" / "__init__.py").write_text("raise RuntimeError('broken tree')\n")
    with pytest.raises(subprocess.CalledProcessError):
        ab.run_side("setup", tmp_path)
    assert "RuntimeError: broken tree" in capfd.readouterr().err
