#!/usr/bin/env python3
"""Reproduce the layer table of ROADMAP.md from the benchmark and save it.

    python3 bench/baseline.py

Runs `bench/run.py --workload two_regime` five times untraced and once
traced at seed 42, then writes each table row as median, quartiles and IQR
over the untraced runs (traced rows come from the single traced run),
together with the machine, the per-layer -> end-to-end mapping and why each
workload was chosen.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 42
REPEATS = 5
OUT = ROOT / "bench" / "baseline.json"

# (row, source, key): source "metric" or "info" of the untraced runs, or
# "traced" for a per-layer metric of the traced run
ROWS = [
    ("generate workload, s", "metric", "setup_s"),
    ("plan, all 240 queries, s", "info", "plan_pass_s"),
    ("plan per query p50, us", "metric", "plan_p50_us"),
    ("plan per query p95, us", "metric", "plan_p95_us"),
    ("one pass, Base, star (prune regime), s", "info", "exec_pass_base_prune_s"),
    ("one pass, Base, chain (dense regime), s", "info", "exec_pass_base_dense_s"),
    ("one pass, Rewriting, star (prune regime), s", "info", "exec_pass_rewriting_prune_s"),
    ("one pass, Rewriting, chain (dense regime), s", "info", "exec_pass_rewriting_dense_s"),
    ("train_cart regress, 216 examples, s", "metric", "train_s"),
    ("SMASH total, every query decided out of sample, s", "metric", "smash_total_s"),
    ("SMASH over per-query best", "metric", "smash_over_oracle"),
    ("e2e pipeline (one pass each + training + smash_e2e), s", "metric", "e2e_wall_s"),
    ("predict per query, us", "traced", "ml.predict_us"),
    ("estimate per query, us", "traced", "engine.estimate_us"),
    ("q-error star p50", "traced", "engine.qerror_p50.prune"),
    ("q-error star p90", "traced", "engine.qerror_p90.prune"),
    ("q-error chain p50", "traced", "engine.qerror_p50.dense"),
    ("q-error chain p90", "traced", "engine.qerror_p90.dense"),
    ("rewrite-win share", "traced", "harness.rewrite_win_share"),
    ("Rewriting slowdown fraction", "traced", "harness.rewriting_slowdown_fraction"),
    ("tracing overhead on e2e_wall_s, s", "traced", "trace.overhead_s"),
]


def _run(trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
           "two_regime", "--seed", str(SEED), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = ROOT / "bench" / "out" / f"result-two_regime-seed{SEED}-trace{trace}.json"
    result = json.loads(path.read_text())
    if not result["correct"]:
        problems = result["check_failures"] + result["problems"]
        raise SystemExit(f"run with trace {trace} was not correct: {problems}")
    return result


def main():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import smashbench

    runs = [_run(0) for _ in range(REPEATS)]
    traced = _run(1)
    table = []
    for row, source, key in ROWS:
        if source == "traced":
            table.append({"row": row, "key": key, "runs": 1,
                          "value": traced["metrics"][key]["value"]})
            continue
        values = [r["metrics"][key]["value"] if source == "metric" else r["info"][key]
                  for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        table.append({"row": row, "key": key, "runs": len(values), "median": med,
                      "q1": q1, "q3": q3, "iqr": q3 - q1})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "workload": "two_regime",
        "seed": SEED,
        "machine": runs[0]["info"]["machine"],
        "passes_per_run": {k: runs[0]["info"][k] for k in ("exec_passes", "plan_passes")},
        "table": table,
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {name: meaning for name, _, _, meaning in smashbench.END_TO_END},
        "per_layer_moves": {name: moves for name, _, _, moves in smashbench.PER_LAYER},
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    width = max(len(row) for row, _, _ in ROWS)
    for entry in table:
        value = entry.get("median", entry.get("value"))
        spread = f"  IQR {entry['iqr']:.4g}" if "iqr" in entry else "  (traced run)"
        print(f"{entry['row']:<{width}}  {value:.4g}{spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
