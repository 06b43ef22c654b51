#!/usr/bin/env python3
"""Benchmark of smash: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload two_regime --seed 42 --seconds 16 --trace 0

Run from the repository root; the program is imported from `src/` as it is
in the checkout.  Workloads:

- `two_regime`: the 240-query two-regime workload of `smash e2e`; execution
  dominates, and the two regimes use the engine in opposite ways.
- `selector_wide`: 240 random tree queries of 4-8 small tables; planning and
  the ML layer dominate, and the selector learns from exact counts.

Every metric is printed as `name value unit`, followed by the exact model
hashes and the share of failed operations.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  The full record, with machine and pass counts, is written
to `bench/out/result-<workload>-seed<seed>-trace<0|1>.json`, and with
`--trace 1` the spans go to `bench/out/spans-<workload>-seed<seed>.jsonl`.

Exit codes: 0 after a run (whether or not `correct`), 2 when the sources
or `BENCHMARK.json` needed to run are missing or disagree with this script.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_benchmark_json(bench):
    """The metric names, units and directions must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ours = {"end_to_end": bench.END_TO_END, "per_layer": bench.PER_LAYER}
    for key, table in ours.items():
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if declared != [row[:3] for row in table]:
            return f"BENCHMARK.json {key} does not match bench/smashbench.py"
    names = sorted(w["name"] for w in spec["workloads"])
    if names != sorted(bench.WORKLOADS):
        return "BENCHMARK.json workloads do not match bench/smashbench.py"
    return None


def main(argv=None):
    if not (ROOT / "src" / "smash").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} lacks src/smash or BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import smashbench

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(smashbench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="minimum length of the timed execution loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    mismatch = _check_benchmark_json(smashbench)
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return 2

    result = smashbench.run(args.workload, args.seed, args.seconds, args.trace)
    info = result["info"]
    out = smashbench.OUT_DIR / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps(result, indent=1, sort_keys=True))

    print(f"# {args.workload} seed {args.seed} trace {args.trace} "
          f"on {json.dumps(info['machine'], sort_keys=True)}")
    print(f"# queries per regime {info['queries_per_regime']}, "
          f"{info['exec_passes']} execution and {info['plan_passes']} planning "
          "passes untraced")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for task, digest in info.get("model_sha256", {}).items():
        print(f"model_sha256.{task} {digest}")
    print(f"failed_share {info['failed_share']!r} ratio")
    for problem in result["check_failures"] + result["problems"]:
        print(f"# problem: {problem}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
