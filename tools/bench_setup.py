"""Time workload generation of two source trees, in alternating rounds.

The workloads are the ones `bench/run.py --workload W --seed 42` generates
in its set-up step (`setup_s`): two_regime and selector_wide, 240 queries
each, taken from the benchmark's own workload definitions.

    python tools/bench_setup.py --parent ../parent/src

runs the rounds of `bench_plan.alternate`: per round one fresh subprocess
per side, the parent tree (`--parent`) and this repository's `src/`, in
alternating order.  A subprocess generates each workload once, untimed,
then PASSES times, the workloads in alternating order, with the garbage
collector off during each generation, as the benchmark does.  Each
generation is timed with `bench/clock.py`, so it reads in seconds at the
clock's reference speed, and the subprocess reports per workload the
median over its passes.  BENCH_setup.json records per side and workload
the median and quartiles of those round values, the round count, the
machine and a SHA-256 over every generated table (name, schema, rows in
order, as their repr) and query (id and SQL text), so equal digests mean
equal workloads; and per workload the ratios change / parent per round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
from pathlib import Path

from bench_cart import SEED, machine, timed, use_source
from bench_plan import ROUNDS, alternate, ratio_summary, summary

REPO = Path(__file__).resolve().parent.parent
PASSES = 3


def workload_digest(db, queries):
    """SHA-256 over every table's name, schema and rows and every query's
    id and SQL text."""
    from smash import frontend

    digest = hashlib.sha256()
    for name, rel in db.tables.items():
        digest.update(repr((name, rel.schema, rel.rows)).encode())
    for qid, spec in queries:
        digest.update(repr((qid, frontend.to_sql(spec))).encode())
    return digest.hexdigest()


def worker(src):
    """One side's measurement, as one JSON object on standard output."""
    use_source(src)
    from clock import Clock
    from smashbench import WORKLOADS

    digests = {name: workload_digest(*WORKLOADS[name].generate(SEED))
               for name in WORKLOADS}  # also the untimed warm-up
    seconds = {name: [] for name in WORKLOADS}
    order = list(WORKLOADS)
    with Clock() as clock:
        for p in range(PASSES):
            for name in (order if p % 2 == 0 else order[::-1]):
                seconds[name].append(timed(clock, lambda: WORKLOADS[name].generate(SEED)))
    print(json.dumps({"generate_s": {name: statistics.median(v)
                                     for name, v in seconds.items()},
                      "sha256": digests}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path,
                        help="source tree of the parent side, e.g. ../parent/src")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_setup.json")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        worker(args.worker)
        return
    if args.parent is None:
        parser.error("--parent is required")
    sources, results = alternate(__file__, args.parent, lambda result: ", ".join(
        f"{name} {s:.3f} s" for name, s in result["generate_s"].items()))
    workloads = list(results["parent"][0]["generate_s"])
    rounds = {side: [r["generate_s"] for r in results[side]] for side in sources}
    sides = {}
    for side in sources:
        (digests,) = {json.dumps(r["sha256"], sort_keys=True) for r in results[side]}
        sides[side] = {
            "rounds": ROUNDS,
            "generate_s": {name: summary([r[name] for r in rounds[side]])
                           for name in workloads},
            "sha256": json.loads(digests),
            "machine": machine(),
        }
    record = {
        "workloads": f"two_regime and selector_wide seed {SEED}, 240 queries each, "
                     "as bench/run.py generates them",
        "unit": (f"seconds at reference speed (bench/clock.py): per round, one "
                 f"subprocess per side; per workload the median of {PASSES} "
                 "generations after an untimed one; median and quartiles over rounds"),
        "sides": sides,
        "ratio_change_over_parent": {
            name: ratio_summary(*([r[name] for r in rounds[side]]
                                  for side in ("parent", "change")))
            for name in workloads},
        "same_workloads_on_all_sides": len({json.dumps(s["sha256"], sort_keys=True)
                                            for s in sides.values()}) == 1,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({name: {"ratio": record["ratio_change_over_parent"][name]["median"],
                             **{side: sides[side]["generate_s"][name]["median"]
                                for side in sides}}
                      for name in workloads} | {
                          "same_workloads_on_all_sides":
                              record["same_workloads_on_all_sides"]}, indent=2))


if __name__ == "__main__":
    main()
