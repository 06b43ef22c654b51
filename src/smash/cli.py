"""Command-line interface.

Subcommands cover the whole pipeline: parsing and join-tree analysis of a
single query, rewriting, feature extraction, augmentation, workload
generation, timed runs, model training/evaluation, per-query decisions,
the end-to-end comparison report, and significance testing.  The data
directory (CSV tables) comes from --data-dir or the SMASH_DATA_DIR
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from . import acyclic, augmentation, harness, ml, stats_tests
from .engine import load_database, save_database
from .errors import SmashError
from .frontend import normalize, parse_query, to_sql
from .rewriter import rewrite

DATA_DIR_ENV = "SMASH_DATA_DIR"


def _read_sql(arg):
    """The text of the file `arg` names, if it names one; else `arg`,
    the SQL itself."""
    if os.path.isfile(arg):  # False, not OSError, for a name too long
        return Path(arg).read_text()
    return arg


def _load_db(args):
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
    if data_dir is None:
        raise SmashError(
            f"no data directory; pass --data-dir or set {DATA_DIR_ENV}"
        )
    return load_database(data_dir)


def _analyzed(args, db=None):
    """(query, join tree), for commands that may have no database."""
    cq = normalize(parse_query(_read_sql(args.query)), db)
    tree, _ = acyclic.analyze(cq)
    return cq, tree


def cmd_parse(args):
    spec = parse_query(_read_sql(args.query))
    cq = normalize(spec)
    print(json.dumps({
        "tables": spec.tables,
        "kind": cq.output.kind,
        "join_conditions": len(spec.join_conds),
        "filters": len(spec.filters),
        "classes": cq.class_ids(),
    }, indent=2))


def cmd_jointree(args):
    cq, tree = _analyzed(args)
    print(tree.to_text(cq))
    print(json.dumps(tree.to_dict(cq), indent=2))


def cmd_rewrite(args):
    db = _load_db(args) if (args.data_dir or os.environ.get(DATA_DIR_ENV)) else None
    cq, tree = _analyzed(args, db)
    seq = rewrite(tree, cq, db)
    print(seq.to_sql(with_drops=args.with_drops))


def cmd_features(args):
    db = _load_db(args)
    fv = harness.plan_query(parse_query(_read_sql(args.query)), db).features
    print(json.dumps(fv._asdict(), indent=2))
    print(",".join(fv._fields))
    print(",".join(map(repr, fv)))


def cmd_augment(args):
    db = _load_db(args)
    rng = random.Random(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for sql_file in args.files:
        stem = Path(sql_file).stem
        base = parse_query(Path(sql_file).read_text())
        variants = []
        for i, q in enumerate(augmentation.augment_filters(base, db), 1):
            variants.append((f"{stem}-augF{i}", q))
        expanded = []
        for name, q in variants:
            if q.is_aggregate:
                for i, qa in enumerate(
                    augmentation.augment_aggregate_attribute(q, db), 1
                ):
                    expanded.append((f"{name}-augA{i}", qa))
            else:
                expanded.append((name, q))
        final = []
        for name, q in expanded:
            final.append((name, q))
            if q.join_conds:
                for i, qe in enumerate(augmentation.augment_enumeration(q, rng), 1):
                    final.append((f"{name}-augE{i}", qe))
        for name, q in final:
            (out / f"{name}.sql").write_text(to_sql(q) + "\n")
        print(f"{sql_file}: {len(final)} variants")


def cmd_generate(args):
    if args.two_regime:
        db, queries = augmentation.generate_two_regime_workload(
            seed=args.seed, n_queries=args.queries
        )
    else:
        db, queries = augmentation.generate_workload(augmentation.WorkloadSpec(
            seed=args.seed,
            n_base_queries=args.queries,
            dangling_fraction=args.dangling,
            shape=args.shape,
        ))
    out = Path(args.out)
    save_database(db, out / "data")
    qdir = out / "queries"
    qdir.mkdir(parents=True, exist_ok=True)
    for qid, q in queries:
        (qdir / f"{qid}.sql").write_text(to_sql(q) + "\n")
    print(f"wrote {len(db.tables)} tables and {len(queries)} queries to {out}")


def _load_queries(queries_dir):
    out = []
    for path in sorted(Path(queries_dir).glob("*.sql")):
        out.append((path.stem, parse_query(path.read_text())))
    return out


def cmd_run(args):
    db = _load_db(args)
    queries = _load_queries(args.queries)
    config = harness.RunConfig(
        repeats=args.repeats, timeout_s=args.timeout, seed=args.seed
    )
    log = harness.run_workload(db, queries, config)
    log.save(args.out)
    print(f"ran {len(queries)} queries; run log written to {args.out}")
    if args.dataset:
        examples = harness.build_dataset(log, log.features)
        ml.save_dataset(examples, args.dataset)
        print(f"dataset of {len(examples)} queries written to {args.dataset}")


def cmd_train(args):
    examples = ml.load_dataset(args.dataset)
    splits = ml.split_dataset(examples, args.seed)
    model = ml.train_cart(splits.train, task=args.task)
    ml.save_model(model, args.out)
    accuracies = ml.cross_validate(splits.folds, task=args.task)
    print(json.dumps({
        "model": args.out,
        "task": args.task,
        "train_size": len(splits.train),
        "cv_accuracy_mean": sum(accuracies) / len(accuracies),
    }, indent=2))


def cmd_evaluate(args):
    examples = ml.load_dataset(args.dataset)
    model = ml.load_model(args.model)
    preds = [
        1 if ml.decide(model, e.features, args.threshold) == ml.REWRITTEN else 0
        for e in examples
    ]
    metrics = ml.compute_metrics(preds, [e.class_label for e in examples])
    print(json.dumps(vars(metrics), indent=2))


def cmd_decide(args):
    db = _load_db(args)
    model = ml.load_model(args.model)
    spec = parse_query(_read_sql(args.query))
    print(harness.plan_query(spec, db, model, args.threshold).decision)


def cmd_e2e(args):
    db, queries = augmentation.generate_two_regime_workload(
        seed=args.seed, n_queries=args.queries
    )
    config = harness.RunConfig(
        repeats=args.repeats, timeout_s=args.timeout, seed=args.seed
    )
    log = harness.run_workload(db, queries, config)
    examples = harness.build_dataset(log, log.features)
    splits = ml.split_dataset(examples, args.seed)
    model = ml.train_cart(splits.pool, task="regress")
    test_ids = {e.query_id for e in splits.test}
    test_queries = [(qid, q) for qid, q in queries if qid in test_ids]
    report = harness.smash_e2e(db, test_queries, model, args.threshold, log)
    if args.out:
        Path(args.out).write_text(report.to_json())
    print(report.to_text())


def cmd_significance(args):
    log = harness.RunLog.load(args.runlog)
    held = list(dict.fromkeys(e.strategy for e in log.entries))
    for strategy in (args.strategy_a, args.strategy_b):
        if strategy not in held:
            raise SmashError(f"{args.runlog}: no strategy {strategy!r}; the run log "
                             f"holds {', '.join(held) or 'none'}")
    a, b = [], []
    for qid in log.query_ids():
        ea = log.entry(qid, args.strategy_a)
        eb = log.entry(qid, args.strategy_b)
        if ea and eb and not (ea.skipped or eb.skipped):
            a.append(ea.mean_s)
            b.append(eb.mean_s)
    sample = stats_tests.PairedSample(a, b)
    w_stat, w_p = stats_tests.wilcoxon_signed_rank(sample)
    t_stat, t_p = stats_tests.paired_t_test(sample)
    print(f"{'comparison':<28}{'median test p':>16}{'mean test p':>16}")
    print(f"{args.strategy_a + ' vs ' + args.strategy_b:<28}"
          f"{w_p:>16.6g}{t_p:>16.6g}")
    print(f"(wilcoxon statistic {w_stat:g}, t statistic {t_stat:.4f}, "
          f"n {len(a)})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="smash",
        description="Per-query selection between conventional and "
        "semi-join (Yannakakis-style) SQL evaluation.",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--timeout", type=float, default=100.0,
                        help="seconds a run may take before it is charged the "
                        "timeout; checked after the run returns, so it does not "
                        "stop a runaway query")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--data-dir", default=None,
                        help=f"CSV table directory (or ${DATA_DIR_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse + normalize a query")
    p.add_argument("query")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("jointree", help="GYO reduction and join tree")
    p.add_argument("query")
    p.set_defaults(fn=cmd_jointree)

    p = sub.add_parser("rewrite", help="emit the rewritten statement sequence")
    p.add_argument("query")
    p.add_argument("--with-drops", action=argparse.BooleanOptionalAction,
                   default=True)
    p.set_defaults(fn=cmd_rewrite)

    p = sub.add_parser("features", help="feature vector for one query")
    p.add_argument("query")
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("augment", help="augment SQL files into variants")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("generate", help="generate a synthetic workload")
    p.add_argument("--out", required=True)
    p.add_argument("--queries", type=int, default=20)
    p.add_argument("--dangling", type=float, default=0.3)
    p.add_argument("--shape", choices=["random", "star", "chain"],
                   default="random")
    p.add_argument("--two-regime", action="store_true",
                   help="the two-regime workload, whose generator fixes the "
                        "dangling fraction and the shape: --dangling and "
                        "--shape are ignored")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("run", help="time a workload under both strategies")
    p.add_argument("--queries", required=True, help="directory of .sql files")
    p.add_argument("--out", required=True)
    p.add_argument("--dataset", default=None,
                   help="also write the labelled dataset CSV that train reads")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("train", help="train a CART model from a dataset CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--task", choices=["classify", "regress"],
                   default="classify")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="metrics of a model on a dataset CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=0.0)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("decide", help="pick a strategy for one query")
    p.add_argument("query")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=0.0)
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("e2e", help="full pipeline on a generated workload")
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_e2e)

    p = sub.add_parser("significance", help="paired tests over a run log")
    p.add_argument("--runlog", required=True)
    p.add_argument("strategy_a")
    p.add_argument("strategy_b")
    p.set_defaults(fn=cmd_significance)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (SmashError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
