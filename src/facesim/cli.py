"""Command-line entry point for reproducible experiment runs.

Every subcommand is deterministic given its seed, and every JSON report
embeds the exact run configuration that produced it.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numerical
divergence, 5 infeasible split.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import sys
from typing import List, Optional

import numpy as np

from . import __version__, corpus
from .errors import (
    DataError,
    DivergenceError,
    FacesimError,
    InfeasibleSplitError,
    IntegrityError,
    ValidationError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4
EXIT_INFEASIBLE = 5


def _run_config(args: argparse.Namespace) -> dict:
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    payload["artifact_version"] = __version__
    return payload


def _write_report(path, args, body: dict) -> None:
    report = {"run_config": _run_config(args)}
    report.update(body)
    corpus.write_json(path, report, indent=2)


def _load_triplets(args) -> corpus.TripletTable:
    """The triplet table of the manifest and annotations, over the embedding table."""
    table = corpus.load_embeddings(args.embeddings)
    manifest = corpus.load_manifest(args.manifest)
    annotations = corpus.load_annotations(args.annotations)
    return corpus.count_votes(manifest, annotations, annotations.screened(),
                              min_votes=args.min_votes, table=table)


def _load_partition(path: str, triplets: corpus.TripletTable) -> corpus.DatasetPartition:
    """The partition at `path`, checked to name only triplets of the corpus, none of them
    in two splits."""
    partition = corpus.DatasetPartition.load(path)
    known = set(triplets.triplet_ids)
    split_of = {}
    for split in ("train", "val", "test"):
        for t in getattr(partition, split):
            if t not in known:
                raise IntegrityError(
                    f"partition file {path}: {split} id '{t}' is not a triplet of the corpus"
                )
            first = split_of.setdefault(t, split)
            if first != split:
                raise IntegrityError(
                    f"partition file {path}: id '{t}' is in both {first} and {split}"
                )
    return partition


def _in_split(pool: corpus.TripletTable, partition: corpus.DatasetPartition, split: str):
    wanted = set(getattr(partition, split))
    return pool.take(np.fromiter(map(wanted.__contains__, pool.triplet_ids), bool, len(pool)))


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    table = corpus.load_embeddings(args.embeddings)
    roles = dict(collections.Counter(table.roles))  # in order of first appearance
    body = {"records": len(table), "dim": table.dim, "roles": roles}
    if args.report:
        _write_report(args.report, args, body)
    print(f"ingested {len(table)} records (d={table.dim})")
    return EXIT_OK


def cmd_validate(args) -> int:
    annotations = corpus.load_annotations(args.annotations)
    valid = list(itertools.compress(annotations.annotators, annotations.screened()))
    body = {"annotators": len(annotations.annotators), "valid_annotators": valid}
    if args.report:
        _write_report(args.report, args, body)
    print(f"{len(valid)}/{len(annotations.annotators)} annotators passed dummy-sample screening")
    return EXIT_OK


def cmd_split(args) -> int:
    triplets = _load_triplets(args)
    partition = corpus.split_eval(triplets, args.mode, ratios=tuple(args.ratios), seed=args.seed)
    partition.save(args.out)
    print(
        f"mode [{args.mode}] split: {len(partition.train)} train,"
        f" {len(partition.val)} val, {len(partition.test)} test -> {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    import dataclasses

    from . import trainer
    from .metric import ProjectionModel

    triplets = _load_triplets(args)
    pool = corpus.build_datasets(triplets)[args.dataset]
    train_samples, val_samples = pool, pool.take([])
    if args.partition:
        partition = _load_partition(args.partition, triplets)
        train_samples = _in_split(pool, partition, "train")
        val_samples = _in_split(pool, partition, "val")
    if args.model:
        model = ProjectionModel.load(args.model)
    else:
        model = ProjectionModel.identity(triplets.table.dim)
    config = trainer.TrainConfig(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(trainer.TrainConfig)}
    )
    trained, history = trainer.train(model, train_samples, val_samples, config)
    trained.save(args.out)
    if args.history:
        history.save_csv(args.history)
    final_loss = history.mean_loss[-1] if history.mean_loss else float("nan")
    print(f"trained on {len(train_samples)} {args.dataset} triplets,"
          f" final mean loss {final_loss:.6f} -> {args.out}")
    return EXIT_OK


def cmd_eval_triplets(args) -> int:
    import statistics

    from . import evaluator
    from .metric import ProjectionModel

    triplets = _load_triplets(args)
    pool = corpus.build_datasets(triplets)["D2"]
    if args.partition:
        pool = _in_split(pool, _load_partition(args.partition, triplets), args.split)
    accuracies = []
    per_model = []
    pairs = None
    for model_path in args.model:
        model = ProjectionModel.load(model_path)
        accuracy, pairs = evaluator.eval_triplets(model, pool)
        accuracies.append(accuracy)
        per_model.append({"model": model_path, "accuracy": round(accuracy, 3)})
    body = {
        "samples": len(pairs[0]),
        "models": per_model,
        "accuracy_mean": round(statistics.mean(accuracies), 3),
        "accuracy_sd": round(statistics.stdev(accuracies), 3) if len(accuracies) > 1 else 0.0,
        "funnel": triplets.funnel(),
    }
    _write_report(args.report, args, body)
    if args.scatter:
        evaluator.export_scatter(pairs, args.scatter)
    print(f"triplet accuracy {body['accuracy_mean']:.3f} over {body['samples']} samples")
    return EXIT_OK


def cmd_eval_attributes(args) -> int:
    from . import attributes
    from .metric import ProjectionModel

    candidates = corpus.load_embeddings(args.candidates)
    queries = corpus.load_embeddings(args.queries)
    model = ProjectionModel.load(args.model)
    groups = attributes.build_groups(candidates, per_intersection=args.per_group, seed=args.seed)
    names = attributes.ALL_GROUPS if args.distances else attributes.task_categories(args.task)
    scores = attributes.score_groups(model, queries, groups, names, use_t=args.student_t)
    report = attributes.classification_report(args.task, queries, names, scores.upper)
    _write_report(args.report, args, report.to_json())
    if args.distances:
        corpus.write_table(
            args.distances,
            ["query_id", "group", "n", "mean_d", "sd_d", "upper"],
            [
                [query_id for query_id in queries.image_ids for _ in names],
                list(names) * len(queries),
                scores.n.ravel().tolist(),
                np.stack([scores.mean, scores.sd, scores.upper], axis=2).reshape(-1, 3),
            ],
        )
    print(f"{args.task} accuracy {report.accuracy:.3f} over {len(queries)} queries")
    return EXIT_OK


def cmd_select(args) -> int:
    from . import attributes, selector
    from .metric import ProjectionModel

    candidates = corpus.load_embeddings(args.candidates)
    queries = corpus.load_embeddings(args.query)
    if args.query_id is not None:
        if args.query_id not in queries:
            raise DataError(f"query_id '{args.query_id}' not found in {args.query}")
        queries = queries.take([queries.row(args.query_id)])
    model = ProjectionModel.load(args.model)
    groups = attributes.build_groups(candidates, per_intersection=args.per_group, seed=args.seed)
    results = selector.recommend_batch(
        model, queries, groups, k=args.k, group_mode=args.group_mode
    )
    _write_report(args.out, args, {"recommendations": [rec.to_json() for rec, _ in results]})
    if args.ranking:
        ranks = [range(1, len(image_ids) + 1) for _, (image_ids, _) in results]
        corpus.write_table(
            args.ranking,
            ["query_id", "group", "rank", "image_id", "similarity"],
            [
                [rec.query_id for (rec, _), rank in zip(results, ranks) for _ in rank],
                [rec.selected_group for (rec, _), rank in zip(results, ranks) for _ in rank],
                list(itertools.chain.from_iterable(ranks)),
                list(itertools.chain.from_iterable(image_ids for _, (image_ids, _) in results)),
                np.concatenate([np.empty(0), *(sims for _, (_, sims) in results)])[:, None],
            ],
        )
    print(f"recommended {args.k} source candidates for {len(queries)} queries -> {args.out}")
    return EXIT_OK


# draws a gradient check may make per requested probe before it gives up
GRADCHECK_DRAWS_PER_PROBE = 100


def cmd_gradcheck(args) -> int:
    from . import trainer
    from .metric import ProjectionModel

    if args.dim < 1 or args.probes < 1:
        raise ValidationError(
            f"gradcheck needs --dim and --probes >= 1, got {args.dim} and {args.probes}"
        )
    if args.seed < 0:
        raise ValidationError(f"gradcheck needs --seed >= 0, got {args.seed}")
    trainer.check_margin(args.margin)
    trainer.check_step(args.step)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    active = 0
    for _ in range(GRADCHECK_DRAWS_PER_PROBE * args.probes):
        weight = np.eye(args.dim) + 0.1 * rng.normal(size=(args.dim, args.dim))
        ref, pos, neg = (rng.normal(size=args.dim) for _ in range(3))
        # an inactive hinge has zero analytic and numeric gradients, which check nothing
        if trainer.triplet_hinge(weight, ref, pos, neg, args.margin) <= 0:
            continue
        model = ProjectionModel(weight)
        err = trainer.gradient_check(model, ref, pos, neg, args.margin, step=args.step)
        worst = max(worst, err)
        active += 1
        if active == args.probes:
            break
    else:
        raise ValidationError(
            f"gradcheck found {active} of {args.probes} probes with an active hinge"
            f" in {GRADCHECK_DRAWS_PER_PROBE * args.probes} draws"
        )
    print(f"max relative gradient error over {args.probes} active probes: {worst:.3e}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import synth

    if args.preset == "planted":
        data = synth.planted(seed=args.seed, n_triplets=args.triplets, dim=args.dim,
                             data_subspace=min(12, args.dim), noise_fraction=args.noise_fraction)
        done = f"planted corpus with {args.triplets} triplets (d={args.dim})"
    else:
        data = synth.clustered_attributes(seed=args.seed, per_cluster=args.per_cluster,
                                          n_queries=args.queries, dim=args.dim)
        done = f"clustered-attributes corpus ({args.per_cluster}/cluster, {args.queries} queries)"
    data.write(args.out_dir)
    print(f"{done} -> {args.out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The facesim parser. Every subcommand is listed; given `command`, only that
    one gets its arguments, so a run imports no other command's modules."""
    parser = argparse.ArgumentParser(
        prog="facesim",
        description="Human-perceptual face similarity: training, evaluation,"
        " and anonymization source selection over precomputed embeddings.",
    )
    parser.add_argument("--version", action="version", version=f"facesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus_inputs(p):
        p.add_argument("--embeddings", required=True)
        p.add_argument("--manifest", required=True)
        p.add_argument("--annotations", required=True)
        p.add_argument("--min-votes", type=int, default=corpus.MIN_VALID_VOTES, dest="min_votes")

    def ingest(p):
        p.add_argument("--embeddings", required=True)
        p.add_argument("--report")

    def validate(p):
        p.add_argument("--annotations", required=True)
        p.add_argument("--report")

    def split(p):
        add_corpus_inputs(p)
        p.add_argument("--mode", required=True, choices=["i", "ii", "iii"])
        p.add_argument("--ratios", type=float, nargs=3, default=corpus.DEFAULT_SPLIT_RATIOS)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)

    def train(p):
        from .trainer import TrainConfig

        add_corpus_inputs(p)
        p.add_argument("--dataset", choices=["D1", "D2"], default="D2")
        p.add_argument("--partition", help="partition JSON; restricts to its train/val")
        p.add_argument("--model", help="initial model (default: identity)")
        p.add_argument("--out", required=True)
        p.add_argument("--history", help="per-epoch CSV")
        p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
        p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
        p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
        p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
        p.add_argument("--margin", type=float, default=TrainConfig.margin)
        p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
        p.add_argument("--seed", type=int, default=TrainConfig.seed)
        p.add_argument("--no-shuffle", action="store_false", dest="shuffle")

    def eval_triplets(p):
        add_corpus_inputs(p)
        p.add_argument("--model", action="append", required=True,
                       help="model path; repeat for mean±SD across models")
        p.add_argument("--partition")
        p.add_argument("--split", choices=["train", "val", "test"], default="test")
        p.add_argument("--report", required=True)
        p.add_argument("--scatter")

    def eval_attributes(p):
        p.add_argument("--model", required=True)
        p.add_argument("--candidates", required=True)
        p.add_argument("--queries", required=True)
        p.add_argument("--task", choices=["gender", "age", "four-way"], default="four-way")
        p.add_argument("--per-group", type=int, default=None, dest="per_group")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--student-t", action="store_true", dest="student_t")
        p.add_argument("--report", required=True)
        p.add_argument("--distances", help="per-query per-group distance CSV")

    def select(p):
        p.add_argument("--model", required=True)
        p.add_argument("--candidates", required=True)
        p.add_argument("--query", required=True, help="query embedding table")
        p.add_argument("--query-id", dest="query_id")
        p.add_argument("--k", type=int, default=5)
        p.add_argument("--group-mode", choices=["intersection", "all"], default="intersection")
        p.add_argument("--per-group", type=int, default=None, dest="per_group")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        p.add_argument("--ranking", help="full ranking CSV")

    def gradcheck(p):
        from .trainer import TrainConfig

        p.add_argument("--dim", type=int, default=8)
        p.add_argument("--probes", type=int, default=20)
        p.add_argument("--margin", type=float, default=TrainConfig.margin)
        p.add_argument("--step", type=float, default=1e-5)
        p.add_argument("--seed", type=int, default=0)

    def synth(p):
        p.add_argument("--preset", required=True, choices=["planted", "clustered-attributes"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--dim", type=int, default=32)
        p.add_argument("--triplets", type=int, default=600)
        p.add_argument("--noise-fraction", type=float, default=0.0, dest="noise_fraction")
        p.add_argument("--per-cluster", type=int, default=100)
        p.add_argument("--queries", type=int, default=200)

    # the `cmd_*` names are read at each call, so a function swapped on this module runs
    for add_arguments, func, help_text in (
        (ingest, cmd_ingest, "parse and validate an embedding table"),
        (validate, cmd_validate, "screen annotators via dummy samples"),
        (split, cmd_split, "build a source/target-aware evaluation split"),
        (train, cmd_train, "fit the projection with the triplet loss"),
        (eval_triplets, cmd_eval_triplets, "pair accuracy on consistent samples"),
        (eval_attributes, cmd_eval_attributes, "attribute-group classification metrics"),
        (select, cmd_select, "recommend dissimilar face-swap sources"),
        (gradcheck, cmd_gradcheck, "finite-difference audit of the loss gradient"),
        (synth, cmd_synth, "generate a synthetic corpus"),
    ):
        name = add_arguments.__name__.replace("_", "-")
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the first word that is not an option names the subcommand; argparse rejects any other
    args = build_parser(next((a for a in argv if not a.startswith("-")), "")).parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleSplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (FacesimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
