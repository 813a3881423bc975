"""Command-line entry point for reproducible experiment runs.

Every subcommand is deterministic given its seed, and every JSON report
embeds the exact run configuration that produced it.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numerical
divergence, 5 infeasible split.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import List, Optional

import numpy as np

from . import __version__, attributes, corpus, evaluator, selector, synth, trainer
from .errors import (
    DataError,
    DivergenceError,
    FacesimError,
    InfeasibleSplitError,
    IntegrityError,
)
from .metric import ProjectionModel

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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _load_samples(args) -> tuple:
    table = corpus.load_embeddings(args.embeddings)
    manifest = corpus.load_manifest(args.manifest)
    annotations = corpus.load_annotations(args.annotations)
    valid = corpus.validate_annotators(annotations)
    samples = corpus.aggregate_triplets(
        manifest, annotations, valid, min_votes=getattr(args, "min_votes", 3)
    )
    return table, samples


def _load_partition(path: str, samples) -> corpus.DatasetPartition:
    """The partition at `path`, checked to name only triplets of the corpus."""
    partition = corpus.DatasetPartition.load(path)
    known = {s.triplet_id for s in samples}
    for split in ("train", "val", "test"):
        unknown = next((t for t in getattr(partition, split) if t not in known), None)
        if unknown is not None:
            raise IntegrityError(
                f"partition file {path}: {split} id '{unknown}' is not a triplet of the corpus"
            )
    return partition


def _in_split(pool, partition: corpus.DatasetPartition, split: str):
    wanted = set(getattr(partition, split))
    return [s for s in pool if s.triplet_id in wanted]


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    table = corpus.load_embeddings(args.embeddings)
    roles = {}
    for rec in table:
        roles[rec.role] = roles.get(rec.role, 0) + 1
    body = {"records": len(table), "dim": table.dim, "roles": roles}
    if args.report:
        _write_report(args.report, args, body)
    print(f"ingested {len(table)} records (d={table.dim})")
    return EXIT_OK


def cmd_validate(args) -> int:
    annotations = corpus.load_annotations(args.annotations)
    valid = sorted(corpus.validate_annotators(annotations))
    annotators = sorted({a.annotator_id for a in annotations})
    body = {"annotators": len(annotators), "valid_annotators": valid}
    if args.report:
        _write_report(args.report, args, body)
    print(f"{len(valid)}/{len(annotators)} annotators passed dummy-sample screening")
    return EXIT_OK


def cmd_split(args) -> int:
    table, samples = _load_samples(args)
    corpus.verify_target_consistency([s for s in samples if s.admitted], table)
    partition = corpus.split_eval(
        samples, table, args.mode, ratios=tuple(args.ratios), seed=args.seed
    )
    partition.save(args.out)
    print(
        f"mode [{args.mode}] split: {len(partition.train)} train,"
        f" {len(partition.val)} val, {len(partition.test)} test -> {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    table, samples = _load_samples(args)
    datasets = corpus.build_datasets(samples)
    pool = datasets[args.dataset]
    train_samples, val_samples = pool, []
    if args.partition:
        partition = _load_partition(args.partition, samples)
        train_samples = _in_split(pool, partition, "train")
        val_samples = _in_split(pool, partition, "val")
    if args.model:
        model = ProjectionModel.load(args.model)
    else:
        model = ProjectionModel.identity(table.dim)
    config = trainer.TrainConfig(
        learning_rate=args.learning_rate,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        margin=args.margin,
        epochs=args.epochs,
        seed=args.seed,
        shuffle=not args.no_shuffle,
    )
    trained, history = trainer.train(model, train_samples, val_samples, table, config)
    trained.save(args.out)
    if args.history:
        history.save_csv(args.history)
    final_loss = history.mean_loss[-1] if history.mean_loss else float("nan")
    print(f"trained on {len(train_samples)} {args.dataset} triplets,"
          f" final mean loss {final_loss:.6f} -> {args.out}")
    return EXIT_OK


def cmd_eval_triplets(args) -> int:
    table, samples = _load_samples(args)
    datasets = corpus.build_datasets(samples)
    pool = datasets["D2"]
    if args.partition:
        pool = _in_split(pool, _load_partition(args.partition, samples), args.split)
    accuracies = []
    per_model = []
    records = None
    for model_path in args.model:
        model = ProjectionModel.load(model_path)
        accuracy, records = evaluator.eval_triplets(model, pool, table)
        accuracies.append(accuracy)
        per_model.append({"model": model_path, "accuracy": round(accuracy, 3)})
    body = {
        "samples": len(records),
        "models": per_model,
        "accuracy_mean": round(statistics.mean(accuracies), 3),
        "accuracy_sd": round(statistics.stdev(accuracies), 3) if len(accuracies) > 1 else 0.0,
    }
    _write_report(args.report, args, body)
    if args.scatter:
        evaluator.export_scatter(records, args.scatter)
    print(f"triplet accuracy {body['accuracy_mean']:.3f} over {len(records)} samples")
    return EXIT_OK


def cmd_eval_attributes(args) -> int:
    candidates = corpus.load_embeddings(args.candidates)
    queries = list(corpus.load_embeddings(args.queries))
    model = ProjectionModel.load(args.model)
    groups = attributes.build_groups(
        list(candidates), per_intersection=args.per_group, seed=args.seed
    )
    report = attributes.evaluate_classification(
        model, queries, groups, args.task, use_t=args.student_t
    )
    _write_report(args.report, args, report.to_json())
    if args.distances:
        with open(args.distances, "w", encoding="utf-8", newline="") as fh:
            fh.write("query_id,group,n,mean_d,sd_d,upper\n")
            table = attributes.group_distances(
                model, queries, [groups[name] for name in attributes.ALL_GROUPS]
            )
            for query, results in zip(queries, table):
                for r in results:
                    fh.write(
                        f"{query.image_id},{r.group},{r.n},{r.mean_d!r},{r.sd_d!r},{r.upper!r}\n"
                    )
    print(f"{args.task} accuracy {report.accuracy:.3f} over {len(queries)} queries")
    return EXIT_OK


def cmd_select(args) -> int:
    candidates = corpus.load_embeddings(args.candidates)
    queries = list(corpus.load_embeddings(args.query))
    if args.query_id is not None:
        queries = [q for q in queries if q.image_id == args.query_id]
        if not queries:
            raise DataError(f"query_id '{args.query_id}' not found in {args.query}")
    model = ProjectionModel.load(args.model)
    groups = attributes.build_groups(
        list(candidates), per_intersection=args.per_group, seed=args.seed
    )
    results = selector.recommend_batch(
        model, queries, groups, k=args.k, group_mode=args.group_mode
    )
    _write_report(args.out, args, {"recommendations": [rec.to_json() for rec, _ in results]})
    if args.ranking:
        with open(args.ranking, "w", encoding="utf-8", newline="") as fh:
            fh.write("query_id,group,rank,image_id,similarity\n")
            for rec, ranking in results:
                for cand in ranking:
                    fh.write(
                        f"{rec.query_id},{rec.selected_group},{cand.rank},"
                        f"{cand.image_id},{cand.similarity!r}\n"
                    )
    print(f"recommended {args.k} source candidates for {len(queries)} queries -> {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.probes):
        weight = np.eye(args.dim) + 0.1 * rng.normal(size=(args.dim, args.dim))
        model = ProjectionModel(weight)
        ref, pos, neg = (rng.normal(size=args.dim) for _ in range(3))
        err = trainer.gradient_check(model, ref, pos, neg, args.margin, step=args.step)
        worst = max(worst, err)
    print(f"max relative gradient error over {args.probes} probes: {worst:.3e}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.preset == "planted":
        data = synth.planted(
            seed=args.seed,
            n_triplets=args.triplets,
            dim=args.dim,
            data_subspace=min(12, args.dim),
            noise_fraction=args.noise_fraction,
        )
        data.write(args.out_dir)
        print(f"planted corpus with {args.triplets} triplets (d={args.dim}) -> {args.out_dir}")
    else:
        data = synth.clustered_attributes(
            seed=args.seed,
            per_cluster=args.per_cluster,
            n_queries=args.queries,
            dim=args.dim,
        )
        data.write(args.out_dir)
        print(
            f"clustered-attributes corpus ({args.per_cluster}/cluster,"
            f" {args.queries} queries) -> {args.out_dir}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--min-votes", type=int, default=3, dest="min_votes")

    p = sub.add_parser("ingest", help="parse and validate an embedding table")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("validate", help="screen annotators via dummy samples")
    p.add_argument("--annotations", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("split", help="build a source/target-aware evaluation split")
    add_corpus_inputs(p)
    p.add_argument("--mode", required=True, choices=["i", "ii", "iii"])
    p.add_argument("--ratios", type=float, nargs=3, default=[0.7, 0.1, 0.2])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="fit the projection with the triplet loss")
    add_corpus_inputs(p)
    p.add_argument("--dataset", choices=["D1", "D2"], default="D2")
    p.add_argument("--partition", help="partition JSON; restricts to its train/val")
    p.add_argument("--model", help="initial model (default: identity)")
    p.add_argument("--out", required=True)
    p.add_argument("--history", help="per-epoch CSV")
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=5e-4)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-shuffle", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-triplets", help="pair accuracy on consistent samples")
    add_corpus_inputs(p)
    p.add_argument(
        "--model",
        action="append",
        required=True,
        help="model path; repeat for mean±SD across models",
    )
    p.add_argument("--partition")
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--report", required=True)
    p.add_argument("--scatter")
    p.set_defaults(func=cmd_eval_triplets)

    p = sub.add_parser("eval-attributes", help="attribute-group classification metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--task", choices=["gender", "age", "four-way"], default="four-way")
    p.add_argument("--per-group", type=int, default=None, dest="per_group")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--student-t", action="store_true", dest="student_t")
    p.add_argument("--report", required=True)
    p.add_argument("--distances", help="per-query per-group distance CSV")
    p.set_defaults(func=cmd_eval_attributes)

    p = sub.add_parser("select", help="recommend dissimilar face-swap sources")
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
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the loss gradient")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--preset", required=True, choices=["planted", "clustered-attributes"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--triplets", type=int, default=600)
    p.add_argument("--noise-fraction", type=float, default=0.0, dest="noise_fraction")
    p.add_argument("--per-cluster", type=int, default=100)
    p.add_argument("--queries", type=int, default=200)
    p.set_defaults(func=cmd_synth)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleSplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FacesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
