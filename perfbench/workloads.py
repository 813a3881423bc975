"""The benchmark's workloads: inputs, the timed CLI pass, and output checks.

Each workload writes its inputs from the seed during set-up, runs facesim's
public CLI in-process on the generated files, and checks the outputs. facesim
itself only ever sees the generated CSV/JSON files.

A workload exposes:
- `setup()`: one repetition of input generation (the runner repeats it);
- `commands()`: the CLI argument lists of one timed pass;
- `check(rcs)`: the failed operations of the pass just run, by label;
- `after_pass()`: untimed-by-pass library work (select-attributes only);
- `stages(times)`: stage figures from the pass's per-command wall times;
- `per_item`: denominators for the traced per-item call counts;
- `seed_counts`: the names in `tracer.SEED_COUNTS` the workload exercises.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from time import perf_counter

import numpy as np

from facesim import attributes, cli, corpus, selector, synth
from facesim.metric import ProjectionModel

SIZES = {
    # Full sizes keep one pass near 1.5-3 s on one core, so a run of
    # 30 seconds holds 8-15 passes to take medians over. The
    # accuracy floors are acceptance criteria 4 and 8 of the test suite.
    "full": {
        "train-planted": {"triplets": 1500, "dim": 64, "epochs": 30, "min_accuracy": 0.85},
        "select-attributes": {
            "per_cluster": 150, "queries": 40, "dim": 128, "min_accuracy": 0.95,
        },
        "corpus-io": {"triplets": 500, "dim": 512},
    },
    # A smoke run of every code path in a few seconds per workload. The
    # candidate groups keep their full size, so the per-query call counts
    # match `tracer.SEED_COUNTS`. Three epochs on 200 triplets cannot reach
    # the full-size floor, so tiny runs only require better than chance.
    "tiny": {
        "train-planted": {"triplets": 200, "dim": 64, "epochs": 3, "min_accuracy": 0.5},
        "select-attributes": {
            "per_cluster": 150, "queries": 12, "dim": 128, "min_accuracy": 0.95,
        },
        "corpus-io": {"triplets": 60, "dim": 64},
    },
}


class SetupError(RuntimeError):
    """Set-up failed; the run cannot measure anything."""


def _cli(argv) -> None:
    rc = cli.run(argv)
    if rc != 0:
        raise SetupError(f"set-up command {argv[0]} exited {rc}")


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""
    # the `tracer.SEED_COUNTS` this workload exercises
    seed_counts = ()

    def __init__(self, work_dir: str, seed: int, size: dict):
        self.dir = work_dir
        self.seed = seed
        self.size = size
        self.per_item = {"query": 0, "triplet": 0, "triplet_epoch": 0}
        self.active_fraction = 0.0

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def corpus_inputs(self) -> list:
        """The triplet-corpus arguments shared by split, train and eval-triplets."""
        return [
            "--embeddings", self.path("embeddings.csv"),
            "--manifest", self.path("manifest.csv"),
            "--annotations", self.path("annotations.csv"),
        ]

    def after_pass(self):
        """Library work done between passes: (operations attempted, failed labels)."""
        return 0, []

    def latencies_ms(self) -> list:
        return []


class TrainPlanted(Workload):
    """split -> train -> eval-triplets on a planted-metric corpus."""

    name = "train-planted"
    seed_counts = (
        "trainer.triplet_loss.calls_per_triplet_epoch",
        "evaluator.similarity_score.calls_per_triplet",
    )

    def setup(self) -> None:
        _cli([
            "synth", "--preset", "planted", "--seed", str(self.seed),
            "--out-dir", self.dir, "--triplets", str(self.size["triplets"]),
            "--dim", str(self.size["dim"]), "--noise-fraction", "0.1",
        ])
        self._model_bytes = None
        self._counted = False

    def commands(self):
        part = self.path("partition.json")
        return [
            ("split", ["split", *self.corpus_inputs(), "--mode", "i", "--out", part]),
            ("train", [
                "train", *self.corpus_inputs(), "--partition", part,
                "--epochs", str(self.size["epochs"]),
                "--out", self.path("model.json"), "--history", self.path("history.csv"),
            ]),
            ("eval-triplets", [
                "eval-triplets", *self.corpus_inputs(), "--partition", part,
                "--model", self.path("model.json"),
                "--report", self.path("eval.json"), "--scatter", self.path("scatter.csv"),
            ]),
        ]

    def _count_inputs(self) -> None:
        """Triplet counts behind the throughputs, recomputed with the library."""
        manifest = corpus.load_manifest(self.path("manifest.csv"))
        annotations = corpus.load_annotations(self.path("annotations.csv"))
        samples = corpus.aggregate_triplets(
            manifest, annotations, corpus.validate_annotators(annotations)
        )
        d2 = {s.triplet_id for s in corpus.build_datasets(samples)["D2"]}
        partition = corpus.DatasetPartition.load(self.path("partition.json"))
        self.n_admitted = sum(s.admitted for s in samples)
        self.n_train = len(d2.intersection(partition.train))
        self.n_val = len(d2.intersection(partition.val))
        epochs = self.size["epochs"]
        self.per_item["triplet_epoch"] = self.n_train * epochs
        self._counted = True

    def check(self, rcs):
        failed = [label for label, rc in rcs.items() if rc != 0]
        if failed:
            return failed
        if not self._counted:
            self._count_inputs()
        with open(self.path("scatter.csv"), "r", encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        self.n_test = len(rows)
        self.accuracy = sum(r.endswith(",true") for r in rows) / len(rows)
        self.per_item["triplet"] = self.n_val * self.size["epochs"] + self.n_test
        if self.accuracy < self.size["min_accuracy"]:
            failed.append("eval-triplets")
        with open(self.path("model.json"), "rb") as fh:
            model_bytes = fh.read()
        if self._model_bytes is None:
            self._model_bytes = model_bytes
        with open(self.path("history.csv"), "r", encoding="utf-8") as fh:
            history = fh.read().splitlines()
        if model_bytes != self._model_bytes or len(history) != self.size["epochs"] + 1:
            failed.append("train")
        else:
            self.active_fraction = float(history[-1].rsplit(",", 1)[1])
        return failed

    def stages(self, times):
        return {
            "train.triplet_epochs_per_s": self.per_item["triplet_epoch"] / times["train"],
            "eval_triplets.triplets_per_s": self.n_test / times["eval-triplets"],
            "eval_triplets.accuracy": self.accuracy,
            "split.triplets_per_s": self.n_admitted / times["split"],
        }


class SelectAttributes(Workload):
    """eval-attributes -> select --ranking, then library `recommend` per query."""

    name = "select-attributes"
    seed_counts = (
        "attributes.group_distance.calls_per_query",
        "selector.rank_candidates.calls_per_query",
        "selector.similarity_score.calls_per_query",
    )

    def setup(self) -> None:
        dim = self.size["dim"]
        _cli([
            "synth", "--preset", "clustered-attributes", "--seed", str(self.seed),
            "--out-dir", self.dir, "--per-cluster", str(self.size["per_cluster"]),
            "--queries", str(self.size["queries"]), "--dim", str(dim),
        ])
        rng = np.random.default_rng(self.seed)
        ProjectionModel(np.eye(dim) + 0.05 * rng.normal(size=(dim, dim))).save(
            self.path("model.json")
        )
        # pre-loaded state for the library-path latency loop
        self.model = ProjectionModel.load(self.path("model.json"))
        self.queries = list(corpus.load_embeddings(self.path("queries.csv")))
        self.groups = attributes.build_groups(
            list(corpus.load_embeddings(self.path("candidates.csv")))
        )
        self.per_item["query"] = len(self.queries)
        self._recommendations = None
        self._latencies = []

    def commands(self):
        common = ["--model", self.path("model.json"), "--candidates", self.path("candidates.csv")]
        return [
            ("eval-attributes", [
                "eval-attributes", *common, "--queries", self.path("queries.csv"),
                "--task", "four-way", "--report", self.path("attributes.json"),
            ]),
            ("select", [
                "select", *common, "--query", self.path("queries.csv"), "--k", "5",
                "--out", self.path("recommendations.json"),
                "--ranking", self.path("ranking.csv"),
            ]),
        ]

    def check(self, rcs):
        failed = [label for label, rc in rcs.items() if rc != 0]
        if failed:
            return failed
        self.accuracy = _read_json(self.path("attributes.json"))["accuracy"]
        if self.accuracy < self.size["min_accuracy"]:
            failed.append("eval-attributes")
        recs = _read_json(self.path("recommendations.json"))["recommendations"]
        if self._recommendations is None:
            self._recommendations = recs
        if recs != self._recommendations or len(recs) != len(self.queries):
            failed.append("select")
        return failed

    def after_pass(self):
        expected_all = self._recommendations or [None] * len(self.queries)
        failed = []
        for query, expected in zip(self.queries, expected_all):
            start = perf_counter()
            rec = selector.recommend(self.model, query, self.groups, k=5)
            self._latencies.append((perf_counter() - start) * 1e3)
            if rec.to_json() != expected:
                failed.append(f"recommend:{query.image_id}")
        return len(self.queries), failed

    def latencies_ms(self):
        return self._latencies

    def stages(self, times):
        n = len(self.queries)
        return {
            "eval_attributes.queries_per_s": n / times["eval-attributes"],
            "eval_attributes.accuracy": self.accuracy,
            "select.queries_per_s": n / times["select"],
        }


class CorpusIO(Workload):
    """synth -> ingest -> validate -> split i/ii/iii at face-embedding width."""

    name = "corpus-io"
    MODES = ("i", "ii", "iii")

    def setup(self) -> None:
        # the same corpus `synth` writes in every pass, kept in memory to
        # check the CSV round trip and to audit the partitions from outside
        dim = self.size["dim"]
        self.reference = synth.planted(
            seed=self.seed,
            n_triplets=self.size["triplets"],
            dim=dim,
            data_subspace=min(12, dim),
            noise_fraction=0.2,
        )
        annotations = self.reference.annotations
        self.samples = corpus.aggregate_triplets(
            self.reference.manifest, annotations, corpus.validate_annotators(annotations)
        )
        self.n_admitted = sum(s.admitted for s in self.samples)
        self.rows = len(self.reference.table)
        self._hashes = None

    def commands(self):
        cmds = [
            ("synth", [
                "synth", "--preset", "planted", "--seed", str(self.seed),
                "--out-dir", self.dir, "--triplets", str(self.size["triplets"]),
                "--dim", str(self.size["dim"]), "--noise-fraction", "0.2",
            ]),
            ("ingest", [
                "ingest", "--embeddings", self.path("embeddings.csv"),
                "--report", self.path("ingest.json"),
            ]),
            ("validate", ["validate", "--annotations", self.path("annotations.csv")]),
        ]
        for mode in self.MODES:
            cmds.append((f"split-{mode}", [
                "split", *self.corpus_inputs(), "--mode", mode,
                "--out", self.path(f"partition_{mode}.json"),
            ]))
        return cmds

    def _round_trip_ok(self) -> bool:
        loaded = corpus.load_embeddings(self.path("embeddings.csv"))
        if len(loaded) != self.rows:
            return False
        for rec in self.reference.table:
            got = loaded[rec.image_id] if rec.image_id in loaded else None
            if got is None or (
                got.identity_id, got.role, got.target_id, got.gender, got.age_group
            ) != (rec.identity_id, rec.role, rec.target_id, rec.gender, rec.age_group):
                return False
            if not np.array_equal(got.vector, rec.vector):
                return False
        return True

    def check(self, rcs):
        failed = [label for label, rc in rcs.items() if rc != 0]
        if failed:
            return failed
        hashes = {
            name: _sha256(self.path(name))
            for name in ("embeddings.csv", "manifest.csv", "annotations.csv")
        }
        if self._hashes is None:
            self._hashes = hashes
            if not self._round_trip_ok():
                failed.append("synth")
        if hashes != self._hashes:
            failed.append("synth")
        report = _read_json(self.path("ingest.json"))
        if report["records"] != self.rows or report["dim"] != self.size["dim"]:
            failed.append("ingest")
        for mode in self.MODES:
            partition = corpus.DatasetPartition.load(self.path(f"partition_{mode}.json"))
            violations = corpus.audit_partition(self.samples, self.reference.table, partition)
            if violations or partition.mode != mode or not partition.test:
                failed.append(f"split-{mode}")
        return failed

    def stages(self, times):
        return {
            "synth.rows_per_s": self.rows / times["synth"],
            "ingest.rows_per_s": self.rows / times["ingest"],
            "split.triplets_per_s": statistics.median(
                self.n_admitted / times[f"split-{m}"] for m in self.MODES
            ),
        }


WORKLOADS = {w.name: w for w in (TrainPlanted, SelectAttributes, CorpusIO)}
