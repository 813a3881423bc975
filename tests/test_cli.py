import csv
import dataclasses
import json

import numpy as np
import pytest

from facesim import attributes, cli, corpus, synth, trainer
from facesim.metric import ProjectionModel


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted")
    synth.planted(seed=21, n_triplets=120, dim=8, data_subspace=6, truth_rank=2).write(out)
    return out


@pytest.fixture(scope="module")
def clustered_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clustered")
    synth.clustered_attributes(seed=6, per_cluster=20, n_queries=12, dim=8).write(out)
    return out


def corpus_args(d):
    return [
        "--embeddings", str(d / "embeddings.csv"),
        "--manifest", str(d / "manifest.csv"),
        "--annotations", str(d / "annotations.csv"),
    ]


class TestBasicCommands:
    def test_ingest(self, planted_dir, tmp_path, capsys):
        report = tmp_path / "ingest.json"
        code = cli.run(["ingest", "--embeddings", str(planted_dir / "embeddings.csv"),
                        "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["dim"] == 8
        assert payload["run_config"]["artifact_version"]
        assert "ingested" in capsys.readouterr().out

    def test_validate(self, planted_dir, tmp_path):
        report = tmp_path / "validate.json"
        code = cli.run(["validate", "--annotations", str(planted_dir / "annotations.csv"),
                        "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["valid_annotators"] == sorted(synth.ANNOTATORS)

    def test_gradcheck(self, capsys):
        assert cli.run(["gradcheck", "--dim", "4", "--probes", "5"]) == 0
        out = capsys.readouterr().out
        assert float(out.rsplit(" ", 1)[1]) <= 1e-4

    def test_synth_roundtrip(self, tmp_path):
        out = tmp_path / "gen"
        code = cli.run(["synth", "--preset", "planted", "--seed", "3",
                        "--triplets", "30", "--dim", "8", "--out-dir", str(out)])
        assert code == 0
        assert (out / "embeddings.csv").exists() and (out / "truth_model.json").exists()


class TestPipeline:
    def test_split_train_eval(self, planted_dir, tmp_path, capsys):
        partition = tmp_path / "partition.json"
        assert cli.run(["split", *corpus_args(planted_dir), "--mode", "i",
                        "--seed", "4", "--out", str(partition)]) == 0

        model = tmp_path / "model.json"
        history = tmp_path / "history.csv"
        assert cli.run(["train", *corpus_args(planted_dir),
                        "--partition", str(partition), "--epochs", "5",
                        "--out", str(model), "--history", str(history)]) == 0
        assert ProjectionModel.load(model).dim == 8
        assert history.read_text().startswith("epoch,mean_loss,val_accuracy,active_fraction")

        report = tmp_path / "eval.json"
        scatter = tmp_path / "scatter.csv"
        assert cli.run(["eval-triplets", *corpus_args(planted_dir),
                        "--model", str(model), "--partition", str(partition),
                        "--report", str(report), "--scatter", str(scatter)]) == 0
        payload = json.loads(report.read_text())
        assert 0.0 <= payload["accuracy_mean"] <= 1.0
        assert payload["accuracy_sd"] == 0.0
        assert scatter.read_text().splitlines()[0] == (
            "triplet_id,sim_pair_score,dissim_pair_score,correct"
        )

    def test_eval_repeats_report_mean_and_sd(self, planted_dir, tmp_path):
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        assert cli.run(["train", *corpus_args(planted_dir), "--epochs", "2",
                        "--seed", "1", "--out", str(m1)]) == 0
        assert cli.run(["train", *corpus_args(planted_dir), "--epochs", "2",
                        "--seed", "2", "--out", str(m2)]) == 0
        report = tmp_path / "repeat.json"
        assert cli.run(["eval-triplets", *corpus_args(planted_dir),
                        "--model", str(m1), "--model", str(m2),
                        "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert len(payload["models"]) == 2
        accs = [m["accuracy"] for m in payload["models"]]
        assert payload["accuracy_mean"] == pytest.approx(sum(accs) / 2, abs=1e-3)

    def test_eval_attributes_and_select(self, clustered_dir, tmp_path):
        model = tmp_path / "identity.json"
        ProjectionModel.identity(8).save(model)

        report = tmp_path / "attr.json"
        distances = tmp_path / "distances.csv"
        assert cli.run(["eval-attributes", "--model", str(model),
                        "--candidates", str(clustered_dir / "candidates.csv"),
                        "--queries", str(clustered_dir / "queries.csv"),
                        "--report", str(report), "--distances", str(distances)]) == 0
        payload = json.loads(report.read_text())
        assert payload["accuracy"] >= 0.9
        assert distances.read_text().splitlines()[0] == "query_id,group,n,mean_d,sd_d,upper"

        out = tmp_path / "select.json"
        ranking = tmp_path / "ranking.csv"
        assert cli.run(["select", "--model", str(model),
                        "--candidates", str(clustered_dir / "candidates.csv"),
                        "--query", str(clustered_dir / "queries.csv"),
                        "--k", "3", "--out", str(out), "--ranking", str(ranking)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["recommendations"]) == 12
        first = payload["recommendations"][0]
        assert len(first["candidates"]) == 3
        sims = [c["similarity"] for c in first["candidates"]]
        assert sims == sorted(sims)

    def test_ranking_csv_ends_in_recommendations(self, clustered_dir, tmp_path):
        model = tmp_path / "identity.json"
        ProjectionModel.identity(8).save(model)
        out, ranking = tmp_path / "select.json", tmp_path / "ranking.csv"
        assert cli.run(["select", "--model", str(model),
                        "--candidates", str(clustered_dir / "candidates.csv"),
                        "--query", str(clustered_dir / "queries.csv"), "--k", "4",
                        "--group-mode", "all", "--out", str(out),
                        "--ranking", str(ranking)]) == 0
        with open(ranking) as fh:
            rows = list(csv.DictReader(fh))
        recommendations = json.loads(out.read_text())["recommendations"]
        assert len(recommendations) == 12
        for rec in recommendations:
            own = [r for r in rows if r["query_id"] == rec["query_id"]]
            assert {r["group"] for r in own} == {rec["selected_group"]}
            assert [int(r["rank"]) for r in own] == list(range(1, len(own) + 1))
            bottom = [
                {"image_id": r["image_id"], "similarity": float(r["similarity"]),
                 "rank": int(r["rank"])}
                for r in reversed(own[-4:])
            ]
            assert bottom == rec["candidates"]

    def test_distances_csv_equals_group_distance(self, clustered_dir, tmp_path):
        self._check_distances_csv(clustered_dir, tmp_path, use_t=False)

    def test_distances_csv_honours_student_t(self, clustered_dir, tmp_path):
        self._check_distances_csv(clustered_dir, tmp_path, use_t=True)

    @staticmethod
    def _check_distances_csv(clustered_dir, tmp_path, use_t):
        model_path = tmp_path / "model.json"
        rng = np.random.default_rng(8)
        ProjectionModel(np.eye(8) + 0.1 * rng.normal(size=(8, 8))).save(model_path)
        distances = tmp_path / "distances.csv"
        assert cli.run(["eval-attributes", "--model", str(model_path),
                        "--candidates", str(clustered_dir / "candidates.csv"),
                        "--queries", str(clustered_dir / "queries.csv"),
                        "--report", str(tmp_path / "attr.json"),
                        "--distances", str(distances)]
                       + (["--student-t"] if use_t else [])) == 0
        model = ProjectionModel.load(model_path)
        groups = attributes.build_groups(
            list(corpus.load_embeddings(clustered_dir / "candidates.csv"))
        )
        queries = {q.image_id: q for q in corpus.load_embeddings(clustered_dir / "queries.csv")}
        with open(distances) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(queries) * len(attributes.ALL_GROUPS)
        for row in rows:
            r = attributes.group_distance(
                model, queries[row["query_id"]], groups[row["group"]], use_t=use_t
            )
            assert (int(row["n"]), float(row["mean_d"]), float(row["sd_d"]),
                    float(row["upper"])) == (r.n, r.mean_d, r.sd_d, r.upper)

    def test_distances_score_each_query_against_each_group_once(
        self, clustered_dir, tmp_path, monkeypatch
    ):
        scored, projected = [], []

        def counting(fn, log):
            def wrapper(*args):
                result = fn(*args)
                log.append(len(result))
                return result
            return wrapper

        monkeypatch.setattr(attributes, "scaled_cosine",
                            counting(attributes.scaled_cosine, scored))
        monkeypatch.setattr(attributes, "project_records",
                            counting(attributes.project_records, projected))
        model = tmp_path / "identity.json"
        ProjectionModel.identity(8).save(model)
        assert cli.run(["eval-attributes", "--model", str(model),
                        "--candidates", str(clustered_dir / "candidates.csv"),
                        "--queries", str(clustered_dir / "queries.csv"),
                        "--report", str(tmp_path / "attr.json"),
                        "--distances", str(tmp_path / "distances.csv")]) == 0
        # each distinct candidate is projected once (the unions reuse their
        # intersections' rows), then each query; each query is scored once
        # against all of them
        n_candidates = len(corpus.load_embeddings(clustered_dir / "candidates.csv"))
        n_queries = len(corpus.load_embeddings(clustered_dir / "queries.csv"))
        assert projected == [n_candidates, n_queries] == [80, 12]
        assert scored == [n_candidates] * n_queries

    def test_select_single_query_id(self, clustered_dir, tmp_path):
        model = tmp_path / "identity.json"
        ProjectionModel.identity(8).save(model)
        out = tmp_path / "one.json"
        queries = (clustered_dir / "queries.csv").read_text().splitlines()
        query_id = queries[1].split(",")[0]
        assert cli.run(["select", "--model", str(model),
                        "--candidates", str(clustered_dir / "candidates.csv"),
                        "--query", str(clustered_dir / "queries.csv"),
                        "--query-id", query_id, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [r["query_id"] for r in payload["recommendations"]] == [query_id]


def _invalid_utf8(data: bytes) -> bytes:
    return data[:40] + b"\xff\xfe" + data[40:]


def _oversized_field(data: bytes) -> bytes:
    """The first row's first field replaced by one over the csv module's field limit."""
    header, rest = data.split(b"\n", 1)
    return header + b"\n" + b"x" * 200_000 + rest[rest.index(b","):]


def _rewrite_ids(path, columns, suffix):
    """Append `suffix` to every value of `columns` in the CSV at `path`."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows({k: v + suffix if k in columns else v for k, v in r.items()}
                         for r in rows)


class TestCsvQuoting:
    SUFFIX = ',"x'

    def _rows(self, path, id_column):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert rows and all(len(r) == len(header) for r in rows)
        ids = [r[header.index(id_column)] for r in rows]
        assert all(i.endswith(self.SUFFIX) for i in ids)
        return ids

    def test_ids_with_comma_and_quote_stay_one_field(self, tmp_path):
        planted = tmp_path / "planted"
        synth.planted(seed=21, n_triplets=60, dim=8, data_subspace=6, truth_rank=2).write(planted)
        for name in ("manifest.csv", "annotations.csv"):
            _rewrite_ids(planted / name, {"triplet_id"}, self.SUFFIX)
        clustered = tmp_path / "clustered"
        synth.clustered_attributes(seed=6, per_cluster=20, n_queries=6, dim=8).write(clustered)
        for name in ("candidates.csv", "queries.csv"):
            _rewrite_ids(clustered / name, {"image_id"}, self.SUFFIX)
        model = tmp_path / "identity.json"
        ProjectionModel.identity(8).save(model)

        scatter = tmp_path / "scatter.csv"
        assert cli.run(["eval-triplets", *corpus_args(planted), "--model", str(model),
                        "--report", str(tmp_path / "eval.json"),
                        "--scatter", str(scatter)]) == 0
        manifest = corpus.load_manifest(planted / "manifest.csv")
        assert set(self._rows(scatter, "triplet_id")) <= set(manifest)

        common = ["--model", str(model), "--candidates", str(clustered / "candidates.csv")]
        distances, ranking = tmp_path / "distances.csv", tmp_path / "ranking.csv"
        assert cli.run(["eval-attributes", *common, "--queries", str(clustered / "queries.csv"),
                        "--report", str(tmp_path / "attr.json"),
                        "--distances", str(distances)]) == 0
        assert cli.run(["select", *common, "--query", str(clustered / "queries.csv"),
                        "--out", str(tmp_path / "select.json"),
                        "--ranking", str(ranking)]) == 0
        queries = {q.image_id for q in corpus.load_embeddings(clustered / "queries.csv")}
        candidates = {c.image_id for c in corpus.load_embeddings(clustered / "candidates.csv")}
        assert set(self._rows(distances, "query_id")) == queries
        assert set(self._rows(ranking, "query_id")) == queries
        assert set(self._rows(ranking, "image_id")) <= candidates


class TestDefaults:
    def test_parser_defaults_come_from_the_library(self):
        parser = cli.build_parser()
        inputs = ["--embeddings", "e.csv", "--manifest", "m.csv", "--annotations", "a.csv",
                  "--out", "out.json"]
        train = parser.parse_args(["train", *inputs])
        assert trainer.TrainConfig(**{
            f.name: getattr(train, f.name) for f in dataclasses.fields(trainer.TrainConfig)
        }) == trainer.TrainConfig()
        split = parser.parse_args(["split", *inputs, "--mode", "i"])
        assert tuple(split.ratios) == corpus.DEFAULT_SPLIT_RATIOS
        assert train.min_votes == split.min_votes == corpus.MIN_VALID_VOTES


class TestDeterminism:
    def test_same_seed_byte_identical_model(self, planted_dir, tmp_path):
        m1, m2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["train", *corpus_args(planted_dir), "--epochs", "3", "--seed", "7"]
        assert cli.run(argv + ["--out", str(m1)]) == 0
        assert cli.run(argv + ["--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_same_seed_identical_partition(self, planted_dir, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["split", *corpus_args(planted_dir), "--mode", "ii", "--seed", "9"]
        assert cli.run(argv + ["--out", str(p1)]) == 0
        assert cli.run(argv + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["split", "--mode", "iv"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_file_is_3(self, tmp_path, capsys):
        code = cli.run(["ingest", "--embeddings", str(tmp_path / "absent.csv")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("image_id,identity_id\nx,y\n")
        assert cli.run(["ingest", "--embeddings", str(bad)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "arg, mutate",
        [
            ("model", lambda data: b"5\n"),
            ("model", lambda data: b"[" * 100_000),
            ("model", _invalid_utf8),
            ("partition", _invalid_utf8),
            ("embeddings", _invalid_utf8),
            ("annotations", _invalid_utf8),
            ("embeddings", _oversized_field),
        ],
        ids=["model-not-object", "model-nested-too-deep", "model-not-utf8", "partition-not-utf8",
             "embeddings-not-utf8", "annotations-not-utf8", "oversized-field"],
    )
    def test_unreadable_input_is_3(self, planted_dir, tmp_path, capsys, arg, mutate):
        files = {name: planted_dir / f"{name}.csv"
                 for name in ("embeddings", "manifest", "annotations")}
        files["model"], files["partition"] = tmp_path / "model.json", tmp_path / "partition.json"
        ProjectionModel.identity(8).save(files["model"])
        assert cli.run(["split", *corpus_args(planted_dir), "--mode", "i",
                        "--out", str(files["partition"])]) == 0
        bad = tmp_path / f"bad{files[arg].suffix}"
        bad.write_bytes(mutate(files[arg].read_bytes()))
        files[arg] = bad
        code = cli.run(["train", *(f"--{k}={v}" for k, v in files.items()),
                        "--epochs", "1", "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert str(bad) in capsys.readouterr().err

    def test_divergence_is_4(self, planted_dir, tmp_path, capsys):
        code = cli.run(["train", *corpus_args(planted_dir), "--epochs", "50",
                        "--learning-rate", "1e18", "--weight-decay", "1e18",
                        "--out", str(tmp_path / "m.json")])
        assert code == 4
        capsys.readouterr()

    @pytest.mark.parametrize(
        "text",
        [
            '{"mode": "i", "ratios": [0.7, 0.1, 0.2], "train": [], "val": [], "test": []}',
            '{"mode": "i", "seed": ',
        ],
        ids=["missing-seed", "invalid-json"],
    )
    def test_bad_partition_is_3(self, planted_dir, tmp_path, capsys, text):
        partition = tmp_path / "p.json"
        partition.write_text(text)
        code = cli.run(["train", *corpus_args(planted_dir), "--partition", str(partition),
                        "--epochs", "1", "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert str(partition) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval-triplets"])
    def test_non_list_partition_ids_are_3(self, planted_dir, tmp_path, capsys, command):
        partition = tmp_path / "p.json"
        partition.write_text(json.dumps(
            {"mode": "i", "seed": 0, "ratios": [0.7, 0.1, 0.2],
             "train": 5, "val": [], "test": []}
        ))
        code = cli.run(self._partition_argv(command, planted_dir, tmp_path, partition))
        assert code == 3
        assert f"{partition}: 'train'" in capsys.readouterr().err

    @staticmethod
    def _partition_argv(command, planted_dir, tmp_path, partition):
        argv = [command, *corpus_args(planted_dir), "--partition", str(partition)]
        if command == "train":
            return argv + ["--epochs", "1", "--out", str(tmp_path / "m.json")]
        model = tmp_path / "identity.json"
        ProjectionModel.identity(8).save(model)
        return argv + ["--model", str(model), "--report", str(tmp_path / "r.json")]

    @pytest.mark.parametrize(
        "command, split, ids",
        [
            ("train", "train", ["nope"]),
            ("eval-triplets", "test", ["nope"]),
            ("train", "val", "mixed"),
            ("eval-triplets", "test", "mixed"),
        ],
        ids=["train-unknown", "test-unknown", "val-mixed", "test-mixed"],
    )
    def test_unknown_partition_ids_are_3(
        self, planted_dir, tmp_path, capsys, command, split, ids
    ):
        partition = tmp_path / "p.json"
        assert cli.run(["split", *corpus_args(planted_dir), "--mode", "i",
                        "--out", str(partition)]) == 0
        payload = json.loads(partition.read_text())
        payload[split] = (
            ids if ids != "mixed" else payload[split][:2] + ["nope"] + payload[split][2:]
        )
        partition.write_text(json.dumps(payload))
        code = cli.run(self._partition_argv(command, planted_dir, tmp_path, partition))
        assert code == 3
        assert f"{split} id 'nope'" in capsys.readouterr().err

    def test_unknown_model_version_is_3(self, planted_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(
            {"version": "facesim-projection-9", "dim": 8, "weight": [0.0] * 64}
        ))
        code = cli.run(["eval-triplets", *corpus_args(planted_dir), "--model", str(model),
                        "--report", str(tmp_path / "r.json")])
        assert code == 3
        assert "facesim-projection-9" in capsys.readouterr().err

    def test_non_numeric_model_weight_is_3(self, planted_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"version": "v", "dim": 8, "weight": ["a"] * 64}))
        code = cli.run(["train", *corpus_args(planted_dir), "--model", str(model),
                        "--epochs", "1", "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert str(model) in capsys.readouterr().err

    def test_model_dimension_mismatch_is_3(self, planted_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        ProjectionModel.identity(4).save(model)
        code = cli.run(["train", *corpus_args(planted_dir), "--model", str(model),
                        "--epochs", "1", "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "dimension" in capsys.readouterr().err

    def test_infeasible_split_is_5(self, tmp_path, capsys):
        # a single distinct target makes source-knowledge splitting impossible
        single = tmp_path / "single"
        c = synth.planted(seed=2, n_triplets=20, dim=8, data_subspace=6,
                          truth_rank=2, n_targets=1)
        c.write(single)
        code = cli.run(["split", *corpus_args(single), "--mode", "iii",
                        "--out", str(tmp_path / "p.json")])
        assert code == 5
        assert "error:" in capsys.readouterr().err
