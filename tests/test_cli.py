import csv
import dataclasses
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from facesim import attributes, cli, corpus, synth, trainer
from facesim.metric import ProjectionModel

import annotation_oracle
from blas_core import blas_core


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


def run_fresh(script: str) -> str:
    """The last line `script` prints in a fresh interpreter that imports facesim from here."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.splitlines()[-1]


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

    def test_train_with_no_epoch_says_so(self, planted_dir, tmp_path, capsys):
        # the identity baseline: the initial model, and no loss to report
        model, history = tmp_path / "model.json", tmp_path / "history.csv"
        assert cli.run(["train", *corpus_args(planted_dir), "--epochs", "0",
                        "--out", str(model), "--history", str(history)]) == 0
        assert capsys.readouterr().out == (
            f"trained on 120 D2 triplets, no epoch run, initial model kept -> {model}\n")
        ProjectionModel.identity(8).save(tmp_path / "identity.json")
        assert model.read_bytes() == (tmp_path / "identity.json").read_bytes()
        assert history.read_text() == "epoch,mean_loss,val_accuracy,active_fraction\n"

    def test_gradcheck(self, capsys):
        assert cli.run(["gradcheck", "--dim", "4", "--probes", "5"]) == 0
        out = capsys.readouterr().out
        assert float(out.rsplit(" ", 1)[1]) <= 1e-4

    @pytest.mark.parametrize("flag", ["--dim", "--probes"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_gradcheck_rejects_an_empty_check(self, flag, value, capsys):
        # a check over no probes, or over 0 x 0 weights, would report 0 error and pass
        assert cli.run(["gradcheck", flag, value]) == 3
        captured = capsys.readouterr()
        assert not captured.out and "got" in captured.err

    @pytest.mark.parametrize(
        "flag, value",
        [("--margin", "nan"), ("--margin", "inf"), ("--margin", "-5"), ("--step", "nan"),
         ("--step", "inf"), ("--step", "0"), ("--step", "-1")],
    )
    def test_gradcheck_rejects_a_check_that_checks_nothing(self, flag, value, capsys):
        # a NaN step or margin reports a meaningless number; a negative margin, no active hinge
        assert cli.run(["gradcheck", flag, value]) == 3
        captured = capsys.readouterr()
        assert not captured.out and f"got {value}" in captured.err

    def test_gradcheck_states_the_one_seed_rule(self, capsys):
        assert cli.run(["gradcheck", "--seed", "-2"]) == 3
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -2\n")

    def test_gradcheck_counts_only_active_probes(self, monkeypatch, capsys):
        checked = []

        def counting_check(model, ref, pos, neg, margin, step):
            checked.append(trainer.triplet_hinge(model.weight, ref, pos, neg, margin))
            return 0.0

        monkeypatch.setattr(trainer, "gradient_check", counting_check)
        assert cli.run(["gradcheck", "--probes", "20"]) == 0
        assert len(checked) == 20 and min(checked) > 0
        assert "over 20 active probes" in capsys.readouterr().out

    def test_gradcheck_that_runs_out_of_draws_is_3(self, monkeypatch, capsys):
        monkeypatch.setattr(trainer, "triplet_hinge", lambda *args: 0.0)
        assert cli.run(["gradcheck", "--probes", "2"]) == 3
        captured = capsys.readouterr()
        assert not captured.out
        assert f"0 of 2 probes with an active hinge in {2 * cli.GRADCHECK_DRAWS_PER_PROBE}" in (
            captured.err
        )

    @pytest.mark.parametrize("argv", [["synth", "--preset", "planted"],
                                      ["synth", "--preset", "clustered-attributes"],
                                      ["gradcheck"],
                                      ["split", "--mode", "iii"],
                                      ["train", "--epochs", "1"],
                                      ["eval-attributes", "--per-group", "3"],
                                      ["select", "--per-group", "3"]])
    def test_negative_seed_is_3(self, planted_dir, clustered_dir, tmp_path, capsys, argv):
        out = tmp_path / "gen"
        model = tmp_path / "identity.json"
        ProjectionModel.identity(8).save(model)
        attribute_inputs = ["--model", str(model),
                            "--candidates", str(clustered_dir / "candidates.csv")]
        extra = {
            "synth": ["--out-dir", str(out)],
            "split": [*corpus_args(planted_dir), "--out", str(out)],
            "train": [*corpus_args(planted_dir), "--out", str(out)],
            "eval-attributes": [*attribute_inputs, "--queries", str(clustered_dir / "queries.csv"),
                                "--report", str(out)],
            "select": [*attribute_inputs, "--query", str(clustered_dir / "queries.csv"),
                       "--out", str(out)],
        }.get(argv[0], [])
        assert cli.run([*argv, "--seed", "-1", *extra]) == 3
        captured = capsys.readouterr()
        assert not captured.out and not out.exists()
        assert re.fullmatch(r"error: .*>= 0, got -1\n", captured.err)

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

    def test_triplet_commands_build_no_records(self, planted_dir, tmp_path, monkeypatch):
        """synth, split, train, eval-triplets and ingest read or fill the table's columns and
        matrix only."""
        built = []
        init = corpus.EmbeddingRecord.__init__

        def counting(record, *args, **kwargs):
            init(record, *args, **kwargs)
            built.append(record.image_id)

        monkeypatch.setattr(corpus.EmbeddingRecord, "__init__", counting)
        part, model = str(tmp_path / "p.json"), str(tmp_path / "m.json")
        for argv in (
            ["split", *corpus_args(planted_dir), "--mode", "i", "--out", part],
            ["train", *corpus_args(planted_dir), "--partition", part, "--epochs", "2",
             "--out", model, "--history", str(tmp_path / "h.csv")],
            ["eval-triplets", *corpus_args(planted_dir), "--partition", part, "--model", model,
             "--report", str(tmp_path / "r.json"), "--scatter", str(tmp_path / "s.csv")],
            ["ingest", "--embeddings", str(planted_dir / "embeddings.csv"),
             "--report", str(tmp_path / "i.json")],
            ["synth", "--preset", "planted", "--seed", "3", "--triplets", "20", "--dim", "8",
             "--out-dir", str(tmp_path / "planted")],
            ["synth", "--preset", "clustered-attributes", "--seed", "3", "--per-cluster", "5",
             "--queries", "4", "--dim", "8", "--out-dir", str(tmp_path / "clustered")],
        ):
            assert cli.run(argv) == 0
        assert built == []
        records = list(corpus.load_embeddings(planted_dir / "embeddings.csv"))
        assert built == [rec.image_id for rec in records]  # the count sees records when built

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
        queries = corpus.load_embeddings(clustered_dir / "queries.csv")
        with open(distances) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(queries) * len(attributes.ALL_GROUPS)
        for row in rows:
            # the pair scored on its own: one query, one group
            one = queries.take([queries.row(row["query_id"])])
            r = attributes.score_groups(model, one, groups, [row["group"]], use_t=use_t)
            assert (int(row["n"]), float(row["mean_d"]), float(row["sd_d"]),
                    float(row["upper"])) == (r.n[0, 0], r.mean[0, 0], r.sd[0, 0], r.upper[0, 0])

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
        monkeypatch.setattr(ProjectionModel, "project_block",
                            counting(ProjectionModel.project_block, projected))
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

    def test_attribute_commands_build_no_candidate_records(
        self, clustered_dir, tmp_path, monkeypatch
    ):
        """eval-attributes and select work on the rows of the candidates' and the
        queries' tables, and build no records."""
        built = []
        init = corpus.EmbeddingRecord.__init__

        def counting(record, *args, **kwargs):
            init(record, *args, **kwargs)
            built.append(record.image_id)

        monkeypatch.setattr(corpus.EmbeddingRecord, "__init__", counting)
        model = tmp_path / "identity.json"
        ProjectionModel.identity(8).save(model)
        inputs = ["--model", str(model), "--candidates", str(clustered_dir / "candidates.csv")]
        queries = str(clustered_dir / "queries.csv")
        for argv in (
            ["eval-attributes", *inputs, "--queries", queries, "--per-group", "6",
             "--report", str(tmp_path / "a.json"), "--distances", str(tmp_path / "d.csv")],
            ["select", *inputs, "--query", queries, "--group-mode", "all",
             "--out", str(tmp_path / "s.json"), "--ranking", str(tmp_path / "r.csv")],
        ):
            assert cli.run(argv) == 0
        assert built == []
        candidates = list(corpus.load_embeddings(clustered_dir / "candidates.csv"))
        assert built == [rec.image_id for rec in candidates]  # the count sees records when built

    def test_attribute_commands_reject_a_model_of_another_width(
        self, clustered_dir, tmp_path, capsys
    ):
        model = tmp_path / "narrow.json"
        ProjectionModel.identity(6).save(model)
        inputs = ["--model", str(model), "--candidates", str(clustered_dir / "candidates.csv")]
        queries = str(clustered_dir / "queries.csv")
        for argv in (
            ["eval-attributes", *inputs, "--queries", queries, "--report", str(tmp_path / "a.json")],
            ["select", *inputs, "--query", queries, "--out", str(tmp_path / "s.json")],
        ):
            assert cli.run(argv) == 3
            assert capsys.readouterr().err == (
                "error: model dimension 6 does not match embedding dimension 8\n"
            )

    def test_eval_triplets_rejects_a_model_of_another_width(self, planted_dir, tmp_path, capsys):
        model = tmp_path / "wide.json"
        ProjectionModel.identity(12).save(model)
        report = tmp_path / "eval.json"
        assert cli.run(["eval-triplets", *corpus_args(planted_dir), "--model", str(model),
                        "--report", str(report)]) == 3
        assert capsys.readouterr().err == (
            "error: model dimension 12 does not match embedding dimension 8\n"
        )
        assert not report.exists()

    def test_student_t_runs_without_scipy(self, clustered_dir, tmp_path):
        """With every scipy import failing, the same report and distances as in process."""
        model = tmp_path / "model.json"
        rng = np.random.default_rng(8)
        ProjectionModel(np.eye(8) + 0.1 * rng.normal(size=(8, 8))).save(model)
        outputs = [tmp_path / "attr.json", tmp_path / "d.csv"]
        command = ["eval-attributes", "--model", str(model),
                   "--candidates", str(clustered_dir / "candidates.csv"),
                   "--queries", str(clustered_dir / "queries.csv"), "--student-t",
                   "--report", str(outputs[0]), "--distances", str(outputs[1])]
        script = ("import sys\nsys.modules['scipy'] = None\nfrom facesim import cli\n"
                  f"print(cli.run({command!r}))")
        assert run_fresh(script) == "0"
        fresh = [path.read_bytes() for path in outputs]
        for path in outputs:
            path.unlink()
        assert cli.run(command) == 0
        assert [path.read_bytes() for path in outputs] == fresh

    def test_commands_import_only_their_modules(self, planted_dir, clustered_dir, tmp_path):
        # a process started per command compiles every module it imports
        model = tmp_path / "identity.json"
        ProjectionModel.identity(8).save(model)
        inputs = ["--model", str(model), "--candidates", str(clustered_dir / "candidates.csv")]
        queries = str(clustered_dir / "queries.csv")
        corpus_commands = [
            ["ingest", "--embeddings", str(planted_dir / "embeddings.csv")],
            ["validate", "--annotations", str(planted_dir / "annotations.csv")],
            *(["split", *corpus_args(planted_dir), "--mode", mode,
               "--out", str(tmp_path / "p.json")] for mode in ("i", "ii", "iii")),
        ]
        attribute_commands = [
            ["eval-attributes", *inputs, "--queries", queries, "--report", str(tmp_path / "a.json"),
             "--distances", str(tmp_path / "d.csv")],
            ["select", *inputs, "--query", queries, "--out", str(tmp_path / "s.json")],
            ["select", *inputs, "--query", queries, "--group-mode", "all",
             "--out", str(tmp_path / "s.json"), "--ranking", str(tmp_path / "r.csv")],
        ]
        train_commands = [["train", *corpus_args(planted_dir), "--epochs", "1",
                           "--out", str(tmp_path / "m.json")],
                          ["eval-triplets", *corpus_args(planted_dir), "--model", str(model),
                           "--report", str(tmp_path / "e.json")]]
        # `numpy.ma` is no command's: `np.unique` without `return_index` imports it
        lazy = [*(f"facesim.{name}" for name in
                  ("trainer", "evaluator", "attributes", "selector", "synth", "metric")),
                "statistics", "numpy.ma"]

        def imported_after(*groups):
            """The lazy modules imported after `import facesim.cli` and after each group."""
            script = (
                "import json, sys\nfrom facesim import cli\n"
                f"lazy = {lazy!r}\n"
                "seen = [[m for m in lazy if m in sys.modules]]\n"
                f"for group in {list(groups)!r}:\n"
                "    assert [cli.run(c) for c in group] == [0] * len(group)\n"
                "    seen.append([m for m in lazy if m in sys.modules])\n"
                "print(json.dumps(seen))"
            )
            return json.loads(run_fresh(script))

        on_import, after_corpus, after_attributes = imported_after(corpus_commands,
                                                                   attribute_commands)
        assert on_import == after_corpus == []
        assert not {"facesim.trainer", "facesim.evaluator", "facesim.synth", "numpy.ma"} & set(
            after_attributes)
        _, after_train = imported_after(train_commands)
        assert not {"facesim.attributes", "facesim.selector", "facesim.synth", "numpy.ma"} & set(
            after_train)

    def test_select_single_query_id(self, clustered_dir, tmp_path):
        """`--query-id` gives that query's recommendation and ranking rows of a full run."""
        model = tmp_path / "model.json"
        rng = np.random.default_rng(9)
        ProjectionModel(np.eye(8) + 0.1 * rng.normal(size=(8, 8))).save(model)
        inputs = ["--model", str(model), "--candidates", str(clustered_dir / "candidates.csv"),
                  "--query", str(clustered_dir / "queries.csv")]

        def select(*extra):
            out, ranking = tmp_path / "select.json", tmp_path / "ranking.csv"
            assert cli.run(["select", *inputs, *extra, "--out", str(out),
                            "--ranking", str(ranking)]) == 0
            with open(ranking) as fh:
                return json.loads(out.read_text())["recommendations"], list(csv.DictReader(fh))

        for mode in ("intersection", "all"):
            recommendations, ranking = select("--group-mode", mode)
            assert len(recommendations) == 12
            for rec in (recommendations[0], recommendations[5], recommendations[11]):
                query_id = rec["query_id"]
                assert select("--group-mode", mode, "--query-id", query_id) == (
                    [rec], [row for row in ranking if row["query_id"] == query_id]
                )


def _invalid_utf8(data: bytes) -> bytes:
    return data[:40] + b"\xff\xfe" + data[40:]


def _oversized_field(data: bytes) -> bytes:
    """The first row's first field replaced by one over the csv module's field limit."""
    header, rest = data.split(b"\n", 1)
    return header + b"\n" + b"x" * 200_000 + rest[rest.index(b","):]


def _first_weight(token: bytes):
    """A mutation giving a model file's first weight as a JSON token such as `NaN`."""
    return lambda data: data.replace(b'"weight": [1.0', b'"weight": [' + token, 1)


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

    def test_run_calls_the_command_the_module_holds(self, tmp_path, monkeypatch, capsys):
        # a tracer times a command by swapping `cli.cmd_*`; no parser may keep the old one
        argv = ["validate", "--annotations", str(tmp_path / "absent.csv")]
        assert cli.run(argv) == 3
        monkeypatch.setattr(cli, "cmd_validate", lambda args: 7)
        assert cli.run(argv) == 7
        capsys.readouterr()


USAGE = json.loads(pathlib.Path(__file__).with_name("cli_usage.json").read_text("utf-8"))


@pytest.mark.skipif(f"{sys.version_info.major}.{sys.version_info.minor}" != USAGE["python"],
                    reason="argparse lays out its text differently in other Python versions")
@pytest.mark.parametrize("case", USAGE["cases"], ids=lambda case: " ".join(case["argv"]))
def test_parser_text_is_unchanged(case, monkeypatch, capsys):
    """Help and usage errors as `facesim` printed them when the parser was built whole."""
    monkeypatch.setenv("COLUMNS", str(USAGE["columns"]))
    with pytest.raises(SystemExit) as exc:
        cli.run(case["argv"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == (case["code"], case["stdout"], case["stderr"])


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
            *(("model", _first_weight(token)) for token in (b"NaN", b"Infinity", b"-Infinity")),
        ],
        ids=["model-not-object", "model-nested-too-deep", "model-not-utf8", "partition-not-utf8",
             "embeddings-not-utf8", "annotations-not-utf8", "oversized-field",
             "model-weight-NaN", "model-weight-Infinity", "model-weight-minus-Infinity"],
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
        named = re.fullmatch(r"error: non-finite loss or weights at epoch \d+, batch \d+;"
                             r" last finite gradient norm (\S+), mean hinge (\S+)\n",
                             capsys.readouterr().err)
        assert named and float(named[1]) > 0 and float(named[2]) >= 0

    @pytest.mark.parametrize("votes", ["0", "-1"])
    def test_min_votes_below_one_is_3(self, planted_dir, tmp_path, capsys, votes):
        # with no lower bound, a triplet with no votes counted as tied, not as too few votes
        out = tmp_path / "p.json"
        assert cli.run(["split", *corpus_args(planted_dir), "--min-votes", votes, "--mode", "i",
                        "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: min_votes must be >= 1, got {votes}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--learning-rate", "nan"), ("--learning-rate", "inf"), ("--weight-decay", "nan"),
         ("--margin", "nan")],
    )
    def test_non_finite_train_settings_are_3(self, planted_dir, tmp_path, capsys, flag,
                                             value):
        # NaN used to pass the range checks and surface as divergence (exit 4)
        code = cli.run(["train", *corpus_args(planted_dir), "--epochs", "1", flag, value,
                        "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_nan_split_ratio_is_3(self, planted_dir, tmp_path, capsys):
        code = cli.run(["split", *corpus_args(planted_dir), "--mode", "i",
                        "--ratios", "nan", "0.5", "0.5", "--out", str(tmp_path / "p.json")])
        assert code == 3
        assert "ratios must be three non-negatives summing to 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["train", "eval-triplets"])
    def test_overlapping_partition_splits_are_3(self, planted_dir, tmp_path, capsys, command):
        # a triplet in both train and test would be trained on and then scored as held out
        partition = tmp_path / "p.json"
        assert cli.run(["split", *corpus_args(planted_dir), "--mode", "i",
                        "--out", str(partition)]) == 0
        payload = json.loads(partition.read_text())
        payload["test"] += payload["train"][:5]
        partition.write_text(json.dumps(payload))
        argv = self._partition_argv(command, planted_dir, tmp_path, partition)
        capsys.readouterr()
        assert cli.run(argv) == 3
        captured = capsys.readouterr()
        assert not captured.out and not (tmp_path / "m.json").exists()
        assert (f"partition file {partition}: id '{payload['train'][0]}'"
                f" is in both train and test") in captured.err

    def test_partition_ratios_that_are_not_a_list_are_3(self, planted_dir, tmp_path, capsys):
        partition = tmp_path / "p.json"
        partition.write_text(json.dumps({"mode": "i", "seed": 0, "ratios": "0.7,0.1,0.2",
                                         "train": [], "val": [], "test": []}))
        code = cli.run(self._partition_argv("train", planted_dir, tmp_path, partition))
        assert (code, capsys.readouterr().err) == (
            3, f"error: partition file {partition}: 'ratios' must be a list\n")

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

    @pytest.mark.parametrize("command,per_group",
                             [("eval-attributes", "-1"), ("select", "-2"), ("select", "0")])
    def test_non_positive_per_group_is_3(self, clustered_dir, tmp_path, capsys,
                                         command, per_group):
        model = tmp_path / "model.json"
        ProjectionModel.identity(8).save(model)
        queries, out = (["--queries", "--report"] if command == "eval-attributes"
                        else ["--query", "--out"])
        code = cli.run([command, "--model", str(model),
                        "--candidates", str(clustered_dir / "candidates.csv"),
                        queries, str(clustered_dir / "queries.csv"),
                        "--per-group", per_group, out, str(tmp_path / "out.json")])
        assert code == 3
        assert "per-group" in capsys.readouterr().err

    def test_model_dimension_mismatch_is_3(self, planted_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        ProjectionModel.identity(4).save(model)
        code = cli.run(["train", *corpus_args(planted_dir), "--model", str(model),
                        "--epochs", "1", "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "dimension" in capsys.readouterr().err

    def test_split_of_no_admitted_triplet_is_5(self, planted_dir, tmp_path, capsys):
        # three annotators vote on each planted triplet, so none reaches four votes
        code = cli.run(["split", *corpus_args(planted_dir), "--mode", "i", "--min-votes", "4",
                        "--out", str(tmp_path / "p.json")])
        assert (code, capsys.readouterr().err) == (5, "error: no admitted samples to split\n")

    def test_unknown_query_id_is_3(self, clustered_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        ProjectionModel.identity(8).save(model)
        queries = clustered_dir / "queries.csv"
        code = cli.run(["select", "--model", str(model),
                        "--candidates", str(clustered_dir / "candidates.csv"),
                        "--query", str(queries), "--query-id", "nope",
                        "--out", str(tmp_path / "s.json")])
        assert (code, capsys.readouterr().err) == (
            3, f"error: query_id 'nope' not found in {queries}\n"
        )

    def test_model_weight_beyond_float_range_is_3(self, clustered_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        ProjectionModel.identity(8).save(model)
        payload = json.loads(model.read_text())
        payload["weight"][0] = 10 ** 400  # JSON holds it; float64 cannot
        model.write_text(json.dumps(payload))
        code = cli.run(["eval-attributes", "--model", str(model),
                        "--candidates", str(clustered_dir / "candidates.csv"),
                        "--queries", str(clustered_dir / "queries.csv"),
                        "--report", str(tmp_path / "r.json")])
        assert (code, capsys.readouterr().err) == (
            3, f"error: model file {model}: weight must be a list of numbers"
               " (int too large to convert to float)\n"
        )

    @staticmethod
    def _eval_attributes_of_a_query_of_unknown_gender(clustered_dir, tmp_path, task):
        """`eval-attributes --task task` where the first query's gender is empty; the
        exit code."""
        model, queries = tmp_path / "model.json", tmp_path / "queries.csv"
        ProjectionModel.identity(8).save(model)
        lines = (clustered_dir / "queries.csv").read_text().splitlines(keepends=True)
        assert lines[1].startswith("query_0000,qid_0000,target,,male,young,")
        lines[1] = lines[1].replace(",male,young,", ",,young,", 1)
        queries.write_text("".join(lines))
        return cli.run(["eval-attributes", "--model", str(model),
                        "--candidates", str(clustered_dir / "candidates.csv"),
                        "--queries", str(queries), "--task", task,
                        "--report", str(tmp_path / "r.json")])

    def test_four_way_query_of_unknown_gender_is_3(self, clustered_dir, tmp_path, capsys):
        code = self._eval_attributes_of_a_query_of_unknown_gender(clustered_dir, tmp_path,
                                                                  "four-way")
        assert (code, capsys.readouterr().err) == (
            3, "error: cannot derive group from (young, unknown)\n"
        )

    def test_gender_query_of_unknown_gender_is_3(self, clustered_dir, tmp_path, capsys):
        code = self._eval_attributes_of_a_query_of_unknown_gender(clustered_dir, tmp_path,
                                                                  "gender")
        assert (code, capsys.readouterr().err) == (
            3, "error: query 'query_0000' has no gender label\n"
        )

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("annotator,triplet_id,choice,is_dummy,dummy_answer\n",
         "header must be annotator_id,triplet_id,choice,is_dummy,dummy_answer"),
    ], ids=["empty", "wrong-header"])
    def test_validate_of_an_annotations_file_without_its_header_is_3(self, tmp_path, capsys,
                                                                      text, message):
        path = tmp_path / "annotations.csv"
        path.write_text(text, encoding="utf-8")
        code = cli.run(["validate", "--annotations", str(path)])
        assert (code, capsys.readouterr().err) == (3, f"error: {path}: {message}\n")

    @staticmethod
    def _split_single_target(tmp_path, mode):
        """Exit code of splitting a one-target corpus in the given mode."""
        single = tmp_path / "single"
        c = synth.planted(seed=2, n_triplets=20, dim=8, data_subspace=6,
                          truth_rank=2, n_targets=1)
        c.write(single)
        return cli.run(["split", *corpus_args(single), "--mode", mode,
                        "--out", str(tmp_path / "p.json")])

    def test_infeasible_split_is_5(self, tmp_path, capsys):
        # a single distinct target makes source-knowledge splitting impossible
        code = self._split_single_target(tmp_path, "iii")
        assert (code, capsys.readouterr().err) == (
            5, "error: mode [iii]: corpus has a single target; the sole target cannot be"
               " both held out and present in training\n")

    @pytest.mark.parametrize("mode", ["i", "ii"])
    def test_too_few_targets_for_a_train_split_is_5(self, tmp_path, capsys, mode):
        code = self._split_single_target(tmp_path, mode)
        assert (code, capsys.readouterr().err) == (
            5, f"error: mode [{mode}]: not enough distinct targets to populate a train split\n")

    @pytest.mark.parametrize("mode, identity, message", [
        ("i", "shared", "mode [i]: every candidate test triplet shares a source identity"
                        " with train"),
        ("ii", "own", "mode [ii]: no candidate test triplet has all its source identities"
                      " in train"),
        ("iii", "shared", "mode [iii]: no source hold-out yields test triplets whose targets"
                          " also appear in training"),
    ], ids=["i", "ii", "iii"])
    def test_a_split_with_no_valid_test_set_is_5(self, tmp_path, capsys, tiny_files,
                                                 mode, identity, message):
        # infeasible under any shuffle: one source identity for every record leaves mode i
        # no test triplet and mode iii no train triplet; an identity of its own for every
        # record leaves mode ii no test triplet whose sources train holds
        lines = tiny_files["embeddings"].splitlines(keepends=True)
        for i, line in enumerate(lines[1:], start=1):
            image_id, _, rest = line.split(",", 2)
            source = "shared" if identity == "shared" else f"own_{image_id}"
            lines[i] = f"{image_id},{source},{rest}"
        (tmp_path / "embeddings.csv").write_text("".join(lines), encoding="utf-8")
        for name in ("manifest", "annotations"):
            (tmp_path / f"{name}.csv").write_text(tiny_files[name], encoding="utf-8")
        code = cli.run(["split", *corpus_args(tmp_path), "--mode", mode,
                        "--out", str(tmp_path / "p.json")])
        assert (code, capsys.readouterr().err) == (5, f"error: {message}\n")


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """The three CSV files of a 40-triplet planted corpus, as text."""
    out = tmp_path_factory.mktemp("tiny")
    synth.planted(seed=21, n_triplets=40, dim=8, data_subspace=6, truth_rank=2).write(out)
    return {name: (out / f"{name}.csv").read_text(encoding="utf-8")
            for name in ("embeddings", "manifest", "annotations")}


class TestAnnotationErrorParity:
    """Exit code and exact stderr of each malformed annotation or manifest input."""

    @staticmethod
    def _write(tmp_path, files, **edits):
        """Write the files, each edit a function of a file's lines; the paths."""
        paths = {}
        for name, text in files.items():
            lines = text.splitlines()
            if name in edits:
                lines = edits[name](lines)
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
        return paths

    @staticmethod
    def _argv(command, paths, tmp_path):
        argv = [command, *(f"--{name}={path}" for name, path in paths.items())]
        if command == "split":
            return argv + ["--mode", "i", "--out", str(tmp_path / "p.json")]
        if command == "train":
            return argv + ["--epochs", "1", "--out", str(tmp_path / "m.json")]
        if command == "validate":
            return [command, "--annotations", str(paths["annotations"])]
        model = tmp_path / "identity.json"
        ProjectionModel.identity(8).save(model)
        return argv + ["--model", str(model), "--report", str(tmp_path / "r.json")]

    def _run(self, tmp_path, capsys, files, command="split", **edits):
        paths = self._write(tmp_path, files, **edits)
        code = cli.run(self._argv(command, paths, tmp_path))
        return code, capsys.readouterr().err, paths

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            (["p1,tri00000,A,maybe,"], 131, "is_dummy must be boolean, got 'maybe'"),
            (["p1,tri00000,C,false,"], 131,
             "annotation by 'p1' on 'tri00000': choice must be A or B, got 'C'"),
            (["p1,dummy09,A,true,"], 131, "dummy annotation on 'dummy09' is missing its"
             " dummy_answer"),
            (["p1,dummy09,C,maybe,"], 131, "is_dummy must be boolean, got 'maybe'"),
            (["p1,dummy09,C,true,"], 131,
             "annotation by 'p1' on 'dummy09': choice must be A or B, got 'C'"),
            (["p1,dummy09,A,TRUE,X", "p2,tri00001,A,1,"], 131,
             "dummy annotation on 'dummy09' is missing its dummy_answer"),
            (["p1,tri00000,B,0,", "p2,tri00001,C,false,", "p3,tri00001,A,no,"], 132,
             "annotation by 'p2' on 'tri00001': choice must be A or B, got 'C'"),
            (["p1,tri00000,B,0,", "p3,tri00001,A,no,", "p2,tri00001,C,false,"], 132,
             "is_dummy must be boolean, got 'no'"),
        ],
        ids=["bad-is-dummy", "choice-C", "dummy-without-answer", "is-dummy-before-choice",
             "choice-before-dummy-answer", "dummy-answer-not-A-or-B", "first-bad-row-choice",
             "first-bad-row-is-dummy"],
    )
    @pytest.mark.parametrize("command", ["validate", "split"])
    def test_bad_annotation_row(self, tmp_path, capsys, tiny_files, command, rows, line,
                                message):
        code, err, paths = self._run(tmp_path, capsys, tiny_files, command,
                                     annotations=lambda lines: lines + rows)
        assert (code, err) == (3, f"error: {paths['annotations']}:{line}: {message}\n")

    def test_unknown_triplet_names_the_first_non_dummy_row(self, tmp_path, capsys,
                                                            tiny_files):
        rows = ["p1,ghost,A,true,A", "p2,nope,B,false,", "p3,nope2,A,false,"]
        code, err, _ = self._run(tmp_path, capsys, tiny_files,
                                 annotations=lambda lines: lines[:5] + rows + lines[5:])
        assert (code, err) == (
            3, "error: annotation by 'p2' references unknown triplet_id 'nope'\n"
        )

    @pytest.mark.parametrize("command", ["split", "train", "eval-triplets"])
    def test_a_dummy_row_with_an_unknown_triplet_loads(self, tmp_path, capsys, tiny_files,
                                                       command):
        code, err, _ = self._run(tmp_path, capsys, tiny_files, command,
                                 annotations=lambda lines: lines + ["p1,ghost,A,true,A"])
        assert (code, err) == (0, "")

    def test_duplicate_manifest_triplet(self, tmp_path, capsys, tiny_files):
        code, err, paths = self._run(
            tmp_path, capsys, tiny_files,
            manifest=lambda lines: lines + ["tri00000,img00001c,img00001a,img00001b"],
        )
        assert (code, err) == (
            3, f"error: {paths['manifest']}:42: duplicate triplet_id 'tri00000'\n"
        )

    @pytest.mark.parametrize("command", ["split", "train", "eval-triplets"])
    def test_manifest_row_naming_one_image_twice(self, tmp_path, capsys, tiny_files, command):
        code, err, paths = self._run(
            tmp_path, capsys, tiny_files, command,
            manifest=lambda lines: [line.replace(",img00000a,", ",img00000c,") for line in lines],
        )
        assert (code, err) == (
            3, f"error: {paths['manifest']}:2: triplet 'tri00000' names image 'img00000c'"
               " more than once\n"
        )

    @staticmethod
    def _ghost(lines, triplet, column):
        """The manifest with one image of one triplet renamed to 'ghost<column>'."""
        out = []
        for line in lines:
            fields = line.split(",")
            if fields[0] == triplet:
                fields[column] = f"ghost{column}"
            out.append(",".join(fields))
        return out

    @pytest.mark.parametrize("command", ["split", "train", "eval-triplets"])
    def test_unknown_image_in_an_admitted_triplet(self, tmp_path, capsys, tiny_files,
                                                  command):
        def manifest(lines):
            return self._ghost(self._ghost(lines, "tri00007", 1), "tri00003", 3)

        code, err, _ = self._run(tmp_path, capsys, tiny_files, command, manifest=manifest)
        # split checks triplet by triplet; train and eval gather each role's rows in turn
        ghost = "ghost3" if command == "split" else "ghost1"
        assert (code, err) == (3, f"error: unknown image_id '{ghost}'\n")

    @pytest.mark.parametrize("command", ["split", "train", "eval-triplets"])
    def test_unknown_image_in_a_rejected_triplet_loads(self, tmp_path, capsys, tiny_files,
                                                       command):
        code, err, _ = self._run(
            tmp_path, capsys, tiny_files, command,
            manifest=lambda lines: self._ghost(lines, "tri00003", 1),
            annotations=lambda lines: [line for line in lines
                                       if not line.startswith("p1,tri00003,")],
        )
        assert (code, err) == (0, "")

    def test_non_swapped_reference(self, tmp_path, capsys, tiny_files):
        def embeddings(lines):
            return [line.replace(",swapped,", ",target,", 1)
                    if line.startswith("img00004c,") else line for line in lines]

        code, err, _ = self._run(tmp_path, capsys, tiny_files, embeddings=embeddings)
        assert (code, err) == (
            3, "error: triplet 'tri00004' must reference swapped records sharing one"
               " target_id, got targets ['t004']\n"
        )

    def test_references_across_targets(self, tmp_path, capsys, tiny_files):
        code, err, _ = self._run(
            tmp_path, capsys, tiny_files,
            manifest=lambda lines: [line.replace(",img00005b", ",img00006b")
                                    for line in lines],
        )
        assert (code, err) == (
            3, "error: triplet 'tri00005' must reference swapped records sharing one"
               " target_id, got targets ['t005', 't006']\n"
        )


# The byte goldens below hold per host and BLAS kernel: the last bits of every
# matrix product and QR depend on the kernels OpenBLAS picks for the CPU. Each table
# holds one set per OpenBLAS core name (`blas_core.py`), recorded on x86-64 with
# `OPENBLAS_CORETYPE` set to SkylakeX, Haswell, Sandybridge, Nehalem and Prescott
# (which reports Katmai). A core with no recorded set fails; record its set.
BLAS_CORE = blas_core()


def recorded(golden):
    """The set of `golden` recorded for this process's OpenBLAS core."""
    if BLAS_CORE not in golden:
        pytest.fail(f"no golden hashes recorded for OpenBLAS core '{BLAS_CORE}'", pytrace=False)
    return golden[BLAS_CORE]


# sha256 of every file `facesim synth` writes, per preset, for the arguments in
# SYNTH_ARGS: a 40-triplet planted corpus with 10% noisy votes and a small
# clustered corpus.
SYNTH_ARGS = {
    "planted": ["--seed", "5", "--triplets", "40", "--dim", "8", "--noise-fraction", "0.1"],
    "clustered-attributes": ["--seed", "4", "--per-cluster", "10", "--queries", "8",
                             "--dim", "8"],
}
SYNTH_GOLDEN = {
    "SkylakeX": {
        "planted": {
            "annotations.csv": "01f599b2ad75a1f4fca554c22c3b91255ef9effb5b5291505ae2592c9e617ebc",
            "embeddings.csv": "b5d590efc37819da1419b87444cda6009b99ab92e4cdc3af352342f40ad9a7e3",
            "manifest.csv": "ee4b4ddd7e9538c969c79dc21db9874c568e78d9fa0e3ad9548b807d613211d3",
            "truth_model.json": "2542dac7fdcb50eb6ca763214e028fedcb17ef4af07a24f52fcdabb9d070a169",
        },
        "clustered-attributes": {
            "candidates.csv": "faebf64da5f9c2e5d0d1a7145b99aa6e2a5d229d0af71106ef86d33387eaf50e",
            "queries.csv": "c9db424c683ca445a6c96b58e0056fac2652e45e0f5c57852610387e097f56e7",
        },
    },
    "Haswell": {
        "planted": {
            "annotations.csv": "01f599b2ad75a1f4fca554c22c3b91255ef9effb5b5291505ae2592c9e617ebc",
            "embeddings.csv": "f753600ef5a56206f1a9276a553e2fe3764e1562497fdf781ded05070928c797",
            "manifest.csv": "ee4b4ddd7e9538c969c79dc21db9874c568e78d9fa0e3ad9548b807d613211d3",
            "truth_model.json": "319d20b33f64bead95e6a5fb79213296b448f6528a63126ccbced887b3ea27b2",
        },
        "clustered-attributes": {
            "candidates.csv": "1a2e1986cfa4d3d52c67b7b385b41e91ff7fdec285a98019243abcf55afe957f",
            "queries.csv": "f1606b2aa323ac9cf075f7cc81e0bfab3b28ecd855d3627e5477c846a2ec85cb",
        },
    },
    "Sandybridge": {
        "planted": {
            "annotations.csv": "01f599b2ad75a1f4fca554c22c3b91255ef9effb5b5291505ae2592c9e617ebc",
            "embeddings.csv": "55681e52701dad979fc53a66cc76313edd08345dfdd6ab5ae11ee9ea3110905c",
            "manifest.csv": "ee4b4ddd7e9538c969c79dc21db9874c568e78d9fa0e3ad9548b807d613211d3",
            "truth_model.json": "fc23ffaddc586c349e4062edb11083e67495039fe91d948c8e2027cf8517b140",
        },
        "clustered-attributes": {
            "candidates.csv": "9a1dce95e048a689c4e70c3416001cfbc26b6a2f003b259d334dbf09b1e350c9",
            "queries.csv": "f8467a4ee5f0b5c9b4c778627830d5f72c89bceea25b7ab73c829c9d95ac5d97",
        },
    },
    "Nehalem": {
        "planted": {
            "annotations.csv": "01f599b2ad75a1f4fca554c22c3b91255ef9effb5b5291505ae2592c9e617ebc",
            "embeddings.csv": "55681e52701dad979fc53a66cc76313edd08345dfdd6ab5ae11ee9ea3110905c",
            "manifest.csv": "ee4b4ddd7e9538c969c79dc21db9874c568e78d9fa0e3ad9548b807d613211d3",
            "truth_model.json": "6cbd0c08e2cb6783ddbc492831c7fcad79ebb4346796c65ba4305aa500940015",
        },
        "clustered-attributes": {
            "candidates.csv": "9a1dce95e048a689c4e70c3416001cfbc26b6a2f003b259d334dbf09b1e350c9",
            "queries.csv": "f8467a4ee5f0b5c9b4c778627830d5f72c89bceea25b7ab73c829c9d95ac5d97",
        },
    },
    "Katmai": {
        "planted": {
            "annotations.csv": "01f599b2ad75a1f4fca554c22c3b91255ef9effb5b5291505ae2592c9e617ebc",
            "embeddings.csv": "55681e52701dad979fc53a66cc76313edd08345dfdd6ab5ae11ee9ea3110905c",
            "manifest.csv": "ee4b4ddd7e9538c969c79dc21db9874c568e78d9fa0e3ad9548b807d613211d3",
            "truth_model.json": "fc23ffaddc586c349e4062edb11083e67495039fe91d948c8e2027cf8517b140",
        },
        "clustered-attributes": {
            "candidates.csv": "9a1dce95e048a689c4e70c3416001cfbc26b6a2f003b259d334dbf09b1e350c9",
            "queries.csv": "f8467a4ee5f0b5c9b4c778627830d5f72c89bceea25b7ab73c829c9d95ac5d97",
        },
    },
}


@pytest.mark.parametrize("preset", sorted(SYNTH_ARGS))
def test_synth_files_keep_their_bytes(tmp_path, capsys, preset):
    assert cli.run(["synth", "--preset", preset, *SYNTH_ARGS[preset],
                    "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == recorded(SYNTH_GOLDEN)[preset]


# sha256 of each output of split -> train -> eval-triplets on a 120-triplet planted
# corpus with 10% noisy votes, per split mode; the eval report less its "funnel".
GOLDEN_OUTPUTS = {
    "SkylakeX": {
        "i": {
            "partition.json": "981f020d160de2e57b30f323878bbdf9bfa313b7462ca1c2ad7b5bfff07a2891",
            "model.json": "226ccdc24d9174d5a0a2c8f13adb47a9dcc84eb8e4e3b210cf11f9ffc89d4606",
            "history.csv": "48e13dc2bb9f62d21c117a89e70c21110638bc05b3a389f07bcc34837dfc7bce",
            "scatter.csv": "a8837f9baa8dfd91e41635f479c05750fd0d642931376c1fa3aeff73aab1d746",
            "eval.json": "3bd84efad9c0cacb6dfb5ae139bc8cbb891606578d97f5fe6a75df1bc7699681",
        },
        "ii": {
            "partition.json": "3d858f8b0e0f92824dac3699e8c4e0f0b2b44849c536a439a9668819442e4727",
            "model.json": "226ccdc24d9174d5a0a2c8f13adb47a9dcc84eb8e4e3b210cf11f9ffc89d4606",
            "history.csv": "48e13dc2bb9f62d21c117a89e70c21110638bc05b3a389f07bcc34837dfc7bce",
            "scatter.csv": "d818c28498164cb605748a3ceff9fb5a33c306e9d99379f234bf97d210a9cf93",
            "eval.json": "d22a9351deea8b7eedfa520adbf34db7901d8ef0438a54b8be8b2508735d1130",
        },
        "iii": {
            "partition.json": "d7865188d91727e378abd665f083cc58b7b1e586b8d07a55921fb4469b3fe289",
            "model.json": "d451f5471761860e0a2bc76e772318e35ab24e4746e5701e10894577f1089b4e",
            "history.csv": "6b1a1b061e21175c2b659d0a3f387c0988786a62d32206368641a7096740f754",
            "scatter.csv": "11661e7774aa29f6afb74e341bcf348e4334af82207752bb47d3a86b460300ac",
            "eval.json": "956feba1c801380905e53c4e46ef188740b7456e662925045d90b22cd549e418",
        },
    },
    "Haswell": {
        "i": {
            "partition.json": "981f020d160de2e57b30f323878bbdf9bfa313b7462ca1c2ad7b5bfff07a2891",
            "model.json": "f7cf33a2c32d0a84f28ac61589e98960c524763c9964f53f09dcc2123957f657",
            "history.csv": "9227d35b6721a75530effee58c557fb4872001b9328ed892eec18c983ab8af59",
            "scatter.csv": "85a94d9c75c70ba43f1d6f494e8bf7262f061c16925061dbfca5834966ddefe0",
            "eval.json": "3bd84efad9c0cacb6dfb5ae139bc8cbb891606578d97f5fe6a75df1bc7699681",
        },
        "ii": {
            "partition.json": "3d858f8b0e0f92824dac3699e8c4e0f0b2b44849c536a439a9668819442e4727",
            "model.json": "f7cf33a2c32d0a84f28ac61589e98960c524763c9964f53f09dcc2123957f657",
            "history.csv": "9227d35b6721a75530effee58c557fb4872001b9328ed892eec18c983ab8af59",
            "scatter.csv": "94712f5f682065ee973a6e0016e00f94869c81ffcfc02f0470221c28184db939",
            "eval.json": "d22a9351deea8b7eedfa520adbf34db7901d8ef0438a54b8be8b2508735d1130",
        },
        "iii": {
            "partition.json": "d7865188d91727e378abd665f083cc58b7b1e586b8d07a55921fb4469b3fe289",
            "model.json": "f4cad7c8838695f65e977c5dd12ee7b06c94b712cfa35b9643e2537c074a31ef",
            "history.csv": "bc315ee35693e1bf9a9adfd045bd857186aaeddb0a293f3f064bbed5c2509a39",
            "scatter.csv": "8696d74c1ed55ff178042753765f3f98027dab22892a48fd105eaef1715c316f",
            "eval.json": "956feba1c801380905e53c4e46ef188740b7456e662925045d90b22cd549e418",
        },
    },
    "Sandybridge": {
        "i": {
            "partition.json": "981f020d160de2e57b30f323878bbdf9bfa313b7462ca1c2ad7b5bfff07a2891",
            "model.json": "1d7ca280efd10c396fd5cc8da9e661e4913630797a8d921ecafe78efbd6aa117",
            "history.csv": "35a4b4d69ec8c9b979b21f3be8db30c48d9a4167aebb415a0e1fc177dfa5b744",
            "scatter.csv": "b22f5e18c7d5cd93f8e8b8f4adfccf76b54924e66cbdee474c485b7dce1ce82f",
            "eval.json": "3bd84efad9c0cacb6dfb5ae139bc8cbb891606578d97f5fe6a75df1bc7699681",
        },
        "ii": {
            "partition.json": "3d858f8b0e0f92824dac3699e8c4e0f0b2b44849c536a439a9668819442e4727",
            "model.json": "1d7ca280efd10c396fd5cc8da9e661e4913630797a8d921ecafe78efbd6aa117",
            "history.csv": "35a4b4d69ec8c9b979b21f3be8db30c48d9a4167aebb415a0e1fc177dfa5b744",
            "scatter.csv": "ebbcf58fc1b11a74cd5916922538af08dead25fb56b9ff2103367e044a666a88",
            "eval.json": "d22a9351deea8b7eedfa520adbf34db7901d8ef0438a54b8be8b2508735d1130",
        },
        "iii": {
            "partition.json": "d7865188d91727e378abd665f083cc58b7b1e586b8d07a55921fb4469b3fe289",
            "model.json": "18a073d2ca4950d513688c9ead7985773be3a9a1dd2a26e53150e66e07844088",
            "history.csv": "a72faaabfed53e6d7b5bbee430f4c7be2edf521efb177dddea19f09276ce32da",
            "scatter.csv": "4d17e12116a6fe482f63caf7d596c36409b8e82048f256807a67e501c4b36c59",
            "eval.json": "956feba1c801380905e53c4e46ef188740b7456e662925045d90b22cd549e418",
        },
    },
    "Nehalem": {
        "i": {
            "partition.json": "981f020d160de2e57b30f323878bbdf9bfa313b7462ca1c2ad7b5bfff07a2891",
            "model.json": "d1b8a8f8ccc2afb91fdc0e7934fd435b9b6bd675f193721e64806c014b38b284",
            "history.csv": "35a4b4d69ec8c9b979b21f3be8db30c48d9a4167aebb415a0e1fc177dfa5b744",
            "scatter.csv": "eb185be223e37f3885824f959d4433098e2478b3041969b4a8518b8eee55278c",
            "eval.json": "3bd84efad9c0cacb6dfb5ae139bc8cbb891606578d97f5fe6a75df1bc7699681",
        },
        "ii": {
            "partition.json": "3d858f8b0e0f92824dac3699e8c4e0f0b2b44849c536a439a9668819442e4727",
            "model.json": "d1b8a8f8ccc2afb91fdc0e7934fd435b9b6bd675f193721e64806c014b38b284",
            "history.csv": "35a4b4d69ec8c9b979b21f3be8db30c48d9a4167aebb415a0e1fc177dfa5b744",
            "scatter.csv": "d025c5f8a8362ebaf04d4f737adb144d3e5b70e245bf647b385517c433a41b30",
            "eval.json": "d22a9351deea8b7eedfa520adbf34db7901d8ef0438a54b8be8b2508735d1130",
        },
        "iii": {
            "partition.json": "d7865188d91727e378abd665f083cc58b7b1e586b8d07a55921fb4469b3fe289",
            "model.json": "8f351681ced7a330a13d4404aa2ee6c13ee1433c39793ee54de5dde6444375fc",
            "history.csv": "ed534886a917cb10f658ecdaee439ca6b8a1c166d1c4484966a25aa6416e484a",
            "scatter.csv": "ba3be4cd43bbac633a72036e9d50cb5e4a77a9cbbdad524816b7565f1b07a961",
            "eval.json": "956feba1c801380905e53c4e46ef188740b7456e662925045d90b22cd549e418",
        },
    },
    "Katmai": {
        "i": {
            "partition.json": "981f020d160de2e57b30f323878bbdf9bfa313b7462ca1c2ad7b5bfff07a2891",
            "model.json": "a3ee66cc8a04fc76a3e52caf0edab353e154c0651f590dec30402f62e67d4881",
            "history.csv": "35a4b4d69ec8c9b979b21f3be8db30c48d9a4167aebb415a0e1fc177dfa5b744",
            "scatter.csv": "b22f5e18c7d5cd93f8e8b8f4adfccf76b54924e66cbdee474c485b7dce1ce82f",
            "eval.json": "3bd84efad9c0cacb6dfb5ae139bc8cbb891606578d97f5fe6a75df1bc7699681",
        },
        "ii": {
            "partition.json": "3d858f8b0e0f92824dac3699e8c4e0f0b2b44849c536a439a9668819442e4727",
            "model.json": "a3ee66cc8a04fc76a3e52caf0edab353e154c0651f590dec30402f62e67d4881",
            "history.csv": "35a4b4d69ec8c9b979b21f3be8db30c48d9a4167aebb415a0e1fc177dfa5b744",
            "scatter.csv": "ebbcf58fc1b11a74cd5916922538af08dead25fb56b9ff2103367e044a666a88",
            "eval.json": "d22a9351deea8b7eedfa520adbf34db7901d8ef0438a54b8be8b2508735d1130",
        },
        "iii": {
            "partition.json": "d7865188d91727e378abd665f083cc58b7b1e586b8d07a55921fb4469b3fe289",
            "model.json": "18a073d2ca4950d513688c9ead7985773be3a9a1dd2a26e53150e66e07844088",
            "history.csv": "a72faaabfed53e6d7b5bbee430f4c7be2edf521efb177dddea19f09276ce32da",
            "scatter.csv": "4d17e12116a6fe482f63caf7d596c36409b8e82048f256807a67e501c4b36c59",
            "eval.json": "956feba1c801380905e53c4e46ef188740b7456e662925045d90b22cd549e418",
        },
    },
}


def _golden_hashes(work, mode):
    """The sha256 of each output of one mode's pipeline, run in `work` with relative paths."""
    synth.planted(seed=21, n_triplets=120, dim=8, data_subspace=6, truth_rank=2,
                  noise_fraction=0.1).write(work)
    inputs = ["--embeddings", "embeddings.csv", "--manifest", "manifest.csv",
              "--annotations", "annotations.csv"]
    for argv in (
        ["split", *inputs, "--mode", mode, "--seed", "4", "--out", "partition.json"],
        ["train", *inputs, "--partition", "partition.json", "--epochs", "4",
         "--out", "model.json", "--history", "history.csv"],
        ["eval-triplets", *inputs, "--partition", "partition.json", "--model", "model.json",
         "--model", "truth_model.json", "--report", "eval.json", "--scatter", "scatter.csv"],
    ):
        assert cli.run(argv) == 0
    report = json.loads((work / "eval.json").read_text(encoding="utf-8"))
    report.pop("funnel", None)
    texts = {name: (work / name).read_bytes()
             for name in ("partition.json", "model.json", "history.csv", "scatter.csv")}
    texts["eval.json"] = (json.dumps(report, indent=2) + "\n").encode("utf-8")
    return {name: hashlib.sha256(text).hexdigest() for name, text in texts.items()}


@pytest.mark.parametrize("mode", ["i", "ii", "iii"])
def test_outputs_keep_their_bytes(tmp_path, monkeypatch, capsys, mode):
    monkeypatch.chdir(tmp_path)
    assert _golden_hashes(tmp_path, mode) == recorded(GOLDEN_OUTPUTS)[mode]
    capsys.readouterr()


ATTRIBUTE_OUTPUTS = ("attributes.json", "distances.csv", "recommendations.json", "ranking.csv",
                     "recommendations_all.json", "ranking_all.csv",
                     "recommendations_sampled.json", "ranking_sampled.csv")
ATTRIBUTE_GOLDEN_OUTPUTS = {
    "SkylakeX": {
        "attributes.json": "0c5bc3786ad254dab772e981326e49b8b5158dc34a2a53ff81bca6772029ff1c",
        "distances.csv": "828ff51c790a9d3eafedb73de44c044e49eee3e93824a398337f26c888db71e6",
        "recommendations.json": "ae662f17dee50a410ad3b4234f8568640c12a4d433111c2e2bd5a2ea0b3e8175",
        "ranking.csv": "4a9a9c19d57ebfe1005bf02dab851eac2b38cfff44ddaf249bb78c93bb58faca",
        "recommendations_all.json":
            "4ccae83d3f022b9bade23700c23b2f5cc46c4225b3ccfbb40afd1698d33dbe93",
        "ranking_all.csv": "4a9a9c19d57ebfe1005bf02dab851eac2b38cfff44ddaf249bb78c93bb58faca",
        "recommendations_sampled.json":
            "07f2a32e7cc903a337ae53da529c8107415f973e66616acdba81b6c858c0fb47",
        "ranking_sampled.csv": "a0befbc3ed7c55a011a97018084ccf90888f9934842bbab8d1d0a53026199152",
    },
    "Haswell": {
        "attributes.json": "0c5bc3786ad254dab772e981326e49b8b5158dc34a2a53ff81bca6772029ff1c",
        "distances.csv": "849d8b87f095ee138aadac662446609f824fea231bd3184df8e27008f261222e",
        "recommendations.json": "b47e6c9226bfbb328da496daf5adb1b5773f5d2cd56f0c3dab38629143b928b8",
        "ranking.csv": "423f2f4288dbb1f73293f4844e6fc0f751c1b42458fd2235a6ad6c3e50d021ae",
        "recommendations_all.json":
            "59dbd850d5b3ee111c93cb1660f19116745bb7b160c578354b7e07d2688bb3d9",
        "ranking_all.csv": "423f2f4288dbb1f73293f4844e6fc0f751c1b42458fd2235a6ad6c3e50d021ae",
        "recommendations_sampled.json":
            "8bdcae815b09a4a35c6ff6a5f54e141092ea081a4788ea49fd4f4dfd1b03b4c8",
        "ranking_sampled.csv": "6dc8156e969a87736429481d28d75005a9f9eafebe90cbdfb56d2a299d36b65f",
    },
    "Sandybridge": {
        "attributes.json": "0c5bc3786ad254dab772e981326e49b8b5158dc34a2a53ff81bca6772029ff1c",
        "distances.csv": "5acc4074ccfe0223fcfa4daf92bbb65fa2f476657a8fc1981bbada5774beaaf1",
        "recommendations.json": "ca80a5a531e4139fb58e5f1e69ee82dc802e07b2cb56b2cf793db75a83de03da",
        "ranking.csv": "24044b2afe30069ff8c95f0ea3badb0ec2697af845a716e4d4a98426862b52ec",
        "recommendations_all.json":
            "6c177342fb89aa72ebb84b88e566cd13d8ee8e05fc49a927d09993af333a272c",
        "ranking_all.csv": "24044b2afe30069ff8c95f0ea3badb0ec2697af845a716e4d4a98426862b52ec",
        "recommendations_sampled.json":
            "7e899e94f561c1ab1cf9729d23ee6f0c1abfac8045442ed73254c725ed30d752",
        "ranking_sampled.csv": "9f69b3d45632a1f47d92e4b0862e4baefe2d6ad69c7e8a1f5977f1ab49515fb0",
    },
    "Nehalem": {
        "attributes.json": "0c5bc3786ad254dab772e981326e49b8b5158dc34a2a53ff81bca6772029ff1c",
        "distances.csv": "5acc4074ccfe0223fcfa4daf92bbb65fa2f476657a8fc1981bbada5774beaaf1",
        "recommendations.json": "ca80a5a531e4139fb58e5f1e69ee82dc802e07b2cb56b2cf793db75a83de03da",
        "ranking.csv": "24044b2afe30069ff8c95f0ea3badb0ec2697af845a716e4d4a98426862b52ec",
        "recommendations_all.json":
            "6c177342fb89aa72ebb84b88e566cd13d8ee8e05fc49a927d09993af333a272c",
        "ranking_all.csv": "24044b2afe30069ff8c95f0ea3badb0ec2697af845a716e4d4a98426862b52ec",
        "recommendations_sampled.json":
            "7e899e94f561c1ab1cf9729d23ee6f0c1abfac8045442ed73254c725ed30d752",
        "ranking_sampled.csv": "9f69b3d45632a1f47d92e4b0862e4baefe2d6ad69c7e8a1f5977f1ab49515fb0",
    },
    "Katmai": {
        "attributes.json": "0c5bc3786ad254dab772e981326e49b8b5158dc34a2a53ff81bca6772029ff1c",
        "distances.csv": "5acc4074ccfe0223fcfa4daf92bbb65fa2f476657a8fc1981bbada5774beaaf1",
        "recommendations.json": "ca80a5a531e4139fb58e5f1e69ee82dc802e07b2cb56b2cf793db75a83de03da",
        "ranking.csv": "24044b2afe30069ff8c95f0ea3badb0ec2697af845a716e4d4a98426862b52ec",
        "recommendations_all.json":
            "6c177342fb89aa72ebb84b88e566cd13d8ee8e05fc49a927d09993af333a272c",
        "ranking_all.csv": "24044b2afe30069ff8c95f0ea3badb0ec2697af845a716e4d4a98426862b52ec",
        "recommendations_sampled.json":
            "7e899e94f561c1ab1cf9729d23ee6f0c1abfac8045442ed73254c725ed30d752",
        "ranking_sampled.csv": "9f69b3d45632a1f47d92e4b0862e4baefe2d6ad69c7e8a1f5977f1ab49515fb0",
    },
}


def _attribute_golden_hashes(work):
    """The sha256 of each output of `eval-attributes` and three `select` runs in `work`.

    The last `select` ranks the candidates against themselves, so each query's
    own image is excluded from its groups, over `--per-group` samples; it picks
    union groups for some queries.
    """
    synth.clustered_attributes(seed=13, per_cluster=9, n_queries=8, dim=6).write(work)
    # a rank-2 map plus a little of the identity blurs the clusters, so that the
    # sampled run picks union groups for some queries
    rng = np.random.default_rng(13)
    weight = 0.1 * np.eye(6) + rng.normal(size=(6, 2)) @ rng.normal(size=(2, 6))
    ProjectionModel(weight).save(work / "model.json")
    common = ["--model", "model.json", "--candidates", "candidates.csv"]
    for argv in (
        ["eval-attributes", *common, "--queries", "queries.csv", "--report", "attributes.json",
         "--distances", "distances.csv"],
        ["select", *common, "--query", "queries.csv", "--k", "3", "--group-mode",
         "intersection", "--out", "recommendations.json", "--ranking", "ranking.csv"],
        ["select", *common, "--query", "queries.csv", "--k", "4", "--group-mode", "all",
         "--out", "recommendations_all.json", "--ranking", "ranking_all.csv"],
        ["select", *common, "--query", "candidates.csv", "--group-mode", "all",
         "--per-group", "5", "--seed", "2", "--out", "recommendations_sampled.json",
         "--ranking", "ranking_sampled.csv"],
    ):
        assert cli.run(argv) == 0
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
            for name in ATTRIBUTE_OUTPUTS}


def test_attribute_outputs_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _attribute_golden_hashes(tmp_path) == recorded(ATTRIBUTE_GOLDEN_OUTPUTS)
    capsys.readouterr()


def test_eval_report_funnel_gives_the_dataset_sizes(tmp_path, capsys, tiny_files):
    """D1 and D2 follow from the report alone, and equal the record loop's datasets."""
    def annotations(lines):
        dropped = ("p1,tri00001,", "p1,tri00002,", "p1,tri00003,", "p2,tri00003,")
        kept = [line for line in lines if not line.startswith(dropped)]
        kept = [line.replace("p2,tri00002,A,", "p2,tri00002,B,") for line in kept]
        # q fails screening; r saw no dummy
        return kept + ["q,dummy00,B,true,A", "q,tri00000,A,false,", "r,tri00000,A,false,"]

    paths = TestAnnotationErrorParity._write(tmp_path, tiny_files, annotations=annotations)
    report = tmp_path / "r.json"
    model = tmp_path / "identity.json"
    ProjectionModel.identity(8).save(model)
    assert cli.run(["eval-triplets", *(f"--{name}={path}" for name, path in paths.items()),
                    "--min-votes", "2", "--model", str(model), "--report", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text(encoding="utf-8"))
    funnel = payload["funnel"]
    assert funnel["triplets"] - sum(funnel["rejected"].values()) == funnel["D1"]
    assert payload["samples"] == funnel["D2"]

    records = annotation_oracle.load_annotations(paths["annotations"])
    valid = annotation_oracle.validate_annotators(records)
    samples = annotation_oracle.aggregate_triplets(
        corpus.load_manifest(paths["manifest"]), records, valid, min_votes=2
    )
    rejections = [s.rejection for s in samples if s.rejection]
    assert funnel == {
        "annotators": 5,
        "annotators_dropped": 2,
        "triplets": 40,
        "rejected": {"too_few_votes": sum(r.startswith("only") for r in rejections),
                     "tied_votes": sum(r.startswith("tied") for r in rejections)},
        "D1": sum(s.admitted for s in samples),
        "D2": sum(s.consistent for s in samples),
    }
    assert funnel["rejected"] == {"too_few_votes": 1, "tied_votes": 1}
