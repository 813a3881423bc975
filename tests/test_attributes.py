import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facesim import attributes, selector
from facesim.attributes import (
    auc,
    build_groups,
    closest,
    score_groups,
)
from facesim.corpus import EmbeddingTable
from facesim.errors import DegenerateVectorError, EvaluationError, ValidationError
from facesim.metric import ProjectionModel

from conftest import classify, make_group, make_groups, make_record, member_ids, member_records
from scalar_oracle import (
    GroupDistance,
    distance,
    project,
    project_rows,
    rowwise_cosine,
    similarity_score,
    summarize_distances,
    t_975,
)


def labeled(image_id, vector, gender, age_group):
    return make_record(
        image_id, vector, role="source", target_id=None, gender=gender, age_group=age_group
    )


def group_distances(model, queries, groups, names, use_t=False):
    """`score_groups`' statistics of each (query, group) pair, as the oracle's results."""
    scores = score_groups(model, EmbeddingTable.of(queries), groups, names, use_t=use_t)
    columns = (scores.n, scores.mean, scores.sd, scores.upper)
    return [[GroupDistance(name, *stats) for name, *stats in zip(names, *row)]
            for row in zip(*(column.tolist() for column in columns))]


@pytest.fixture()
def labeled_pool():
    rng = np.random.default_rng(11)
    records = []
    for gi, gender in enumerate(("male", "female")):
        for ai, age in enumerate(("young", "older")):
            for j in range(5):
                vec = rng.normal(size=6)
                records.append(labeled(f"{age}_{gender}_{j}", vec, gender, age))
    return records


class TestBuildGroups:
    def test_eight_groups(self, labeled_pool):
        groups = build_groups(labeled_pool)
        assert set(groups.rows) == set(attributes.ALL_GROUPS)
        assert all(len(groups.rows[n]) == 5 for n in attributes.INTERSECTION_GROUPS)
        assert all(len(groups.rows[n]) == 10 for n in attributes.UNION_GROUPS)

    def test_membership_predicate(self, labeled_pool):
        groups = build_groups(labeled_pool)
        target = "young_male_0"
        containing = {n for n in groups.rows if target in member_ids(groups, n)}
        assert containing == {"young_male", "young", "male"}

    def test_union_is_concatenation_of_intersections(self, labeled_pool):
        groups = build_groups(labeled_pool)
        assert set(member_ids(groups, "male")) == set(
            member_ids(groups, "young_male") + member_ids(groups, "older_male")
        )

    def test_unknown_labels_excluded(self, labeled_pool):
        extra = labeled_pool + [
            make_record("mystery", np.ones(6), role="source", target_id=None)
        ]
        groups = build_groups(extra)
        assert all("mystery" not in member_ids(groups, n) for n in groups.rows)

    def test_empty_group_raises(self, labeled_pool):
        pool = [r for r in labeled_pool if not (r.age_group == "older" and r.gender == "female")]
        with pytest.raises(ValidationError, match="older_female"):
            build_groups(pool)

    def test_sampling_is_seeded(self, labeled_pool):
        g1 = build_groups(labeled_pool, per_intersection=3, seed=5)
        g2 = build_groups(labeled_pool, per_intersection=3, seed=5)
        g3 = build_groups(labeled_pool, per_intersection=3, seed=6)
        assert member_ids(g1, "young_male") == member_ids(g2, "young_male")
        assert any(
            member_ids(g1, n) != member_ids(g3, n) for n in attributes.INTERSECTION_GROUPS
        )

    @pytest.mark.parametrize("per_intersection", [None, 3])
    def test_table_and_its_records_give_the_same_groups(self, clustered, per_intersection):
        from_table = build_groups(clustered.candidates, per_intersection, seed=4)
        from_records = build_groups(list(clustered.candidates), per_intersection, seed=4)
        assert from_table.table is clustered.candidates
        for name in attributes.ALL_GROUPS:
            assert member_ids(from_table, name) == member_ids(from_records, name)
            assert from_table.rows[name].tolist() == from_records.rows[name].tolist()

    def test_sampling_too_large_raises(self, labeled_pool):
        with pytest.raises(ValidationError):
            build_groups(labeled_pool, per_intersection=6)


class TestGroupDistance:
    def test_zero_variance(self):
        # all members at the same angle from the query
        query = labeled("q", [1.0, 0.0], "male", "young")
        members = tuple(
            labeled(f"m{i}", [np.cos(0.7), s * np.sin(0.7)], "male", "young")
            for i, s in enumerate((1.0, -1.0))
        )
        res = group_distances(
            ProjectionModel.identity(2), [query], make_group("male", members), ["male"]
        )[0][0]
        assert res.sd_d == pytest.approx(0.0, abs=1e-12)
        assert res.upper == pytest.approx(res.mean_d, abs=1e-12)

    def test_ci_formula(self):
        res = summarize_distances("g", [0.1, 0.2, 0.3])
        assert res.mean_d == pytest.approx(0.2, abs=1e-12)
        assert res.sd_d == pytest.approx(0.1, abs=1e-12)
        assert res.upper == pytest.approx(0.31316, abs=1e-5)

    def test_singleton(self):
        res = summarize_distances("g", [0.4])
        assert res.upper == 0.4 and res.sd_d == 0.0

    def test_sd_squares_are_correctly_rounded(self):
        # libm `pow` rounds this delta ** 2 away from delta * delta, by enough to move the SD
        delta = 0.3067177786403865
        res = summarize_distances("g", [0.0, 2 * delta])
        assert res.sd_d == math.sqrt(2 * (delta * delta))

    def test_upper_at_least_mean(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            ds = list(rng.uniform(0, 2, size=rng.integers(1, 10)))
            res = summarize_distances("g", ds)
            assert res.upper >= res.mean_d - 1e-12 and res.sd_d >= 0

    def test_translation_consistency(self):
        ds = [0.12, 0.5, 0.33, 0.7]
        base = summarize_distances("g", ds)
        shifted = summarize_distances("g", [d + 0.25 for d in ds])
        assert shifted.mean_d == pytest.approx(base.mean_d + 0.25, abs=1e-12)
        assert shifted.upper == pytest.approx(base.upper + 0.25, abs=1e-12)
        assert shifted.sd_d == pytest.approx(base.sd_d, abs=1e-12)

    def test_student_t_wider_than_z_for_small_n(self):
        ds = [0.1, 0.2, 0.3]
        z = summarize_distances("g", ds)
        t = summarize_distances("g", ds, use_t=True)
        assert t.upper > z.upper

    def test_t_quantile_matches_scipy(self):
        """Within a relative error of 1e-12 of scipy, for df 1 to 3,000."""
        dfs = np.arange(1, 3001)
        ours = np.array([attributes._t_975(df) for df in dfs.tolist()])
        np.testing.assert_allclose(ours, t_975(dfs), rtol=1e-12, atol=0)

    def test_query_excluded_from_own_group(self):
        query = labeled("shared", [1.0, 0.0], "male", "young")
        group = make_group(
            "male", (query, labeled("other", [0.0, 1.0], "male", "young"))
        )
        res = group_distances(ProjectionModel.identity(2), [query], group, ["male"])[0][0]
        assert res.n == 1 and res.mean_d == pytest.approx(1.0)

    def test_union_distance_equals_concatenation(self, labeled_pool):
        groups = build_groups(labeled_pool)
        query = labeled("q", np.arange(1.0, 7.0), "male", "young")
        model = ProjectionModel.identity(6)
        direct = group_distances(model, [query], groups, ["male"])[0][0]
        concat = make_group(
            "male", member_records(groups, "young_male") + member_records(groups, "older_male")
        )
        via_parts = group_distances(model, [query], concat, ["male"])[0][0]
        assert direct == via_parts


    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            dim = int(rng.integers(2, 24))
            model = ProjectionModel(np.eye(dim) + 0.3 * rng.normal(size=(dim, dim)))
            members = tuple(
                labeled(f"m{j}", rng.normal(size=dim), "male", "young")
                for j in range(int(rng.integers(1, 40)))
            )
            # every third trial queries with a member, which is left out
            query = members[0] if trial % 3 == 0 and len(members) > 1 else labeled(
                "q", rng.normal(size=dim), "male", "young"
            )
            q = project(model, query.vector)
            oracle = summarize_distances(
                "male",
                [
                    distance(q, project(model, m.vector))
                    for m in members
                    if m.image_id != query.image_id
                ],
            )
            res = group_distances(model, [query], make_group("male", members), ["male"])[0][0]
            assert res.n == oracle.n
            for field in ("mean_d", "sd_d", "upper"):
                assert getattr(res, field) == pytest.approx(
                    getattr(oracle, field), abs=1e-12
                )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_batch_equals_scalar_oracle_bit_for_bit(self, seed, use_t):
        """`group_distances` against `summarize_distances` of per-pair distances."""
        rng = np.random.default_rng(seed)
        model = ProjectionModel(np.eye(3) + 0.3 * rng.normal(size=(3, 3)))
        pool = []
        for gender in ("male", "female"):
            for age in ("young", "older"):
                # singletons; past 8 members, np.sum's pairwise order would show
                size = 1 if rng.random() < 0.3 else int(rng.integers(2, 13))
                # a zero-spread cell: every member the same vector
                shared = rng.normal(size=3) if rng.random() < 0.3 else None
                pool += [
                    labeled(f"{age}_{gender}_{j}",
                            rng.normal(size=3) if shared is None else shared, gender, age)
                    for j in range(size)
                ]
        groups = build_groups(pool)
        names = [str(n) for n in rng.permutation(attributes.ALL_GROUPS)]
        chosen = names[: int(rng.integers(1, 9))]
        # a member as query leaves its own entry out; a singleton's member empties it
        queries = [labeled("q", rng.normal(size=3), "male", "young"), pool[-1]]
        queries += [member_records(groups, n)[0] for n in names if len(groups.rows[n]) == 1]
        queries = list({q.image_id: q for q in queries}.values())  # a table's ids are distinct
        expected, empty = [], None
        for query in queries:
            results = []
            for g in chosen:
                ds = [1.0 - similarity_score(model, query, m)
                      for m in member_records(groups, g) if m.image_id != query.image_id]
                if not ds:
                    empty = empty or f"group '{g}' holds only the query image '{query.image_id}'"
                    continue
                results.append(summarize_distances(g, ds, use_t=use_t))
            expected.append(results)
        if empty is not None:
            with pytest.raises(ValidationError) as info:
                group_distances(model, queries, groups, chosen, use_t=use_t)
            assert str(info.value) == empty
        else:
            # tuple equality: == on group, n, mean_d, sd_d and upper
            assert group_distances(model, queries, groups, chosen, use_t=use_t) == expected

    def test_zero_projection_member_is_named(self):
        model = ProjectionModel(np.array([[1.0, 0.0], [0.0, 0.0]]))
        group = make_group(
            "male",
            (labeled("fine", [1.0, 1.0], "male", "young"),
             labeled("flat", [0.0, 2.0], "male", "young")),
        )
        query = labeled("q", [1.0, 0.0], "male", "young")
        with pytest.raises(DegenerateVectorError, match="flat"):
            group_distances(model, [query], group, ["male"])


def _pool(rng, dim, per_intersection):
    """`per_intersection` random labeled records per age x gender cell."""
    return [
        labeled(f"{age}_{gender}_{j:02d}", rng.normal(size=dim), gender, age)
        for gender in ("male", "female")
        for age in ("young", "older")
        for j in range(per_intersection)
    ]


class TestGallery:
    """`score_groups`' gallery and similarities against per-group projection and
    `rowwise_cosine`."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from(["intersection", "all", "unions"]))
    def test_group_slices_equal_per_group_cosines(self, dim, per, seed, mode):
        rng = np.random.default_rng(seed)
        model = ProjectionModel(np.eye(dim) + 0.3 * rng.normal(size=(dim, dim)))
        pool = _pool(rng, dim, per)
        groups = build_groups(pool)
        names = {"intersection": attributes.INTERSECTION_GROUPS,
                 "all": attributes.ALL_GROUPS,
                 "unions": attributes.UNION_GROUPS}[mode]
        # a member equal to the query scores exactly 1.0
        twin = labeled("twin", pool[-1].vector, "male", "young")
        queries = [labeled("q", rng.normal(size=dim), "male", "young"), twin]
        scores = score_groups(model, EmbeddingTable.of(queries), groups, names)
        rows = np.concatenate([groups.rows[n] for n in names])
        assert scores.image_ids.tolist() == [pool[r].image_id for r in sorted(set(rows))]
        for q, row in zip(queries, scores.sims):
            for g, members in zip(names, scores.members):
                oracle = rowwise_cosine(project_rows(model, [q]),
                                        project_rows(model, member_records(groups, g)))
                assert np.array_equal(row[members], oracle)
                assert scores.image_ids[members].tolist() == member_ids(groups, g)
        assert scores.sims[1][scores.image_ids == pool[-1].image_id].tolist() == [1.0]

    def test_scoring_needs_named_groups(self, labeled_pool):
        query = labeled("q", np.arange(1.0, 7.0), "male", "young")
        queries = EmbeddingTable.of([query])
        with pytest.raises(ValidationError, match="needs attribute groups"):
            score_groups(ProjectionModel.identity(6), queries, build_groups(labeled_pool), [])

    def test_scoring_refuses_a_group_name_its_groups_lack(self, labeled_pool):
        queries = EmbeddingTable.of([labeled("q", np.arange(1.0, 7.0), "male", "young")])
        with pytest.raises(ValidationError) as info:
            score_groups(ProjectionModel.identity(6), queries, build_groups(labeled_pool),
                         ["male", "men"])
        assert str(info.value) == "unknown attribute group 'men'"

    def test_union_rows_are_its_intersections_rows(self, labeled_pool):
        groups = build_groups(labeled_pool)
        query = labeled("q", np.arange(1.0, 7.0), "male", "young")
        scores = score_groups(ProjectionModel.identity(6), EmbeddingTable.of([query]), groups,
                              attributes.ALL_GROUPS)
        sims = scores.sims
        assert len(scores.image_ids) == len(labeled_pool)
        rows = dict(zip(attributes.ALL_GROUPS, scores.members))
        for union, (a, b) in (("male", ("young_male", "older_male")),
                              ("female", ("young_female", "older_female")),
                              ("young", ("young_male", "young_female")),
                              ("older", ("older_male", "older_female"))):
            assert rows[union].tolist() == rows[a].tolist() + rows[b].tolist()
            assert np.array_equal(sims[0][rows[union]],
                                  np.concatenate([sims[0][rows[a]], sims[0][rows[b]]]))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=4),
                      st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0])),
            min_size=1, max_size=20, unique_by=lambda member: member[0],
        )
    )
    def test_rank_orders_by_similarity_then_image_id(self, members):
        query = labeled("query", [1.0, 0.0], "male", "young")
        group = make_group(
            "male", tuple(labeled(i, [0.5, 0.5], "male", "young") for i, _ in members)
        )
        model = ProjectionModel.identity(2)
        # equal vectors: image_id alone orders the ranking
        scores = score_groups(model, EmbeddingTable.of([query]), group, ["male"])
        id_rank = np.argsort(np.argsort(scores.image_ids))
        image_ids, _ = selector._ranking("male", query.image_id, query.identity_id,
                                         scores.sims[0], scores, scores.members[0], id_rank)
        assert image_ids.tolist() == sorted(member_ids(group, "male"))
        assert len(image_ids) == len(members)
        # given similarities, signed zeros among them: -0.0 and 0.0 tie
        sims = np.array([sim for _, sim in members])
        image_ids, similarities = selector._ranking("male", query.image_id,
                                                    query.identity_id, sims, scores,
                                                    scores.members[0], id_rank)
        oracle = sorted(zip(sims.tolist(), member_ids(group, "male")),
                        key=lambda p: (-p[0], p[1]))
        assert list(zip(similarities.tolist(), image_ids.tolist())) == oracle

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.sets(st.integers(0, 15), min_size=2, max_size=5),
           st.integers(0, 2**32 - 1), st.permutations(attributes.ALL_GROUPS), st.integers(2, 8))
    def test_first_zero_projection_is_named_in_table_order(self, per, zero, seed, names,
                                                           n_groups):
        rng = np.random.default_rng(seed)
        weight = np.eye(4)
        weight[:, 0] = 0.0  # a vector that is zero past its first component projects to zero
        model = ProjectionModel(weight)
        pool = _pool(rng, 4, per)
        zero = {i % len(pool) for i in zero}
        pool = [
            labeled(r.image_id, [r.vector[0], 0.0, 0.0, 0.0], r.gender, r.age_group)
            if i in zero else r
            for i, r in enumerate(pool)
        ]
        groups = build_groups(pool)
        chosen = names[:n_groups]
        # the gallery holds the chosen groups' rows in table (pool) order
        in_chosen = set(np.concatenate([groups.rows[n] for n in chosen]).tolist())
        flat = [r.image_id for i, r in enumerate(pool)
                if i in in_chosen and not project(model, r.vector).any()]
        queries = EmbeddingTable.of([labeled("q", np.ones(4), "male", "young")])
        if not flat:  # no chosen group holds a zero row
            score_groups(model, queries, groups, chosen)
        else:
            with pytest.raises(DegenerateVectorError) as info:
                score_groups(model, queries, groups, chosen)
            assert str(info.value) == f"projection of record '{flat[0]}' has zero norm"


class TestClassifyQuery:
    """The closest-group rule, as `recommend_batch` and `classification_report` apply it."""

    def test_planted_cluster_wins(self, clustered):
        groups = build_groups(list(clustered.candidates))
        model = ProjectionModel.identity(16)
        hits = 0
        queries = clustered.queries
        for q, (rec, _) in zip(queries, selector.recommend_batch(model, queries, groups)):
            hits += rec.selected_group == attributes.group_label(q.age_group, q.gender)
        assert hits / len(queries) >= 0.95

    def test_tie_breaks_lexicographically(self):
        members = tuple(labeled(f"m{i}", [1.0, float(i)], "male", "young") for i in range(3))
        # eight groups of the same members, "female" neither first nor last in ALL_GROUPS
        groups = make_groups({name: members for name in attributes.ALL_GROUPS})
        query = labeled("q", [1.0, 1.0], "male", "young")
        [(rec, _)] = selector.recommend_batch(ProjectionModel.identity(2),
                                              EmbeddingTable.of([query]), groups,
                                              group_mode="all")
        assert rec.selected_group == "female"

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(attributes.ALL_GROUPS), st.integers(0, 2**32 - 1))
    def test_closest_matches_min_oracle(self, names, seed):
        rng = np.random.default_rng(seed)
        # few distinct values, so that rows hold ties
        upper = rng.choice([0.0, 0.25, 0.5], size=(6, len(names)))
        expected = [min(zip(row.tolist(), names))[1] for row in upper]
        assert [names[g] for g in closest(names, upper)] == expected

    def test_scale_invariance(self, clustered):
        groups = build_groups(list(clustered.candidates))
        model = ProjectionModel.identity(16)
        scaled_groups = make_groups({
            n: tuple(
                labeled(m.image_id, 3.5 * m.vector, m.gender, m.age_group)
                for m in member_records(groups, n)
            )
            for n in attributes.INTERSECTION_GROUPS
        })
        queries = EmbeddingTable.of(list(clustered.queries)[:10])
        assert [
            rec.selected_group for rec, _ in selector.recommend_batch(model, queries, groups)
        ] == [
            rec.selected_group
            for rec, _ in selector.recommend_batch(model, queries, scaled_groups)
        ]


class TestAuc:
    def test_worked_example(self):
        assert auc([0.9, 0.8, 0.3, 0.1], [True, False, True, False]) == 0.75

    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0

    def test_all_ties(self):
        assert auc([0.5] * 6, [True, False, True, False, True, False]) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(EvaluationError):
            auc([0.1, 0.2], [True, True])

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.booleans()), min_size=2, max_size=200
        ).filter(lambda xs: len({l for _, l in xs}) == 2)
    )
    def test_matches_pair_counting_oracle(self, pairs):
        scores = [float(s) for s, _ in pairs]
        labels = [l for _, l in pairs]
        wins = 0.0
        total = 0
        for sp, lp in zip(scores, labels):
            if not lp:
                continue
            for sn, ln in zip(scores, labels):
                if ln:
                    continue
                total += 1
                wins += 1.0 if sp > sn else 0.5 if sp == sn else 0.0
        assert auc(scores, labels) == pytest.approx(wins / total, abs=1e-12)


class TestEvaluateClassification:
    def test_perfect_separation(self, clustered):
        groups = build_groups(list(clustered.candidates))
        report = classify(
            ProjectionModel.identity(16), clustered.queries, groups, "four-way"
        )
        assert report.accuracy >= 0.95
        assert all(v >= 0.95 for v in report.auc_per_category.values())

    def test_binary_gender(self, clustered):
        groups = build_groups(list(clustered.candidates))
        report = classify(
            ProjectionModel.identity(16), clustered.queries, groups, "gender"
        )
        assert report.categories == ["female", "male"]
        assert report.accuracy >= 0.95

    def test_confusion_counts_sum_to_queries(self, clustered):
        groups = build_groups(list(clustered.candidates))
        queries = clustered.queries
        report = classify(
            ProjectionModel.identity(16), queries, groups, "four-way"
        )
        assert sum(report.confusion.values()) == len(queries)

    def test_recall_times_positives_is_integer(self, clustered):
        groups = build_groups(list(clustered.candidates))
        queries = clustered.queries
        report = classify(
            ProjectionModel.identity(16), queries, groups, "age"
        )
        for c in report.categories:
            positives = queries.age_groups.count(c)
            assert (report.recall[c] * positives) == pytest.approx(
                round(report.recall[c] * positives), abs=1e-9
            )

    def test_degenerate_model_gives_chance_auc(self):
        # rank-1 model collapses the positive orthant onto one ray: every
        # distance is 0, every group ties, and AUC sits at tie-credit chance
        rng = np.random.default_rng(13)
        pool = []
        for gender in ("male", "female"):
            for age in ("young", "older"):
                for j in range(4):
                    pool.append(
                        labeled(f"{age}_{gender}_{j}", rng.uniform(0.1, 1.0, size=4),
                                gender, age)
                    )
        queries = [
            labeled(f"q{j}", rng.uniform(0.1, 1.0, size=4),
                    ("male", "female")[j % 2], ("young", "older")[j // 2 % 2])
            for j in range(8)
        ]
        weight = np.zeros((4, 4))
        weight[0, :] = 1.0
        report = classify(
            ProjectionModel(weight), EmbeddingTable.of(queries), build_groups(pool), "gender"
        )
        for c in report.categories:
            assert report.auc_per_category[c] == pytest.approx(0.5, abs=1e-9)

    def test_report_needs_each_task_group_in_the_table(self, clustered):
        groups = build_groups(list(clustered.candidates))
        queries = clustered.queries
        scores = score_groups(ProjectionModel.identity(16), queries, groups, ["female"])
        with pytest.raises(ValidationError, match="gender"):
            attributes.classification_report("gender", queries, ["female"], scores.upper)

    def test_report_json_rounds_to_three_places(self, clustered):
        groups = build_groups(list(clustered.candidates))
        report = classify(
            ProjectionModel.identity(16), clustered.queries, groups, "gender"
        )
        payload = report.to_json()
        assert payload["accuracy"] == round(report.accuracy, 3)
        assert set(payload["per_category"]) == set(report.categories)
