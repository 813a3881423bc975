import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facesim import attributes, selector
from facesim.attributes import (
    AttributeGroup,
    auc,
    build_groups,
    classify_query,
    evaluate_classification,
    group_distance,
    similarity_table,
    summarize_distances,
)
from facesim.errors import DegenerateVectorError, EvaluationError, ValidationError
from facesim.metric import ProjectionModel, distance, project, project_records, rowwise_cosine

from conftest import make_record


def labeled(image_id, vector, gender, age_group):
    return make_record(
        image_id, vector, role="source", target_id=None, gender=gender, age_group=age_group
    )


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
        assert set(groups) == set(attributes.ALL_GROUPS)
        assert all(len(groups[n]) == 5 for n in attributes.INTERSECTION_GROUPS)
        assert all(len(groups[n]) == 10 for n in attributes.UNION_GROUPS)

    def test_membership_predicate(self, labeled_pool):
        groups = build_groups(labeled_pool)
        target = "young_male_0"
        containing = {n for n, g in groups.items() if target in g.member_ids}
        assert containing == {"young_male", "young", "male"}

    def test_union_is_concatenation_of_intersections(self, labeled_pool):
        groups = build_groups(labeled_pool)
        assert set(groups["male"].member_ids) == set(
            groups["young_male"].member_ids + groups["older_male"].member_ids
        )

    def test_unknown_labels_excluded(self, labeled_pool):
        extra = labeled_pool + [
            make_record("mystery", np.ones(6), role="source", target_id=None)
        ]
        groups = build_groups(extra)
        assert all("mystery" not in g.member_ids for g in groups.values())

    def test_empty_group_raises(self, labeled_pool):
        pool = [r for r in labeled_pool if not (r.age_group == "older" and r.gender == "female")]
        with pytest.raises(ValidationError, match="older_female"):
            build_groups(pool)

    def test_sampling_is_seeded(self, labeled_pool):
        g1 = build_groups(labeled_pool, per_intersection=3, seed=5)
        g2 = build_groups(labeled_pool, per_intersection=3, seed=5)
        g3 = build_groups(labeled_pool, per_intersection=3, seed=6)
        assert g1["young_male"].member_ids == g2["young_male"].member_ids
        assert any(
            g1[n].member_ids != g3[n].member_ids for n in attributes.INTERSECTION_GROUPS
        )

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
        res = group_distance(
            ProjectionModel.identity(2), query, AttributeGroup("male", members)
        )
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

    def test_query_excluded_from_own_group(self):
        query = labeled("shared", [1.0, 0.0], "male", "young")
        group = AttributeGroup(
            "male", (query, labeled("other", [0.0, 1.0], "male", "young"))
        )
        res = group_distance(ProjectionModel.identity(2), query, group)
        assert res.n == 1 and res.mean_d == pytest.approx(1.0)

    def test_union_distance_equals_concatenation(self, labeled_pool):
        groups = build_groups(labeled_pool)
        query = labeled("q", np.arange(1.0, 7.0), "male", "young")
        model = ProjectionModel.identity(6)
        direct = group_distance(model, query, groups["male"])
        concat = AttributeGroup(
            "male", groups["young_male"].members + groups["older_male"].members
        )
        via_parts = group_distance(model, query, concat)
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
            res = group_distance(model, query, AttributeGroup("male", members))
            assert res.n == oracle.n
            for field in ("mean_d", "sd_d", "upper"):
                assert getattr(res, field) == pytest.approx(
                    getattr(oracle, field), abs=1e-12
                )

    def test_zero_projection_member_is_named(self):
        model = ProjectionModel(np.array([[1.0, 0.0], [0.0, 0.0]]))
        group = AttributeGroup(
            "male",
            (labeled("fine", [1.0, 1.0], "male", "young"),
             labeled("flat", [0.0, 2.0], "male", "young")),
        )
        query = labeled("q", [1.0, 0.0], "male", "young")
        with pytest.raises(DegenerateVectorError, match="flat"):
            group_distance(model, query, group)


def _pool(rng, dim, per_intersection):
    """`per_intersection` random labeled records per age x gender cell."""
    return [
        labeled(f"{age}_{gender}_{j:02d}", rng.normal(size=dim), gender, age)
        for gender in ("male", "female")
        for age in ("young", "older")
        for j in range(per_intersection)
    ]


class TestGallery:
    """`similarity_table` against per-group projection and `rowwise_cosine`."""

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
        chosen = [groups[n] for n in names]
        # a member equal to the query scores exactly 1.0
        queries = [labeled("q", rng.normal(size=dim), "male", "young"), pool[-1]]
        gallery, sims = similarity_table(model, queries, chosen)
        assert len(gallery.image_ids) == len({id(m) for g in chosen for m in g.members})
        for q, row in zip(queries, sims):
            for g, rows in zip(chosen, gallery.members):
                oracle = rowwise_cosine(project_records(model, [q]),
                                        project_records(model, g.members))
                assert np.array_equal(row[rows], oracle)
                assert gallery.image_ids[rows].tolist() == g.member_ids
        assert sims[1][gallery.image_ids == pool[-1].image_id].tolist() == [1.0]

    def test_union_rows_are_its_intersections_rows(self, labeled_pool):
        groups = build_groups(labeled_pool)
        chosen = [groups[n] for n in attributes.ALL_GROUPS]
        query = labeled("q", np.arange(1.0, 7.0), "male", "young")
        gallery, sims = similarity_table(ProjectionModel.identity(6), [query], chosen)
        assert len(gallery.image_ids) == len(labeled_pool)
        rows = dict(zip(attributes.ALL_GROUPS, gallery.members))
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
        group = AttributeGroup(
            "male", tuple(labeled(i, [0.5, 0.5], "male", "young") for i, _ in members)
        )
        model = ProjectionModel.identity(2)
        # equal vectors: image_id alone orders the ranking
        ranking = selector.rank_candidates(model, query, group)
        assert [c.image_id for c in ranking] == sorted(group.member_ids)
        assert [c.rank for c in ranking] == list(range(1, len(members) + 1))
        # given similarities, signed zeros among them: -0.0 and 0.0 tie
        gallery, _ = similarity_table(model, [query], [group])
        sims = np.array([sim for _, sim in members])
        ranking = selector._rank(group.name, query, sims, gallery, gallery.members[0])
        oracle = sorted(zip(sims.tolist(), group.member_ids), key=lambda p: (-p[0], p[1]))
        assert [(c.similarity, c.image_id) for c in ranking] == oracle

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.sets(st.integers(0, 15), min_size=2, max_size=5),
           st.integers(0, 2**32 - 1), st.permutations(attributes.ALL_GROUPS), st.integers(2, 8))
    def test_first_zero_projection_is_named_as_per_group(self, per, zero, seed, names, n_groups):
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
        chosen = [groups[n] for n in names[:n_groups]]
        expected = None
        for g in chosen:  # the groups projected one at a time, in order
            try:
                project_records(model, g.members)
            except DegenerateVectorError as exc:
                expected = str(exc)
                break
        query = labeled("q", np.ones(4), "male", "young")
        if expected is None:  # no chosen group holds a zero row
            similarity_table(model, [query], chosen)
        else:
            with pytest.raises(DegenerateVectorError) as info:
                similarity_table(model, [query], chosen)
            assert str(info.value) == expected


class TestClassifyQuery:
    def test_planted_cluster_wins(self, clustered):
        groups = build_groups(list(clustered.candidates))
        model = ProjectionModel.identity(16)
        hits = 0
        queries = list(clustered.queries)
        for q in queries:
            predicted = classify_query(
                model, q, [groups[n] for n in attributes.INTERSECTION_GROUPS]
            )
            hits += predicted == attributes.group_label(q.age_group, q.gender)
        assert hits / len(queries) >= 0.95

    def test_tie_breaks_lexicographically(self):
        members = tuple(labeled(f"m{i}", [1.0, float(i)], "male", "young") for i in range(3))
        g_b = AttributeGroup("bravo", members)
        g_a = AttributeGroup("alpha", members)
        query = labeled("q", [1.0, 1.0], "male", "young")
        assert classify_query(ProjectionModel.identity(2), query, [g_b, g_a]) == "alpha"

    def test_scale_invariance(self, clustered):
        groups = build_groups(list(clustered.candidates))
        model = ProjectionModel.identity(16)
        names = [groups[n] for n in attributes.INTERSECTION_GROUPS]
        scaled_groups = {
            n: AttributeGroup(
                n,
                tuple(
                    labeled(m.image_id, 3.5 * m.vector, m.gender, m.age_group)
                    for m in groups[n].members
                ),
            )
            for n in attributes.INTERSECTION_GROUPS
        }
        scaled = [scaled_groups[n] for n in attributes.INTERSECTION_GROUPS]
        for q in list(clustered.queries)[:10]:
            assert classify_query(model, q, names) == classify_query(model, q, scaled)

    def test_needs_two_groups(self):
        query = labeled("q", [1.0, 0.0], "male", "young")
        with pytest.raises(ValidationError):
            classify_query(ProjectionModel.identity(2), query, [])


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
        report = evaluate_classification(
            ProjectionModel.identity(16), list(clustered.queries), groups, "four-way"
        )
        assert report.accuracy >= 0.95
        assert all(v >= 0.95 for v in report.auc_per_category.values())

    def test_binary_gender(self, clustered):
        groups = build_groups(list(clustered.candidates))
        report = evaluate_classification(
            ProjectionModel.identity(16), list(clustered.queries), groups, "gender"
        )
        assert report.categories == ["female", "male"]
        assert report.accuracy >= 0.95

    def test_confusion_counts_sum_to_queries(self, clustered):
        groups = build_groups(list(clustered.candidates))
        queries = list(clustered.queries)
        report = evaluate_classification(
            ProjectionModel.identity(16), queries, groups, "four-way"
        )
        assert sum(report.confusion.values()) == len(queries)

    def test_recall_times_positives_is_integer(self, clustered):
        groups = build_groups(list(clustered.candidates))
        queries = list(clustered.queries)
        report = evaluate_classification(
            ProjectionModel.identity(16), queries, groups, "age"
        )
        for c in report.categories:
            positives = sum(
                1 for q in queries if attributes._true_category(q, "age") == c
            )
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
        report = evaluate_classification(
            ProjectionModel(weight), queries, build_groups(pool), "gender"
        )
        for c in report.categories:
            assert report.auc_per_category[c] == pytest.approx(0.5, abs=1e-9)

    def test_report_json_rounds_to_three_places(self, clustered):
        groups = build_groups(list(clustered.candidates))
        report = evaluate_classification(
            ProjectionModel.identity(16), list(clustered.queries), groups, "gender"
        )
        payload = report.to_json()
        assert payload["accuracy"] == round(report.accuracy, 3)
        assert set(payload["per_category"]) == set(report.categories)
