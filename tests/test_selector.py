import numpy as np
import pytest

from facesim import attributes, selector
from facesim.attributes import (
    AttributeGroup,
    build_groups,
    similarity_table,
    summarize_distances,
)
from facesim.errors import DegenerateVectorError, ValidationError
from facesim.metric import ProjectionModel, cosine, project, similarity_score

from conftest import make_record


def candidate(image_id, vector, identity_id=None, gender="male", age_group="young"):
    return make_record(
        image_id, vector, identity_id=identity_id, role="source", target_id=None,
        gender=gender, age_group=age_group,
    )


@pytest.fixture()
def simple_group():
    # similarities to query [1, 0]: 0.9-ish ordering by construction
    members = (
        candidate("high", [1.0, 0.1]),
        candidate("mid", [1.0, 1.0]),
        candidate("low", [-0.5, 1.0]),
    )
    return AttributeGroup("young_male", members)


QUERY = make_record("query", [1.0, 0.0], identity_id="query_identity", role="target",
                    target_id=None, gender="male", age_group="young")


def rank(model, query, group):
    """The group's full ranking for the query, as `recommend_batch` ranks a selected group."""
    gallery, sims = similarity_table(model, [query], [group])
    return selector._rank(group.name, query, sims[0], gallery, gallery.members[0])


class TestRankCandidates:
    def test_descending_ranks(self, simple_group):
        ranking = rank(ProjectionModel.identity(2), QUERY, simple_group)
        assert [c.image_id for c in ranking] == ["high", "mid", "low"]
        assert [c.rank for c in ranking] == [1, 2, 3]

    def test_equal_similarity_ordered_by_image_id(self):
        group = AttributeGroup(
            "young_male",
            (candidate("zeta", [0.0, 1.0]), candidate("alpha", [0.0, 2.0])),
        )
        ranking = rank(ProjectionModel.identity(2), QUERY, group)
        assert [c.image_id for c in ranking] == ["alpha", "zeta"]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(14)
        model = ProjectionModel(np.eye(8) + 0.2 * rng.normal(size=(8, 8)))
        members = tuple(
            candidate(f"m{i:03d}", rng.normal(size=8)) for i in range(100)
        )
        group = AttributeGroup("young_male", members)
        query = make_record("q", rng.normal(size=8), role="target", target_id=None)
        ranking = rank(model, query, group)
        oracle = sorted(
            ((similarity_score(model, query, m), m.image_id) for m in members),
            key=lambda p: (-p[0], p[1]),
        )
        assert [c.image_id for c in ranking] == [image_id for _, image_id in oracle]
        assert sorted(c.rank for c in ranking) == list(range(1, 101))

    def test_similarities_match_scalar_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            dim = int(rng.integers(2, 24))
            model = ProjectionModel(np.eye(dim) + 0.3 * rng.normal(size=(dim, dim)))
            members = tuple(
                candidate(f"m{i:02d}", rng.normal(size=dim))
                for i in range(int(rng.integers(1, 40)))
            )
            query = make_record("q", rng.normal(size=dim), role="target", target_id=None)
            q = project(model, query.vector)
            oracle = {m.image_id: cosine(q, project(model, m.vector)) for m in members}
            ranking = rank(
                model, query, AttributeGroup("young_male", members)
            )
            assert len(ranking) == len(members)
            for c in ranking:
                assert c.similarity == pytest.approx(oracle[c.image_id], abs=1e-12)

    def test_zero_projection_member_is_named(self):
        model = ProjectionModel(np.array([[1.0, 0.0], [0.0, 0.0]]))
        group = AttributeGroup(
            "young_male", (candidate("fine", [1.0, 1.0]), candidate("flat", [0.0, 2.0]))
        )
        with pytest.raises(DegenerateVectorError, match="flat"):
            rank(model, QUERY, group)

    def test_query_and_identity_excluded(self):
        group = AttributeGroup(
            "young_male",
            (
                candidate("query", [1.0, 0.0]),
                candidate("twin", [1.0, 0.0], identity_id="query_identity"),
                candidate("ok", [0.5, 0.5]),
            ),
        )
        ranking = rank(ProjectionModel.identity(2), QUERY, group)
        assert [c.image_id for c in ranking] == ["ok"]

    def test_all_excluded_raises(self):
        group = AttributeGroup("young_male", (candidate("query", [1.0, 0.0]),))
        with pytest.raises(ValidationError):
            rank(ProjectionModel.identity(2), QUERY, group)

    def test_scale_invariant(self, simple_group):
        scaled = AttributeGroup(
            simple_group.name,
            tuple(
                candidate(m.image_id, 7.0 * m.vector, identity_id=m.identity_id)
                for m in simple_group.members
            ),
        )
        model = ProjectionModel.identity(2)
        assert [
            c.image_id for c in rank(model, QUERY, simple_group)
        ] == [c.image_id for c in rank(model, QUERY, scaled)]


class TestSelectGroup:
    def test_intersection_mode_default(self, clustered):
        groups = build_groups(list(clustered.candidates))
        model = ProjectionModel.identity(16)
        q = next(iter(clustered.queries))
        name = selector.recommend_batch(model, [q], groups)[0][0].selected_group
        assert name in attributes.INTERSECTION_GROUPS
        assert name == attributes.group_label(q.age_group, q.gender)

    def test_all_mode_allows_unions(self, clustered):
        groups = build_groups(list(clustered.candidates))
        model = ProjectionModel.identity(16)
        q = next(iter(clustered.queries))
        [(rec, _)] = selector.recommend_batch(model, [q], groups, group_mode="all")
        name = rec.selected_group
        assert name in attributes.ALL_GROUPS

    def test_unknown_mode_rejected(self, clustered):
        groups = build_groups(list(clustered.candidates))
        with pytest.raises(ValidationError):
            selector.recommend_batch(
                ProjectionModel.identity(16), [next(iter(clustered.queries))], groups,
                group_mode="both",
            )


class TestRecommend:
    def test_bottom_k(self, clustered):
        groups = build_groups(list(clustered.candidates))
        model = ProjectionModel.identity(16)
        q = next(iter(clustered.queries))
        rec = selector.recommend(model, q, groups, k=5)
        assert len(rec.candidates) == 5
        sims = [c.similarity for c in rec.candidates]
        assert sims == sorted(sims)
        # exhaustive-scan check of the minimum
        group = groups[rec.selected_group]
        eligible = [
            m for m in group.members
            if m.image_id != q.image_id and m.identity_id != q.identity_id
        ]
        best = min(similarity_score(model, q, m) for m in eligible)
        assert rec.candidates[0].similarity == best

    @staticmethod
    def _groups_with(simple_group):
        far = (candidate("far_a", [-1.0, 0.1]), candidate("far_b", [-1.0, -0.1]))
        groups = {
            name: AttributeGroup(name, far)
            for name in attributes.INTERSECTION_GROUPS
            if name != simple_group.name
        }
        groups[simple_group.name] = simple_group
        return groups

    def test_k_clamps_to_group_size(self, simple_group):
        rec = selector.recommend(
            ProjectionModel.identity(2), QUERY, self._groups_with(simple_group), k=99
        )
        assert rec.selected_group == "young_male"
        assert len(rec.candidates) == 3

    def test_batch_equals_one_query_calls(self, clustered):
        groups = build_groups(list(clustered.candidates))
        rng = np.random.default_rng(16)
        model = ProjectionModel(np.eye(16) + 0.1 * rng.normal(size=(16, 16)))
        queries = list(clustered.queries)[:8]
        batch = selector.recommend_batch(model, queries, groups, k=3, group_mode="all")
        for q, (rec, ranking) in zip(queries, batch):
            assert rec == selector.recommend(model, q, groups, k=3, group_mode="all")
            assert ranking == rank(model, q, groups[rec.selected_group])

    def test_all_groups_tied_select_first_name(self):
        # every member vector equal: all eight upper bounds tie exactly, and
        # min((upper, name)) picks "female", not ALL_GROUPS' first "older_female"
        pool = [
            candidate(f"{age}_{gender}", [1.0, 0.0], gender=gender, age_group=age)
            for gender in ("male", "female")
            for age in ("young", "older")
        ]
        groups = build_groups(pool)
        [(rec, _)] = selector.recommend_batch(
            ProjectionModel.identity(2), [QUERY], groups, k=1, group_mode="all"
        )
        assert rec.selected_group == "female"

    def test_composition_consistency(self, clustered):
        groups = build_groups(list(clustered.candidates))
        model = ProjectionModel.identity(16)
        for q in list(clustered.queries)[:5]:
            rec = selector.recommend(model, q, groups, k=2)
            # the scalar oracle: least CI upper bound over the intersections, ties by name
            closest = min(
                (summarize_distances(name, [1.0 - similarity_score(model, q, m)
                                            for m in groups[name].members
                                            if m.image_id != q.image_id]).upper, name)
                for name in attributes.INTERSECTION_GROUPS
            )
            assert rec.selected_group == closest[1]

    def test_never_recommends_query(self, clustered):
        groups = build_groups(list(clustered.candidates))
        model = ProjectionModel.identity(16)
        for q in list(clustered.queries)[:10]:
            rec = selector.recommend(model, q, groups, k=4)
            assert all(c.image_id != q.image_id for c in rec.candidates)

    def test_k_must_be_positive(self, clustered):
        groups = build_groups(list(clustered.candidates))
        with pytest.raises(ValidationError):
            selector.recommend(
                ProjectionModel.identity(16), next(iter(clustered.queries)), groups, k=0
            )

    def test_json_payload(self, simple_group):
        rec = selector.recommend(
            ProjectionModel.identity(2), QUERY, self._groups_with(simple_group), k=1
        )
        payload = rec.to_json()
        assert payload["query_id"] == "query"
        assert payload["candidates"][0]["image_id"] == "low"
