import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facesim import attributes, selector
from facesim.attributes import build_groups, score_groups
from facesim.corpus import EmbeddingTable
from facesim.errors import DegenerateVectorError, ValidationError
from facesim.metric import ProjectionModel

import scalar_oracle
from conftest import make_group, make_groups, make_record, member_records
from scalar_oracle import cosine, project, similarity_score, summarize_distances


def candidate(image_id, vector, identity_id=None, gender="male", age_group="young"):
    return make_record(
        image_id, vector, identity_id=identity_id, role="source", target_id=None,
        gender=gender, age_group=age_group,
    )


# the name of every group a test here builds on its own
GROUP = "young_male"


@pytest.fixture()
def simple_group():
    # similarities to query [1, 0]: 0.9-ish ordering by construction
    members = (
        candidate("high", [1.0, 0.1]),
        candidate("mid", [1.0, 1.0]),
        candidate("low", [-0.5, 1.0]),
    )
    return make_group(GROUP, members)


QUERY = make_record("query", [1.0, 0.0], identity_id="query_identity", role="target",
                    target_id=None, gender="male", age_group="young")


def rank(model, query, groups):
    """Group `GROUP`'s full ranking for the query, as `recommend_batch` ranks a selected
    group: (image_id, similarity) pairs, most similar first."""
    scores = score_groups(model, EmbeddingTable.of([query]), groups, [GROUP])
    image_ids, similarities = selector._ranking(
        GROUP, query.image_id, query.identity_id, scores.sims[0], scores,
        scores.members[0], np.argsort(np.argsort(scores.image_ids)),
    )
    return list(zip(image_ids.tolist(), similarities.tolist()))


def ids(ranking):
    return [image_id for image_id, _ in ranking]


def oracle_rank(model, query, groups, name):
    """Group `name`'s full ranking for the query, by the per-candidate oracle."""
    scores = score_groups(model, EmbeddingTable.of([query]), groups, [name])
    return scalar_oracle.rank(name, query, scores.sims[0], scores, scores.members[0])


def as_arrays(ranking):
    """A list of `RankedCandidate`s as `recommend_batch`'s two ranking arrays."""
    return ([c.image_id for c in ranking], [c.similarity for c in ranking])


class TestRankCandidates:
    def test_descending_ranks(self, simple_group):
        ranking = rank(ProjectionModel.identity(2), QUERY, simple_group)
        assert ids(ranking) == ["high", "mid", "low"]

    def test_equal_similarity_ordered_by_image_id(self):
        group = make_group(
            GROUP,
            (candidate("zeta", [0.0, 1.0]), candidate("alpha", [0.0, 2.0])),
        )
        ranking = rank(ProjectionModel.identity(2), QUERY, group)
        assert ids(ranking) == ["alpha", "zeta"]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(14)
        model = ProjectionModel(np.eye(8) + 0.2 * rng.normal(size=(8, 8)))
        members = tuple(
            candidate(f"m{i:03d}", rng.normal(size=8)) for i in range(100)
        )
        group = make_group(GROUP, members)
        query = make_record("q", rng.normal(size=8), role="target", target_id=None)
        ranking = rank(model, query, group)
        oracle = sorted(
            ((similarity_score(model, query, m), m.image_id) for m in members),
            key=lambda p: (-p[0], p[1]),
        )
        assert ids(ranking) == [image_id for _, image_id in oracle]

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
            ranking = rank(model, query, make_group(GROUP, members))
            assert len(ranking) == len(members)
            for image_id, similarity in ranking:
                assert similarity == pytest.approx(oracle[image_id], abs=1e-12)

    def test_zero_projection_member_is_named(self):
        model = ProjectionModel(np.array([[1.0, 0.0], [0.0, 0.0]]))
        group = make_group(
            GROUP, (candidate("fine", [1.0, 1.0]), candidate("flat", [0.0, 2.0]))
        )
        with pytest.raises(DegenerateVectorError, match="flat"):
            rank(model, QUERY, group)

    def test_query_and_identity_excluded(self):
        group = make_group(
            GROUP,
            (
                candidate("query", [1.0, 0.0]),
                candidate("twin", [1.0, 0.0], identity_id="query_identity"),
                candidate("ok", [0.5, 0.5]),
            ),
        )
        ranking = rank(ProjectionModel.identity(2), QUERY, group)
        assert ids(ranking) == ["ok"]

    def test_all_excluded_raises(self):
        group = make_group(GROUP, (candidate("query", [1.0, 0.0]),))
        with pytest.raises(ValidationError):
            rank(ProjectionModel.identity(2), QUERY, group)

    def test_scale_invariant(self, simple_group):
        scaled = make_group(
            GROUP,
            tuple(
                candidate(m.image_id, 7.0 * m.vector, identity_id=m.identity_id)
                for m in member_records(simple_group, GROUP)
            ),
        )
        model = ProjectionModel.identity(2)
        assert ids(rank(model, QUERY, simple_group)) == ids(rank(model, QUERY, scaled))


class TestSelectGroup:
    def test_intersection_mode_default(self, clustered):
        groups = build_groups(list(clustered.candidates))
        model = ProjectionModel.identity(16)
        q = next(iter(clustered.queries))
        name = selector.recommend_batch(model, EmbeddingTable.of([q]), groups)[0][0].selected_group
        assert name in attributes.INTERSECTION_GROUPS
        assert name == attributes.group_label(q.age_group, q.gender)

    def test_all_mode_allows_unions(self, clustered):
        groups = build_groups(list(clustered.candidates))
        model = ProjectionModel.identity(16)
        q = next(iter(clustered.queries))
        [(rec, _)] = selector.recommend_batch(model, EmbeddingTable.of([q]), groups,
                                              group_mode="all")
        name = rec.selected_group
        assert name in attributes.ALL_GROUPS

    def test_unknown_mode_rejected(self, clustered):
        groups = build_groups(list(clustered.candidates))
        with pytest.raises(ValidationError):
            selector.recommend_batch(
                ProjectionModel.identity(16), clustered.queries, groups, group_mode="both",
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
        eligible = [
            m for m in member_records(groups, rec.selected_group)
            if m.image_id != q.image_id and m.identity_id != q.identity_id
        ]
        best = min(similarity_score(model, q, m) for m in eligible)
        assert rec.candidates[0].similarity == best

    @staticmethod
    def _groups_with(simple_group):
        far = (candidate("far_a", [-1.0, 0.1]), candidate("far_b", [-1.0, -0.1]))
        members = {name: far for name in attributes.INTERSECTION_GROUPS}
        members[GROUP] = member_records(simple_group, GROUP)
        return make_groups(members)

    def test_k_clamps_to_group_size(self, simple_group):
        rec = selector.recommend(
            ProjectionModel.identity(2), QUERY, self._groups_with(simple_group), k=99
        )
        assert rec.selected_group == "young_male"
        # least similar first, each with its place in the full ranking
        assert [(c.image_id, c.rank) for c in rec.candidates] == [
            ("low", 3), ("mid", 2), ("high", 1)
        ]

    def test_batch_equals_one_query_calls(self, clustered):
        groups = build_groups(list(clustered.candidates))
        rng = np.random.default_rng(16)
        model = ProjectionModel(np.eye(16) + 0.1 * rng.normal(size=(16, 16)))
        queries = list(clustered.queries)[:8]
        batch = selector.recommend_batch(model, EmbeddingTable.of(queries), groups, k=3,
                                         group_mode="all")
        for q, (rec, ranking) in zip(queries, batch):
            assert rec == selector.recommend(model, q, groups, k=3, group_mode="all")
            image_ids, sims = ranking
            assert (image_ids.tolist(), sims.tolist()) == as_arrays(
                oracle_rank(model, q, groups, rec.selected_group)
            )

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
            ProjectionModel.identity(2), EmbeddingTable.of([QUERY]), groups, k=1,
            group_mode="all",
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
                                            for m in member_records(groups, name)
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


OTHER_IDS = st.text(min_size=1, max_size=3).filter(lambda image_id: image_id != "query")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(OTHER_IDS, st.booleans(), st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 5e-324])),
        min_size=1, max_size=12, unique_by=lambda member: member[0],
    ),
    st.booleans(),
)
def test_array_ranking_equals_the_per_candidate_oracle(members, query_in_group):
    """`selector._ranking` against the oracle, id for id and bit for bit: ties (signed zeros
    among them), the query's image and identity excluded, and groups left with no one."""
    records = [
        candidate(image_id, [1.0, 0.5], identity_id="query_identity" if twin else None)
        for image_id, twin, _ in members
    ] + ([candidate("query", [1.0, 0.0])] if query_in_group else [])
    group = make_group(GROUP, records)
    scores = score_groups(ProjectionModel.identity(2), EmbeddingTable.of([QUERY]), group, [GROUP])
    rows = scores.members[0]
    sims = np.zeros(len(scores.image_ids))
    sims[rows] = [sim for _, _, sim in members] + [0.5] * query_in_group

    def outcome(ranking):
        try:
            image_ids, similarities = ranking()
        except ValidationError as exc:
            return str(exc)
        return list(image_ids), [float(s).hex() for s in similarities]

    expected = outcome(lambda: as_arrays(scalar_oracle.rank("g", QUERY, sims, scores, rows)))
    got = outcome(lambda: selector._ranking("g", QUERY.image_id, QUERY.identity_id, sims,
                                            scores, rows, np.argsort(np.argsort(scores.image_ids))))
    assert got == expected
