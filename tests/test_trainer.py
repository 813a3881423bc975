import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facesim import corpus, evaluator, trainer
from facesim.errors import DegenerateVectorError, DivergenceError, ValidationError
from facesim.metric import ProjectionModel

from conftest import make_record, make_triplets, vectors
from scalar_oracle import cosine, triplet_loss


def build_triplet_corpus(vector_rows, labels, dim):
    """Tiny corpus: one unanimous triplet per (c, a, b) vector row, as a triplet table."""
    records, manifest = [], {}
    for i, (c, a, b) in enumerate(vector_rows):
        ids = [f"i{i}c", f"i{i}a", f"i{i}b"]
        for image_id, vec in zip(ids, (c, a, b)):
            records.append(make_record(image_id, vec))
        manifest[f"t{i}"] = tuple(ids)
    votes = {t: label * 3 for t, label in zip(manifest, labels)}
    return make_triplets(corpus.EmbeddingTable.of(records), manifest, votes)


def role_ids(triplets, i):
    """Triplet i's reference, chosen and other image ids."""
    return [role[i] for role in triplets.role_ids()]


def role_by_role_loss_and_gradient(weight, ref, pos, neg, margin):
    """The hinge kernel as it was before the three roles were one block: the bit oracle."""
    u, v, w = ref @ weight.T, pos @ weight.T, neg @ weight.T
    nu, nv, nw = (np.linalg.norm(x, axis=1, keepdims=True) for x in (u, v, w))
    cos_pos = np.sum(u * v, axis=1, keepdims=True) / (nu * nv)
    cos_neg = np.sum(u * w, axis=1, keepdims=True) / (nu * nw)
    hinge = cos_neg - cos_pos + margin
    inactive = hinge <= 0.0
    hinge[inactive] = 0.0
    active = ~inactive
    g_ref = active * (w / (nu * nw) - v / (nu * nv) - (cos_neg - cos_pos) / (nu * nu) * u)
    g_pos = active * (cos_pos / (nv * nv) * v - u / (nu * nv))
    g_neg = active * (u / (nu * nw) - cos_neg / (nw * nw) * w)
    return hinge[:, 0], (g_ref.T @ ref + g_pos.T @ pos + g_neg.T @ neg) / len(ref)


def per_batch_gather_train(model, train, val, config):
    """The training loop before one stacked array: three role arrays gathered per batch
    with a list of rows, and an update that makes new arrays. The oracle of `train`."""
    ref, pos, neg = (vectors(train.table, role) for role in train.role_ids())
    consistent_val = val.take(val.admitted & val.consistent)
    order = list(range(len(train)))
    rng = np.random.default_rng(config.seed)
    weight = model.weight.copy()
    velocity = np.zeros_like(weight)
    history = trainer.TrainHistory()
    for _ in range(config.epochs):
        if config.shuffle:
            order = rng.permutation(len(train)).tolist()
        epoch_loss = 0.0
        active = 0
        for start in range(0, len(order), config.batch_size):
            rows = order[start : start + config.batch_size]
            losses, grad = trainer.batch_loss_and_gradient(
                weight, np.stack([ref[rows], pos[rows], neg[rows]]), config.margin
            )
            velocity = config.momentum * velocity - config.learning_rate * (
                grad + config.weight_decay * weight
            )
            weight = weight + velocity
            epoch_loss += float(losses.sum())
            active += int(np.count_nonzero(losses))
        history.mean_loss.append(epoch_loss / len(order))
        history.active_fraction.append(active / len(order))
        if len(consistent_val):
            acc, _ = evaluator.eval_triplets(ProjectionModel(weight), consistent_val)
            history.val_accuracy.append(acc)
        else:
            history.val_accuracy.append(float("nan"))
    return (model if config.epochs == 0 else ProjectionModel(weight)), history


def hinge(x, x_plus, x_minus, margin):
    """The kernel's hinge of one triplet of vectors already projected: W = I."""
    return trainer.triplet_hinge(np.eye(len(x)), x, x_plus, x_minus, margin)


class TestTripletLoss:
    def test_inactive_hinge_is_exactly_zero(self):
        # cos(x, x+) = 0.8, cos(x, x-) = 0.5
        x = np.array([1.0, 0.0])
        x_plus = np.array([0.8, 0.6])
        x_minus = np.array([0.5, np.sqrt(1 - 0.25)])
        assert hinge(x, x_plus, x_minus, 0.1) == 0.0

    def test_active_hinge_value(self):
        x = np.array([1.0, 0.0])
        x_plus = np.array([0.5, np.sqrt(0.75)])
        x_minus = np.array([0.8, 0.6])
        assert hinge(x, x_plus, x_minus, 0.1) == pytest.approx(0.4, abs=1e-12)

    def test_identical_options_give_margin(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([-2.0, 0.5, 1.0])
        assert hinge(x, y, y, 0.1) == 0.1

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        x, p, n = (rng.normal(size=6) for _ in range(3))
        base = hinge(x, p, n, 0.1)
        for a, b, c in [(2.0, 3.0, 0.5), (1e-3, 1.0, 1e3)]:
            assert hinge(a * x, b * p, c * n, 0.1) == pytest.approx(base, abs=1e-12)

    def test_hinge_boundary(self):
        # constructed so cos(x, x+) exceeds cos(x, x-) by more than m
        x = np.array([1.0, 0.0])
        p = np.array([1.0, 0.1])
        n = np.array([0.0, 1.0])
        assert cosine(x, p) > cosine(x, n) + 0.1
        assert hinge(x, p, n, 0.1) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.tuples(*[st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3])] * 3),
           st.sampled_from([0.0, 0.1, 0.7]))
    def test_kernel_hinge_matches_the_scalar_oracle(self, dim, seed, scales, margin):
        """At W = I the kernel's hinge is the oracle's `triplet_loss`, for components from
        1e-3 to 1e3. The kernel takes plain norms, without `cosine`'s max-abs scaling, so
        components whose squares underflow or overflow are outside this range."""
        rng = np.random.default_rng(seed)
        x, p, n = (scale * rng.normal(size=dim) for scale in scales)
        assert abs(hinge(x, p, n, margin) - triplet_loss(x, p, n, margin)) <= 1e-12


def finite_difference_gradient(weight, ref, pos, neg, margin, step):
    """Independent central-difference oracle over every weight entry."""
    def loss(w):
        def cs(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        return max(0.0, cs(w @ ref, w @ neg) - cs(w @ ref, w @ pos) + margin)

    grad = np.zeros_like(weight)
    for i in range(weight.shape[0]):
        for j in range(weight.shape[1]):
            wp, wm = weight.copy(), weight.copy()
            wp[i, j] += step
            wm[i, j] -= step
            grad[i, j] = (loss(wp) - loss(wm)) / (2 * step)
    return grad


class TestGradients:
    def test_inactive_batch_has_zero_gradient(self):
        triplets = build_triplet_corpus(
            [([1.0, 0.0], [1.0, 0.1], [0.0, 1.0])], ["A"], dim=2
        )
        losses, grad = trainer.batch_loss_and_gradient(np.eye(2), triplets.gather(), 0.1)
        assert losses.mean() == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 2)))

    def test_a_zero_weight_is_refused(self):
        triplets = build_triplet_corpus(
            [([1.0, 0.0], [1.0, 0.1], [0.0, 1.0])], ["A"], dim=2
        )
        with pytest.raises(DegenerateVectorError) as info:
            trainer.batch_loss_and_gradient(np.zeros((2, 2)), triplets.gather(), 0.1)
        assert str(info.value) == "projected vector has zero norm"

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        rows = [tuple(rng.normal(size=5) for _ in range(3)) for _ in range(4)]
        triplets = build_triplet_corpus(rows, ["A"] * 4, dim=5)
        model = ProjectionModel(np.eye(5) + 0.05 * rng.normal(size=(5, 5)))
        losses, grad = trainer.batch_loss_and_gradient(model.weight, triplets.gather(), 0.5)
        assert losses.mean() > 0
        fd = np.zeros((5, 5))
        for i in range(len(triplets)):
            fd += finite_difference_gradient(
                model.weight, *(triplets.table[j].vector for j in role_ids(triplets, i)),
                0.5, 1e-5,
            )
        fd /= len(triplets)
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
        assert rel.max() <= 1e-4

    def test_duplicate_triplet_keeps_mean(self):
        rng = np.random.default_rng(6)
        row = tuple(rng.normal(size=4) for _ in range(3))
        singleton = build_triplet_corpus([row], ["B"], dim=4)
        losses1, grad1 = trainer.batch_loss_and_gradient(np.eye(4), singleton.gather(), 0.3)
        losses2, grad2 = trainer.batch_loss_and_gradient(
            np.eye(4), singleton.take([0, 0]).gather(), 0.3
        )
        assert losses1.mean() == pytest.approx(losses2.mean(), abs=1e-15)
        np.testing.assert_allclose(grad1, grad2, atol=1e-15)

    def test_permutation_invariant_batch_loss(self):
        rng = np.random.default_rng(7)
        rows = [tuple(rng.normal(size=4) for _ in range(3)) for _ in range(6)]
        triplets = build_triplet_corpus(rows, ["A"] * 6, dim=4)
        weight = np.eye(4)
        fwd, _ = trainer.batch_loss_and_gradient(weight, triplets.gather(), 0.4)
        rev, _ = trainer.batch_loss_and_gradient(
            weight, triplets.take(range(5, -1, -1)).gather(), 0.4
        )
        assert fwd.mean() == pytest.approx(rev.mean(), abs=1e-12)

    def test_mixed_batch_matches_per_triplet_reference(self):
        rng = np.random.default_rng(12)
        rows = [tuple(rng.normal(size=5) for _ in range(3)) for _ in range(12)]
        triplets = build_triplet_corpus(rows, ["A", "B"] * 6, dim=5)
        model = ProjectionModel(np.eye(5) + 0.1 * rng.normal(size=(5, 5)))
        margin = 0.2
        w = model.weight
        losses = [
            triplet_loss(
                *(w @ triplets.table[j].vector for j in role_ids(triplets, i)), margin,
            )
            for i in range(len(triplets))
        ]
        assert 0 < sum(l > 0 for l in losses) < len(losses)
        batch, grad = trainer.batch_loss_and_gradient(w, triplets.gather(), margin)
        singles = [
            trainer.batch_loss_and_gradient(w, triplets.take([i]).gather(), margin)[1]
            for i in range(len(triplets))
        ]
        np.testing.assert_allclose(batch, losses, rtol=0, atol=1e-12)
        assert batch.mean() == pytest.approx(np.mean(losses), abs=1e-12)
        np.testing.assert_allclose(grad, np.mean(singles, axis=0), rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from([1.0, 1e-3, 1e3, 1e150]), st.sampled_from([0.0, 0.1, 0.7]))
    def test_stacked_kernel_is_bit_equal_to_role_by_role(self, batch, dim, seed, scale, margin):
        """The (3, B, d) kernel against the role-by-role one it replaced, kept here."""
        rng = np.random.default_rng(seed)
        weight = np.eye(dim) + 0.3 * rng.normal(size=(dim, dim))
        ref, pos, neg = scale * rng.normal(size=(3, batch, dim))
        if seed % 3 == 0:
            pos = ref.copy()  # equal options: every hinge is the margin
        with np.errstate(all="ignore"):
            got = trainer.batch_loss_and_gradient(weight, np.stack([ref, pos, neg]), margin)
            want = role_by_role_loss_and_gradient(weight, ref, pos, neg, margin)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()  # bit for bit, signs of zeros included

    def test_gradient_check_active(self):
        rng = np.random.default_rng(8)
        model = ProjectionModel(np.eye(6) + 0.1 * rng.normal(size=(6, 6)))
        for _ in range(10):
            ref, pos, neg = (rng.normal(size=6) for _ in range(3))
            if trainer.triplet_hinge(model.weight, ref, pos, neg, 0.5) > 0:
                assert trainer.gradient_check(model, ref, pos, neg, 0.5) <= 1e-4

    def test_gradient_check_inactive_is_flat(self):
        model = ProjectionModel.identity(2)
        ref = np.array([1.0, 0.0])
        pos = np.array([1.0, 0.05])
        neg = np.array([-1.0, 0.2])
        err = trainer.gradient_check(model, ref, pos, neg, 0.1)
        assert err == pytest.approx(0.0, abs=1e-6)

    def test_gradient_check_rejects_bad_step(self):
        model = ProjectionModel.identity(2)
        with pytest.raises(ValidationError):
            trainer.gradient_check(
                model, np.ones(2), np.ones(2), np.ones(2), 0.1, step=0.0
            )


class TestTrain:
    def _corpus(self, n=50, dim=6, seed=9):
        rng = np.random.default_rng(seed)
        hidden = rng.normal(size=(2, dim))
        rows, labels = [], []
        while len(rows) < n:
            c, a, b = (rng.normal(size=dim) for _ in range(3))
            tc, ta, tb = hidden @ c, hidden @ a, hidden @ b
            def cs(u, v):
                return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
            if abs(cs(tc, ta) - cs(tc, tb)) < 0.3:
                continue
            rows.append((c, a, b))
            labels.append("A" if cs(tc, ta) > cs(tc, tb) else "B")
        return build_triplet_corpus(rows, labels, dim)

    def test_zero_epochs_is_noop(self):
        samples = self._corpus(n=10)
        model = ProjectionModel.identity(6)
        out, history = trainer.train(
            model, samples, samples.take([]), trainer.TrainConfig(epochs=0)
        )
        assert out is model and history.mean_loss == []

    def test_same_seed_identical_history(self):
        samples = self._corpus(n=20)
        model = ProjectionModel.identity(6)
        cfg = trainer.TrainConfig(epochs=5, seed=11)
        out1, h1 = trainer.train(model, samples, samples.take(range(5)), cfg)
        out2, h2 = trainer.train(model, samples, samples.take(range(5)), cfg)
        assert h1.mean_loss == h2.mean_loss
        assert h1.val_accuracy == h2.val_accuracy
        np.testing.assert_array_equal(out1.weight, out2.weight)

    def test_loss_decreases_on_separable_set(self):
        samples = self._corpus(n=50)
        model = ProjectionModel.identity(6)
        _, history = trainer.train(
            model, samples, samples.take([]), trainer.TrainConfig(epochs=10, seed=0)
        )
        assert history.mean_loss[9] < history.mean_loss[0]

    def test_zero_gradient_step_keeps_weights(self):
        # every hinge inactive: chosen option nearly equals the reference
        rows = [(np.array([1.0, 0.0]), np.array([1.0, 0.01]), np.array([0.0, 1.0]))]
        samples = build_triplet_corpus(rows, ["A"], dim=2)
        model = ProjectionModel.identity(2)
        cfg = trainer.TrainConfig(
            epochs=1, momentum=0.0, weight_decay=0.0, margin=0.1, shuffle=False
        )
        out, history = trainer.train(model, samples, samples.take([]), cfg)
        np.testing.assert_array_equal(out.weight, model.weight)
        assert history.mean_loss == [0.0] and history.active_fraction == [0.0]

    def test_history_lengths_match_epochs(self):
        samples = self._corpus(n=12)
        _, history = trainer.train(
            ProjectionModel.identity(6), samples, samples.take(range(3)),
            trainer.TrainConfig(epochs=4, seed=1),
        )
        assert (
            len(history.mean_loss)
            == len(history.val_accuracy)
            == len(history.active_fraction)
            == 4
        )

    def test_val_accuracy_uses_consistent_only(self):
        samples = self._corpus(n=12)
        # the first four triplets, and an inconsistent one on triplet 0's images
        ids = list(zip(samples.ref_ids, samples.option_a_ids, samples.option_b_ids))
        manifest = {**dict(zip(samples.triplet_ids[:4], ids)), "odd": ids[0]}
        votes = {t: corpus.MAJORITIES[m] * 3
                 for t, m in zip(samples.triplet_ids[:4], samples.majority.tolist())}
        mixed = make_triplets(samples.table, manifest, {**votes, "odd": "AAB"})
        _, h_clean = trainer.train(
            ProjectionModel.identity(6), samples, samples.take(range(4)),
            trainer.TrainConfig(epochs=2, seed=3),
        )
        _, h_mixed = trainer.train(
            ProjectionModel.identity(6), samples, mixed,
            trainer.TrainConfig(epochs=2, seed=3),
        )
        assert h_clean.val_accuracy == h_mixed.val_accuracy

    def test_divergent_learning_rate_raises(self):
        samples = self._corpus(n=20)
        with warnings.catch_warnings(), pytest.raises(DivergenceError) as err:
            warnings.simplefilter("error", RuntimeWarning)
            trainer.train(
                ProjectionModel.identity(6), samples, samples.take([]),
                trainer.TrainConfig(epochs=50, learning_rate=1e18, weight_decay=1e18),
            )
        assert err.value.epoch is not None

    def test_divergence_at_the_first_batch_has_no_finite_gradient_to_name(self):
        samples = self._corpus(n=20)
        with pytest.raises(DivergenceError) as err:
            trainer.train(
                ProjectionModel.identity(6), samples, samples.take([]),
                trainer.TrainConfig(epochs=1, learning_rate=1e308, weight_decay=1e308),
            )
        assert (err.value.epoch, err.value.batch) == (1, 1)
        assert str(err.value) == ("non-finite loss or weights at epoch 1, batch 1;"
                                  " last finite gradient norm none, mean hinge none")

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60), dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
        batch_size=st.integers(1, 70), epochs=st.integers(0, 3), shuffle=st.booleans(),
        with_val=st.booleans(), margin=st.sampled_from([0.0, 0.1, 0.5]),
    )
    def test_matches_the_per_batch_gather_loop(self, n, dim, seed, batch_size, epochs,
                                               shuffle, with_val, margin):
        """Bit-equal to the loop `train` ran before, kept above, for batch sizes that divide
        n, that do not, and that exceed it."""
        rng = np.random.default_rng(seed)
        rows = [tuple(rng.normal(size=dim) for _ in range(3)) for _ in range(n)]
        samples = build_triplet_corpus(rows, list(rng.choice(["A", "B"], n)), dim)
        val = samples.take(range(max(1, n // 4)) if with_val else [])
        model = ProjectionModel(np.eye(dim) + 0.1 * rng.normal(size=(dim, dim)))
        config = trainer.TrainConfig(epochs=epochs, batch_size=batch_size, shuffle=shuffle,
                                     seed=seed % 1000, margin=margin)
        got, history = trainer.train(model, samples, val, config)
        want, oracle = per_batch_gather_train(model, samples, val, config)
        assert np.array_equal(got.weight, want.weight)
        assert history.mean_loss == oracle.mean_loss
        assert history.active_fraction == oracle.active_fraction
        # repr, so that the nan of a run without validation compares equal
        assert list(map(repr, history.val_accuracy)) == list(map(repr, oracle.val_accuracy))

    def test_a_tied_triplet_is_refused(self):
        tied = build_triplet_corpus([([1.0, 0.0], [1.0, 0.1], [0.0, 1.0])] * 2, ["A", "AB"],
                                    dim=2)
        with pytest.raises(ValidationError) as info:
            trainer.train(ProjectionModel.identity(2), tied, tied, trainer.TrainConfig(epochs=1))
        assert str(info.value) == "triplet 't1' has no majority"

    def test_empty_training_set_rejected(self):
        empty = self._corpus(n=5).take([])
        with pytest.raises(ValidationError):
            trainer.train(ProjectionModel.identity(6), empty, empty, trainer.TrainConfig(epochs=1))


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"weight_decay": -1e-4},
            {"batch_size": 0},
            {"margin": -0.1},
            {"epochs": -1},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"weight_decay": float("nan")},
            {"weight_decay": float("inf")},
            {"margin": float("nan")},
            {"margin": float("inf")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            trainer.TrainConfig(**kwargs)

    def test_paper_defaults(self):
        cfg = trainer.TrainConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert cfg.batch_size == 32
        assert cfg.margin == 0.1
