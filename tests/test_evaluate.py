import numpy as np
import pytest

from topofuse import dataio, evaluate, preprocess, synth
from topofuse.errors import LengthMismatch, OutOfRange, ShapeMismatch, SingleClass

from _oracles import ari_pair_oracle, block_edge_grid, full_mrre, mrre_oracle, pegasos_oracle, per_sample_svm_oracle


class TestAri:
    def test_identical_labelings(self, rng):
        a = rng.integers(0, 4, size=40)
        assert evaluate.ari(a, a) == 1.0

    def test_crossed_pairs_hand_value(self):
        assert evaluate.ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5, abs=1e-15)

    def test_label_names_do_not_matter(self, rng):
        a = rng.integers(0, 3, size=30)
        b = rng.integers(0, 3, size=30)
        remapped = np.array([{0: 7, 1: 5, 2: 9}[v] for v in b.tolist()])
        assert evaluate.ari(a, b) == evaluate.ari(a, remapped)

    def test_single_cluster_degenerate(self):
        assert evaluate.ari(np.zeros(6), np.zeros(6)) == 0.0

    def test_matches_pair_counting_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 40))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 3, size=n)
            assert evaluate.ari(a, b) == pytest.approx(ari_pair_oracle(a, b), abs=1e-12)

    def test_length_errors(self):
        with pytest.raises(LengthMismatch):
            evaluate.ari([0, 1], [0, 1, 2])
        with pytest.raises(LengthMismatch):
            evaluate.ari([], [])


class TestMrre:
    def test_identity_is_zero(self, rng):
        x = rng.normal(size=(20, 3))
        assert evaluate.mrre(x, x, 5) == 0.0

    def test_matches_rank_oracle(self, rng):
        for k in (1, 3, 6):
            high = rng.normal(size=(25, 5))
            low = rng.normal(size=(25, 2))
            assert evaluate.mrre(high, low, k) == pytest.approx(
                mrre_oracle(high, low, k), abs=1e-12
            )

    def test_matches_full_rank_matrices_across_row_blocks(self, rng):
        high = block_edge_grid(rng, 3)
        low = block_edge_grid(rng, 2)
        for k in (1, 5, 12):
            assert evaluate.mrre(high, low, k) == full_mrre(high, low, k)
        assert evaluate.mrre(high, low, 5) == pytest.approx(mrre_oracle(high, low, 5), abs=1e-12)

    def test_bounds(self, rng):
        x = rng.normal(size=(6, 2))
        with pytest.raises(OutOfRange):
            evaluate.mrre(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), 3)
        with pytest.raises(OutOfRange):
            evaluate.mrre(x, x, 3)
        with pytest.raises(OutOfRange):
            evaluate.mrre(x, x, 0)
        with pytest.raises(LengthMismatch):
            evaluate.mrre(x, rng.normal(size=(5, 2)), 2)


def _labeled_blobs(rng, centers, per=20, scale=0.3, noise_dims=0, noise_scale=0.3):
    parts, labels = [], []
    for c, center in enumerate(centers):
        block = rng.normal(scale=scale, size=(per, len(center))) + np.asarray(center)
        parts.append(block)
        labels.extend([c] * per)
    x = np.vstack(parts)
    if noise_dims:
        x = np.hstack([x, rng.normal(scale=noise_scale, size=(len(x), noise_dims))])
    return x, np.asarray(labels)


def _hinge_l2(x, y, w, b, classes):
    """lam/2 |(w, b)|^2 + the mean over rows of the one-vs-rest hinge losses summed over classes."""
    lam = 1.0 / (evaluate.SVM_C * len(x))
    targets = np.where(np.asarray(y)[:, None] == np.asarray(classes)[None, :], 1.0, -1.0)
    hinge = np.maximum(0.0, 1.0 - targets * (x @ w.T + b)).sum(axis=1).mean()
    return lam / 2 * ((w * w).sum() + (b * b).sum()) + hinge


class TestLinearSvm:
    def test_separable_two_class(self, rng):
        x, y = _labeled_blobs(rng, [(0.0, 0.0), (6.0, 6.0)])
        w, b, classes = evaluate.fit_linear_svm(x, y, np.random.default_rng(3))
        assert classes == [0, 1]
        assert w.shape == (2, 2) and b.shape == (2,)
        pred = evaluate.svm_predict(x, w, b)
        assert np.array_equal(np.array([classes[p] for p in pred]), y)

    def test_three_class_accuracy(self, rng):
        x, y = _labeled_blobs(rng, [(0.0, 0.0), (7.0, 0.0), (0.0, 7.0)])
        w, b, classes = evaluate.fit_linear_svm(x, y, np.random.default_rng(4))
        pred = evaluate.svm_predict(x, w, b)
        acc = (np.array([classes[p] for p in pred]) == y).mean()
        assert acc >= 0.95

    def test_deterministic_given_rng(self, rng):
        x, y = _labeled_blobs(rng, [(0.0, 0.0), (5.0, 0.0)], per=10)
        w1, b1, _ = evaluate.fit_linear_svm(x, y, np.random.default_rng(9))
        w2, b2, _ = evaluate.fit_linear_svm(x, y, np.random.default_rng(9))
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_single_class_rejected(self, rng):
        with pytest.raises(SingleClass):
            evaluate.fit_linear_svm(rng.normal(size=(8, 2)), np.zeros(8), rng)

    def test_predict_is_argmax(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.zeros(2)
        x = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert evaluate.svm_predict(x, w, b).tolist() == [0, 1]

    def test_matches_the_scalar_minibatch_oracle(self, rng):
        # 21 rows: two full batches and a short third one per epoch
        x, y = _labeled_blobs(rng, [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)], per=7, scale=1.0)
        w, b, classes = evaluate.fit_linear_svm(x, y, np.random.default_rng(5))
        w_o, b_o, classes_o = pegasos_oracle(
            x, y, np.random.default_rng(5), evaluate.SVM_EPOCHS, evaluate.SVM_BATCH, evaluate.SVM_C
        )
        assert classes == classes_o
        np.testing.assert_allclose(w, w_o, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b, b_o, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("modality", ["tra", "mor"])
    def test_objective_close_to_per_sample_sgd(self, modality):
        # criterion 7's seed-0 inputs, each modality scored alone as the criterion does
        ds, truth = synth.generate(synth.SynthSpec(signal_mor=0.0, seed=0))
        pre = preprocess.preprocess_dataset(ds, dataio.config_from_dict({"seed": 0}))
        x, y = getattr(pre, modality), truth["labels"]
        fit = evaluate.fit_linear_svm(x, y, np.random.default_rng([0, 17]))
        old = per_sample_svm_oracle(x, y, np.random.default_rng([0, 17]), evaluate.SVM_EPOCHS, evaluate.SVM_C)
        assert _hinge_l2(x, y, *fit) == pytest.approx(_hinge_l2(x, y, *old), rel=0.02, abs=1e-3)


class TestLinearShap:
    def test_closed_form(self, rng):
        x = rng.normal(size=(10, 4))
        mu = x.mean(axis=0)
        w = rng.normal(size=4)
        phi = evaluate.linear_shap(x, mu, w)
        assert np.array_equal(phi, (x - mu) * w)

    def test_rows_sum_to_score_difference(self, rng):
        x = rng.normal(size=(12, 5))
        mu = rng.normal(size=5)
        w = rng.normal(size=5)
        phi = evaluate.linear_shap(x, mu, w)
        assert np.allclose(phi.sum(axis=1), x @ w - mu @ w, atol=1e-12)


class TestModalityContribution:
    def test_constant_modality_contributes_nothing(self, rng):
        signal, y = _labeled_blobs(rng, [(0.0, 0.0), (5.0, 5.0)], per=15)
        flat = np.full((30, 3), 2.0)
        res = evaluate.modality_contribution([signal, flat], y, seed=1)
        assert np.array_equal(res.per_spot[:, 1], np.zeros(30))
        assert res.summary["m1"] == {"mean": 0.0, "median": 0.0, "q25": 0.0, "q75": 0.0}
        assert res.summary["m0"]["median"] > 0.0

    def test_informative_modality_dominates_noise(self, rng):
        signal, y = _labeled_blobs(rng, [(0.0, 0.0), (6.0, 6.0)], per=30)
        noise = rng.normal(scale=0.3, size=(60, 4))
        res = evaluate.modality_contribution([signal, noise], y, names=["sig", "nil"], seed=2)
        assert res.names == ["sig", "nil"]
        assert res.summary["sig"]["median"] > res.summary["nil"]["median"]
        assert res.train_accuracy == 1.0

    def test_shapes_names_and_determinism(self, rng):
        mats = [rng.normal(size=(20, 3)), rng.normal(size=(20, 2))]
        y = rng.integers(0, 2, size=20)
        a = evaluate.modality_contribution(mats, y, seed=5)
        b = evaluate.modality_contribution(mats, y, seed=5)
        assert a.names == ["m0", "m1"]
        assert a.per_spot.shape == (20, 2)
        assert set(a.summary["m0"]) == {"mean", "median", "q25", "q75"}
        assert np.array_equal(a.per_spot, b.per_spot)
        assert a.train_accuracy == b.train_accuracy

    def test_input_validation(self, rng):
        mats = [rng.normal(size=(10, 2))]
        y = rng.integers(0, 2, size=10)
        with pytest.raises(LengthMismatch):
            evaluate.modality_contribution([], y)
        with pytest.raises(ShapeMismatch):
            evaluate.modality_contribution([mats[0], rng.normal(size=(9, 2))], y)
        with pytest.raises(LengthMismatch):
            evaluate.modality_contribution(mats, y[:5])
        with pytest.raises(LengthMismatch):
            evaluate.modality_contribution(mats, y, names=["a", "b"])
