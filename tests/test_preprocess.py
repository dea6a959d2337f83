import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from topofuse import dataio, preprocess
from topofuse.errors import AllGenesFiltered, OutOfRange, RankDeficient, ZeroLibrary


class TestFilterGenes:
    def test_keeps_genes_detected_in_at_least_tau_spots(self):
        tra = np.zeros((7, 3))
        tra[:2, 0] = 1.0  # detected in 2 spots
        tra[:5, 1] = 1.0  # detected in 5 spots
        tra[:7, 2] = 1.0  # detected in 7 spots
        filtered, kept = preprocess.filter_genes(tra, 5)
        assert kept.tolist() == [1, 2]
        assert np.array_equal(filtered, tra[:, [1, 2]])

    def test_tau_zero_keeps_everything(self, rng):
        tra = rng.uniform(0, 3, size=(4, 5))
        _, kept = preprocess.filter_genes(tra, 0)
        assert kept.tolist() == [0, 1, 2, 3, 4]

    def test_errors(self):
        with pytest.raises(OutOfRange):
            preprocess.filter_genes(np.ones((3, 2)), -1)
        with pytest.raises(AllGenesFiltered):
            preprocess.filter_genes(np.zeros((3, 2)), 1)


class TestLognorm:
    def test_matches_direct_formula(self, rng):
        tra = rng.uniform(0, 9, size=(5, 4))
        out = preprocess.lognorm(tra, target_sum=100.0)
        lib = tra.sum(axis=1)
        assert np.array_equal(out, np.log1p(100.0 * tra / lib[:, None]))

    def test_hand_row(self):
        row = np.array([[1.0, 3.0]])
        out = preprocess.lognorm(row, target_sum=4.0)
        assert np.allclose(out, [[np.log(2.0), np.log(4.0)]], rtol=0, atol=1e-15)

    def test_errors_name_the_offender(self):
        with pytest.raises(ZeroLibrary, match="row 1"):
            preprocess.lognorm(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(OutOfRange):
            preprocess.lognorm(np.array([[-1.0, 2.0]]))


class TestHvg:
    def test_picks_highest_variance_columns(self, rng):
        m = rng.normal(size=(30, 6)) * np.array([1.0, 5.0, 0.1, 3.0, 0.5, 2.0])
        idx = preprocess.select_hvg(m, 3)
        expected = np.sort(np.argsort(-m.var(axis=0), kind="stable")[:3])
        assert np.array_equal(idx, expected)

    def test_ties_go_to_lower_index(self):
        col = np.array([1.0, -1.0, 1.0, -1.0])
        m = np.column_stack([col, col, col])
        assert preprocess.select_hvg(m, 2).tolist() == [0, 1]

    def test_n_top_clamped_to_width(self, rng):
        m = rng.normal(size=(4, 3))
        assert preprocess.select_hvg(m, 10).tolist() == [0, 1, 2]
        with pytest.raises(OutOfRange):
            preprocess.select_hvg(m, 0)


class TestStandardize:
    def test_population_moments(self, rng):
        m = rng.normal(loc=3.0, scale=2.0, size=(40, 5))
        out = preprocess.standardize(m)
        assert np.array_equal(out, (m - m.mean(axis=0)) / m.std(axis=0))
        assert np.abs(out.mean(axis=0)).max() < 1e-12
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-12

    def test_flat_column_goes_to_zero(self):
        m = np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 5.0]])
        out = preprocess.standardize(m)
        assert np.array_equal(out[:, 0], np.zeros(3))
        assert np.array_equal(out[:, 1], (m[:, 1] - 3.0) / m[:, 1].std())


def _basis(m, scores):
    """The loadings that give `scores` from centered `m`, which has full column rank."""
    return np.linalg.lstsq(m - m.mean(axis=0), scores, rcond=None)[0]


class TestPca:
    def test_matches_svd_oracle(self, rng):
        m = rng.normal(size=(25, 6)) @ rng.normal(size=(6, 6))
        scores = preprocess.pca(m, 4)
        centered = m - m.mean(axis=0)
        basis = _basis(m, scores)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        # same deterministic sign rule applied to the oracle basis
        oracle = vt[:4].T.copy()
        flip = oracle[np.argmax(np.abs(oracle), axis=0), np.arange(4)] < 0
        oracle[:, flip] *= -1.0
        assert np.allclose(basis, oracle, atol=1e-9)
        assert np.allclose(scores, centered @ oracle, atol=1e-9)
        assert np.allclose(scores.var(axis=0), (s[:4] ** 2) / m.shape[0], atol=1e-9)

    def test_sign_rule(self, rng):
        m = rng.normal(size=(20, 4))
        basis = _basis(m, preprocess.pca(m, 3))
        peaks = basis[np.argmax(np.abs(basis), axis=0), np.arange(3)]
        assert np.all(peaks > 0)

    def test_scores_reconstruct_centered_data_at_full_rank(self, rng):
        m = rng.normal(size=(10, 3))
        scores = preprocess.pca(m, 3)
        centered = m - m.mean(axis=0)
        assert np.allclose(scores @ _basis(m, scores).T, centered, atol=1e-10)

    def test_rank_deficient_raises(self, rng):
        thin = rng.normal(size=(12, 2))
        m = np.column_stack([thin, thin @ rng.normal(size=(2, 2))])
        assert preprocess.numerical_rank(m) == 2
        with pytest.raises(RankDeficient):
            preprocess.pca(m, 3)

    def test_component_bounds(self, rng):
        m = rng.normal(size=(5, 3))
        with pytest.raises(OutOfRange):
            preprocess.pca(m, 0)
        with pytest.raises(OutOfRange):
            preprocess.pca(m, 4)


class TestPipeline:
    def test_gene_bookkeeping_survives_filter_and_hvg(self, rng):
        n, g = 20, 12
        tra = rng.uniform(0, 6, size=(n, g))
        tra[:, 3] = 0.0  # filtered out
        ds = dataio.SpotDataset(
            tra=tra,
            coords=rng.uniform(size=(n, 2)),
            spot_ids=[f"s{i}" for i in range(n)],
            gene_ids=[f"g{j}" for j in range(g)],
        )
        pre = preprocess.preprocess_dataset(ds, dataio.config_from_dict({"tau": 1}))
        assert "g3" not in pre.gene_ids
        assert len(pre.gene_ids) == pre.tra.shape[1] == g - 1

    def test_mor_projection_dims(self, rng):
        n = 15
        ds = dataio.SpotDataset(
            tra=rng.uniform(0, 6, size=(n, 8)),
            coords=rng.uniform(size=(n, 2)),
            spot_ids=[f"s{i}" for i in range(n)],
            gene_ids=[f"g{j}" for j in range(8)],
            mor=rng.normal(size=(n, 6)),
        )
        pre = preprocess.preprocess_dataset(ds, dataio.config_from_dict({"tau": 1}))
        assert pre.mor.shape == (n, 6)

    def test_no_mor_stays_none(self, rng):
        n = 8
        ds = dataio.SpotDataset(
            tra=rng.uniform(0, 6, size=(n, 5)),
            coords=rng.uniform(size=(n, 2)),
            spot_ids=[f"s{i}" for i in range(n)],
            gene_ids=[f"g{j}" for j in range(5)],
        )
        pre = preprocess.preprocess_dataset(ds, dataio.config_from_dict({"tau": 1}))
        assert pre.mor is None


@given(st.integers(3, 30), st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_standardize_then_rescale_recovers_input(n, g, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(scale=rng.uniform(0.5, 4.0), size=(n, g))
    out = preprocess.standardize(m)
    means, stds = m.mean(axis=0), m.std(axis=0)
    live = stds >= 1e-12
    back = out[:, live] * stds[live] + means[live]
    assert np.allclose(back, m[:, live], rtol=0, atol=1e-9 * max(1.0, np.abs(m).max()))
