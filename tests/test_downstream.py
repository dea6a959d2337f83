import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from topofuse import dataio, downstream, network, preprocess, topology, worker
from topofuse.errors import (
    DegenerateComponent,
    LengthMismatch,
    NonConvergenceWarning,
    OutOfRange,
    ShapeMismatch,
)

from _oracles import (
    em_oracle,
    gene_shift_oracle,
    neighbor_lists,
    paga_oracle,
    refine_labels_oracle,
    undirected_knn_edges,
    vis_pairs_oracle,
)


def _blobs(rng, centers, per=20, scale=0.3):
    parts, labels = [], []
    for c, center in enumerate(centers):
        parts.append(rng.normal(scale=scale, size=(per, len(center))) + np.asarray(center))
        labels.extend([c] * per)
    return np.vstack(parts), np.asarray(labels)


class TestEmFit:
    def test_loglik_monotone_and_ok(self, rng):
        z, _ = _blobs(rng, [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)], per=15)
        means0 = z[rng.choice(len(z), size=3, replace=False)]
        model = downstream.em_fit(z, 3, means0)
        assert model is not None
        hist = model.loglik_history
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert model.labels.shape == (len(z),)

    def test_collapsed_component_flagged(self, rng):
        z, _ = _blobs(rng, [(0.0, 0.0)], per=20)
        means0 = np.array([[0.0, 0.0], [1e8, 1e8]])
        assert downstream.em_fit(z, 2, means0) is None

    @staticmethod
    def _model(history):
        return downstream.ClusterModel(
            k=1,
            means=np.zeros((1, 2)),
            covariances=np.ones((1, 2)),
            weights=np.ones(1),
            labels=np.zeros(3, dtype=np.int64),
            loglik_history=history,
        )

    def test_decreasing_history_rejected(self):
        with pytest.raises(DegenerateComponent):
            self._model([0.0, -1.0])

    @pytest.mark.parametrize("last_scale, seed", [(0.004, 25), (0.01, 0), (0.0025, 20)])
    def test_fit_follows_the_map_oracle_to_its_first_small_gain(self, last_scale, seed):
        # A near-constant last dimension makes the variance prior matter. Under
        # a variance ridge instead of the prior, plain EM dropped here: seed 25
        # by 5.9e-6 on |LL| = 4.2e4, as a report on the 8x125 section at 150
        # epochs once met, and seed 20 by 1.5e-3 after iterate 22, though it
        # later climbed until iterate 113; that fit stopped at 22.
        rng = np.random.default_rng(seed)
        scale = np.ones(30)
        scale[-1] = last_scale
        centers = rng.uniform(-3, 3, size=(8, 30))
        z = np.vstack([c + rng.normal(size=(125, 30)) * scale for c in centers])
        means0 = z[rng.choice(len(z), 8, replace=False)]
        lls, resps = em_oracle(z, 8, means0, iters=150)
        gains = np.diff(lls)
        # MAP EM cannot go down: over all 150 iterates no step drops by more than rounding
        assert gains.min() >= -downstream.GMM_REL_TOL * np.abs(lls).max()
        stop = np.flatnonzero(gains < downstream.GMM_REL_TOL * np.abs(lls[1:]))[0]
        assert gains[: stop + 1].min() >= 0.0
        model = downstream.em_fit(z, 8, means0)
        # the oracle's per-component arithmetic rounds apart from em_fit's matrix products
        assert len(model.loglik_history) == stop + 1
        np.testing.assert_allclose(model.loglik_history, lls[: stop + 1], rtol=1e-12, atol=0.0)
        # the iterate returned is the one the fit stopped on
        np.testing.assert_array_equal(model.labels, resps[stop + 1].argmax(axis=1))


class TestGmmCluster:
    def test_separated_blobs_recovered(self, rng):
        z, truth = _blobs(rng, [(0.0, 0.0), (10.0, 0.0)], per=25)
        model = downstream.gmm_cluster(z, 2, rng=np.random.default_rng(1))
        first, second = model.labels[:25], model.labels[25:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        # a MAP variance is (S + 2 beta) / n_k with S >= 0 and n_k <= n
        assert np.all(model.covariances >= 2 * downstream.GMM_PRIOR / len(z))

    def test_deterministic_given_rng(self, rng):
        z, _ = _blobs(rng, [(0.0, 0.0), (5.0, 5.0)], per=15)
        a = downstream.gmm_cluster(z, 2, rng=np.random.default_rng(7))
        b = downstream.gmm_cluster(z, 2, rng=np.random.default_rng(7))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.means, b.means)

    @pytest.mark.parametrize("second, wins", [(4.0e4 * (1 + 1e-14), False), (4.0e4 + 1e-3, True)])
    def test_later_restart_wins_only_beyond_the_stop_tolerance(self, monkeypatch, second, wins):
        # restart c puts every spot in component c; a rounding-level gain keeps restart 0
        fits = iter([(4.0e4, 0), (second, 1)])

        def fit(z, k, means0):
            ll, c = next(fits)
            return downstream.ClusterModel(k, np.zeros((k, 2)), np.ones((k, 2)), np.full(k, 0.5), np.full(len(z), c), [ll])

        monkeypatch.setattr(downstream, "em_fit", fit)
        model = downstream.gmm_cluster(np.zeros((3, 2)), 2, restarts=2)
        assert np.array_equal(model.labels, np.full(3, int(wins)))

    def test_bounds(self, rng):
        z = rng.normal(size=(3, 2))
        with pytest.raises(OutOfRange):
            downstream.gmm_cluster(z, 4)
        with pytest.raises(OutOfRange):
            downstream.gmm_cluster(z, 0)


class TestRefineLabels:
    def test_lone_dissenter_flips(self):
        angles = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
        coords = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
        labels = np.array([1, 0, 0, 0, 0, 0, 0])
        refined = downstream.refine_labels(labels, coords)
        assert np.array_equal(refined, np.zeros(7, dtype=labels.dtype))

    def test_tie_keeps_original(self):
        coords = np.array([[0.0], [1.0]])
        labels = np.array([0, 1])
        assert np.array_equal(downstream.refine_labels(labels, coords), labels)

    def test_majority_block_is_stable(self, rng):
        coords = rng.uniform(0, 3, size=(20, 2))
        labels = np.zeros(20, dtype=np.int64)
        assert np.array_equal(downstream.refine_labels(labels, coords), labels)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            downstream.refine_labels(np.zeros(3), np.zeros((4, 2)))

    @pytest.mark.parametrize("k", [3, 6])
    def test_matches_loop_oracle_with_ties(self, k):
        # k + 1 votes over three labels: two-way ties, and with k = 6 three-way ones
        ties = 0
        for seed in range(20):
            data = np.random.default_rng(seed)
            coords = data.uniform(0, 5, size=(40, 2))
            labels = np.array([4, 9, 11])[data.integers(3, size=40)]
            nbrs = neighbor_lists(topology.knn_graph(coords, k))
            want = refine_labels_oracle(nbrs, labels)
            assert np.array_equal(downstream.refine_labels(labels, coords, k=k), want)
            counts = [np.bincount(labels[[i, *nb]], minlength=12) for i, nb in enumerate(nbrs)]
            ties += sum((c == c.max()).sum() > 1 for c in counts)
        assert ties > 20


class TestDeconvolve:
    def test_pure_spots_get_pure_weights(self, rng):
        centers = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]])
        labels = np.repeat([0, 1, 2], 10)
        z = centers[labels]
        res = downstream.deconvolve(z, labels, l1=0.0)
        assert res.converged and res.kkt < downstream.LASSO_KKT_TOL
        assert np.array_equal(res.weights.argmax(axis=1), labels)
        assert np.allclose(res.weights.max(axis=1), 1.0, atol=1e-9)

    def test_impurity_is_weight_row_std(self, rng):
        z, labels = _blobs(rng, [(0.0, 0.0), (5.0, 0.0)], per=12)
        res = downstream.deconvolve(z, labels, l1=0.05)
        assert np.array_equal(res.impurity, res.weights.std(axis=1))

    def test_zero_norm_basis_column_stays_inactive(self):
        z = np.array([[1.0, 1.0], [-1.0, -1.0], [5.0, 5.0], [5.0, 5.0]])
        labels = np.array([0, 0, 1, 1])
        res = downstream.deconvolve(z, labels, l1=0.1)
        assert np.array_equal(res.weights[:, 0], np.zeros(4))

    def test_sweep_cap_warns(self, rng, monkeypatch):
        monkeypatch.setattr(downstream, "LASSO_MAX_SWEEPS", 1)
        base = rng.normal(size=(30, 4))
        z = np.hstack([base, base * 0.98 + rng.normal(scale=0.01, size=(30, 4))])
        labels = rng.integers(0, 3, size=30)
        with pytest.warns(NonConvergenceWarning):
            res = downstream.deconvolve(z, labels, l1=0.2)
        assert not res.converged

    def test_no_weight_is_a_negative_zero(self, rng):
        z, labels = _blobs(rng, [(0.0, 0.0, 0.0), (5.0, 0.0, 1.0), (0.0, 5.0, -1.0)], per=20, scale=1.5)
        res = downstream.deconvolve(z, labels, l1=2.0)
        zero = res.weights == 0.0
        assert zero.sum() > 10
        assert not np.signbit(res.weights[zero]).any()

    def test_bounds(self, rng):
        z = rng.normal(size=(6, 2))
        for l1 in (-0.1, np.nan, np.inf):
            with pytest.raises(OutOfRange):
                downstream.deconvolve(z, np.zeros(6), l1=l1)
        with pytest.raises(LengthMismatch):
            downstream.deconvolve(z, np.zeros(5), l1=0.1)


def _marker_setup(rng, n=18, g=5, with_mor=False):
    tra = rng.normal(size=(n, g))
    tra[:, 2] = 0.0
    pre = preprocess.PreprocessedData(
        tra=tra,
        gene_ids=[f"g{i:04d}" for i in range(g)],
        mor=rng.normal(size=(n, 3)) if with_mor else None,
    )
    coords = np.column_stack([np.arange(n) % 6, np.arange(n) // 6]).astype(np.float64)
    graph = topology.build_spatial_graph(coords, 1.0)
    n_mor = 3 if with_mor else None
    params = network.init_params(rng, pre.gene_ids, n_mor, dataio.config_from_dict({"d_emb": 4, "n_mlp": 1}))
    labels = (np.arange(n) >= n // 2).astype(np.int64)
    return pre, graph, params, labels


class TestMarkers:
    def test_table_structure(self, rng):
        pre, graph, params, labels = _marker_setup(rng)
        tables = downstream.marker_tables(pre, params, graph, labels, top_n=3)
        assert sorted(tables) == [0, 1]
        for rows in tables.values():
            assert len(rows) == 3
            assert all(gene in pre.gene_ids for gene, _ in rows)
            imps = [imp for _, imp in rows]
            assert imps == sorted(imps, reverse=True)
            assert all(isinstance(v, float) for v in imps)

    def test_top_n_clamped_to_gene_count(self, rng):
        pre, graph, params, labels = _marker_setup(rng)
        tables = downstream.marker_tables(pre, params, graph, labels, top_n=99)
        assert all(len(rows) == 5 for rows in tables.values())

    def test_zeroed_gene_has_zero_shift(self, rng):
        pre, graph, params, _ = _marker_setup(rng)
        shifts = downstream.gene_shift_matrix(params, pre, graph)
        assert shifts.shape == pre.tra.shape
        assert np.array_equal(shifts[:, 2], np.zeros(pre.n_spots))
        assert np.all(shifts >= 0.0)

    @pytest.mark.parametrize("with_mor", [False, True])
    def test_knockouts_match_full_forward_passes(self, rng, monkeypatch, with_mor):
        # the rank-1 patch of the first layer differs from a full pass by rounding only
        pre, graph, params, labels = _marker_setup(rng, with_mor=with_mor)
        shifts = downstream.gene_shift_matrix(params, pre, graph)
        np.testing.assert_allclose(shifts, gene_shift_oracle(params, pre, graph), rtol=1e-12, atol=0)
        tables = downstream.marker_tables(pre, params, graph, labels, top_n=5)
        monkeypatch.setattr(downstream, "gene_shift_matrix", gene_shift_oracle)
        expected = downstream.marker_tables(pre, params, graph, labels, top_n=5)
        assert sorted(tables) == sorted(expected)
        for c, rows in tables.items():
            assert [gene for gene, _ in rows] == [gene for gene, _ in expected[c]]
            np.testing.assert_allclose([imp for _, imp in rows], [imp for _, imp in expected[c]], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("with_mor", [False, True])
    def test_forked_knockouts_give_the_same_bytes(self, rng, forked, two_cpus, with_mor):
        pre, graph, params, labels = _marker_setup(rng, with_mor=with_mor)
        inline = downstream.gene_shift_matrix(params, pre, graph)
        inline_tables = downstream.marker_tables(pre, params, graph, labels, top_n=5)
        assert not forked
        worker.allow(1)
        # a child computes the second half of the genes, this process the first
        split = downstream.gene_shift_matrix(params, pre, graph)
        assert split.tobytes() == inline.tobytes()
        assert downstream.marker_tables(pre, params, graph, labels, top_n=5) == inline_tables
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_decoder_runs_at_most_once(self, rng, monkeypatch):
        pre, graph, params, _ = _marker_setup(rng, with_mor=True)
        calls = []
        real = network.decode_forward

        def counting(z, p):
            calls.append(z.shape)
            return real(z, p)

        monkeypatch.setattr(network, "decode_forward", counting)
        downstream.gene_shift_matrix(params, pre, graph)
        assert len(calls) <= 1

    def test_label_length_checked(self, rng):
        pre, graph, params, _ = _marker_setup(rng)
        with pytest.raises(LengthMismatch):
            downstream.marker_tables(pre, params, graph, np.zeros(3))


class TestPaga:
    def test_matches_edge_counting_oracle(self, rng):
        # overlapping blobs share kNN edges, so the ratios are not all 0 or 1
        z, labels = _blobs(rng, [(0.0, 0.0), (1.2, 0.0), (2.4, 0.0)], per=12, scale=0.5)
        k = 5
        graph = downstream.paga_connectivity(z, labels, k=k)
        assert np.any((graph.connectivity > 0.0) & (graph.connectivity < 1.0))
        pairs = undirected_knn_edges(z, k)
        total = len(pairs)
        sizes = {c: int((labels == c).sum()) for c in (0, 1, 2)}
        possible = len(z) * (len(z) - 1) / 2.0
        for ai in range(3):
            for bi in range(ai + 1, 3):
                observed = sum(
                    1
                    for i, j in pairs
                    if {int(labels[i]), int(labels[j])} == {ai, bi}
                )
                expected = total * sizes[ai] * sizes[bi] / possible
                want = min(1.0, observed / expected)
                assert graph.connectivity[ai, bi] == pytest.approx(want, abs=1e-12)

    def test_matches_set_of_edges_loop(self, rng):
        # cluster ids need not be contiguous; kNN edges that run one way count once
        z, labels = _blobs(rng, [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)], per=15, scale=0.8)
        labels = np.array([3, 7, 10])[labels]
        nbrs = neighbor_lists(topology.knn_graph(z, 5))
        assert any(i not in nbrs[j] for i in range(len(z)) for j in nbrs[i])
        conn = downstream.paga_connectivity(z, labels, k=5).connectivity
        assert np.array_equal(conn, paga_oracle(nbrs, labels))

    def test_chain_geometry_orders_connectivity(self):
        # clusters 0 and 1 interleave on a line; cluster 2 sits far away
        near = np.arange(30.0)[:, None]
        far = 1000.0 + np.arange(10.0)[:, None]
        z = np.vstack([near, far])
        labels = np.concatenate([np.arange(30) % 2, np.full(10, 2)])
        conn = downstream.paga_connectivity(z, labels, k=4).connectivity
        assert conn[0, 1] > conn[0, 2]
        assert conn[0, 2] == 0.0

    def test_bounds(self, rng):
        z = rng.normal(size=(8, 2))
        with pytest.raises(OutOfRange):
            downstream.paga_connectivity(z, np.zeros(8))
        with pytest.raises(LengthMismatch):
            downstream.paga_connectivity(z, np.zeros(5))

    def test_graph_validation(self):
        with pytest.raises(ShapeMismatch):
            downstream.PagaGraph(cluster_ids=[0, 1], connectivity=np.array([[0.0, 0.5], [0.4, 0.0]]))
        with pytest.raises(OutOfRange):
            downstream.PagaGraph(cluster_ids=[0, 1], connectivity=np.array([[0.0, 1.5], [1.5, 0.0]]))


class TestDenoise:
    def test_equals_clean_forward_pass(self, rng):
        pre, graph, params, _ = _marker_setup(rng)
        out = downstream.denoise(params, pre, graph)
        a_hat = network.normalized_adjacency(graph)
        es, _ = network.forward_all(params, pre.tra, pre.mor, a_hat)
        assert np.array_equal(out, es.x_hat)


class TestVisualization:
    def test_shape_and_determinism(self, rng):
        z, _ = _blobs(rng, [(0.0, 0.0, 0.0), (6.0, 0.0, 0.0)], per=12)
        cfg = dataio.config_from_dict({"seed": 9})
        a, history = downstream._fit_vis(z, cfg)
        b, _ = downstream._fit_vis(z, cfg)
        assert len(history) == downstream.VIS_EPOCHS
        assert a.shape == (24, 2)
        assert np.all(np.isfinite(a))
        assert np.array_equal(a, b)

    def test_forked_feeder_gives_the_same_bytes(self, rng, forked, two_cpus):
        z, _ = _blobs(rng, [(0.0, 0.0, 0.0), (6.0, 0.0, 0.0)], per=12)
        cfg = dataio.config_from_dict({"seed": 9})
        inline, inline_history = downstream._fit_vis(z, cfg)
        worker.allow(1)
        fed, fed_history = downstream._fit_vis(z, cfg)
        assert fed.tobytes() == inline.tobytes() and fed_history == inline_history
        assert len(forked) == 1  # the epoch feeder, killed and reaped on return
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pairs_replay_the_per_anchor_draws(self, seed):
        graph = topology.knn_graph(np.random.default_rng(seed).normal(size=(200, 3)), 6)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            table = downstream._vis_pairs(graph, fast)
            anchors, partners = vis_pairs_oracle(graph.n, neighbor_lists(graph), topology.N_NEG, slow)
            assert np.array_equal(anchors, np.repeat(np.arange(graph.n), 1 + topology.N_NEG))
            assert np.array_equal(table.ravel(), partners)
            assert fast.bit_generator.state == slow.bit_generator.state


@given(st.integers(2, 12), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_vis_pairs_invariants(n, k, seed):
    rng = np.random.default_rng(seed)
    graph = topology.knn_graph(rng.normal(size=(n, 3)), min(k, n - 1))
    partners = downstream._vis_pairs(graph, rng)
    assert partners.shape == (n, 1 + topology.N_NEG)
    nbrs = neighbor_lists(graph)
    assert all(partners[i, 0] in nbrs[i] for i in range(n))
    neg = partners[:, 1:]
    assert np.all((neg >= 0) & (neg < n))
    assert np.all(neg != np.arange(n)[:, None])
