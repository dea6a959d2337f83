import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from topofuse import topology
from topofuse.errors import IsolatedNodesWarning, OutOfRange, ShapeMismatch

from _oracles import (
    block_edge_grid,
    csr_graph,
    full_auto_epsilon,
    full_knn_indices,
    full_radius_graph,
    full_sq_dists,
    neighbor_lists,
    sample_pairs_oracle,
)


class TestSpatialGraph:
    def test_line_graph_neighbors(self):
        coords = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
        g = topology.build_spatial_graph(coords, 1.0)
        assert neighbor_lists(g) == [(1,), (0, 2), (1, 3), (2,)]
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert g.isolated.tolist() == []

    def test_radius_is_inclusive_and_symmetric(self, rng):
        coords = rng.uniform(0, 5, size=(30, 2))
        eps = 1.2
        g = topology.build_spatial_graph(coords, eps)
        nbrs = neighbor_lists(g)
        for i in range(30):
            for j in nbrs[i]:
                assert i in nbrs[j]
                assert 0 < np.linalg.norm(coords[i] - coords[j]) <= eps

    def test_coincident_spots_are_not_neighbors(self):
        coords = np.array([[0.0, 0], [0.0, 0], [10.0, 0]])
        with pytest.warns(IsolatedNodesWarning):
            g = topology.build_spatial_graph(coords, 1.0)
        assert neighbor_lists(g) == [(), (), ()]
        assert g.isolated.tolist() == [0, 1, 2]

    def test_radius_whose_square_overflows(self, rng):
        # 1e200 squared is inf, as is each self entry of the distance blocks
        coords = rng.uniform(0, 10, size=(6, 2))
        g = topology.build_spatial_graph(coords, 1e200)
        assert np.array_equal(np.diff(g.indptr), np.full(6, 5))
        assert not np.any(g.indices == g.sources)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(OutOfRange):
            topology.build_spatial_graph(np.zeros((3, 2)), 0.0)


class TestAutoEpsilon:
    def test_three_collinear_points(self):
        # k = min(4, 2) = 2; kth distances are [2, 1, 2]; lower median -> 2
        coords = np.array([[0.0, 0], [1, 0], [2, 0]])
        assert topology.auto_epsilon(coords) == 2.0

    def test_matches_order_statistic_oracle(self, rng):
        coords = rng.uniform(0, 10, size=(41, 2))
        n = len(coords)
        k = 4
        kth = np.empty(n)
        for i in range(n):
            d = np.sort(np.linalg.norm(coords - coords[i], axis=1))
            kth[i] = d[k]  # d[0] is the self distance
        assert np.isclose(topology.auto_epsilon(coords), np.sort(kth)[(n - 1) // 2], atol=1e-12)

    def test_median_spot_reaches_four_neighbors(self, rng):
        coords = rng.uniform(0, 6, size=(25, 2))
        eps = topology.auto_epsilon(coords)
        g = topology.build_spatial_graph(coords, eps)
        degrees = sorted(len(nbrs) for nbrs in neighbor_lists(g))
        assert degrees[(25 - 1) // 2] >= 4

    def test_needs_two_spots(self):
        with pytest.raises(OutOfRange):
            topology.auto_epsilon(np.zeros((1, 2)))

    def test_coincident_spots_do_not_count(self):
        # a 6 x 6 unit grid with 5 spots on every point: each spot has 4 coincident
        # spots, which are not neighbours, and 5..20 spots at distance 1
        grid = np.array([[x, y] for x in range(6) for y in range(6)], dtype=np.float64)
        coords = np.repeat(grid, 5, axis=0)
        eps = topology.auto_epsilon(coords)
        assert eps == 1.0
        degrees = np.diff(topology.build_spatial_graph(coords, eps).indptr)
        assert np.sort(degrees)[(len(coords) - 1) // 2] >= 4

    def test_no_usable_radius_names_the_key(self):
        # every spot shares its position with all others but one
        coords = np.zeros((9, 2))
        coords[0] = [1.0, 1.0]
        with pytest.raises(OutOfRange, match="epsilon_radius"):
            topology.auto_epsilon(coords)


class TestKnnGraph:
    def test_exact_neighbors_on_a_line(self):
        x = np.array([[0.0], [1.0], [3.0], [6.0]])
        g = topology.knn_graph(x, 2)
        # point 2 sees distances 3, 2, 3; the 0-vs-3 tie resolves to index 0
        assert neighbor_lists(g) == [(1, 2), (0, 2), (0, 1), (1, 2)]
        assert g.indptr.dtype == g.indices.dtype == np.int64

    def test_distance_ties_go_to_lower_index(self):
        x = np.array([[0.0], [-1.0], [1.0], [2.0]])
        g = topology.knn_graph(x, 1)
        # point 0 is equidistant from points 1 and 2; the tie picks index 1
        assert neighbor_lists(g)[0] == (1,)

    def test_k_clamped_to_n_minus_1(self, rng):
        x = rng.normal(size=(5, 2))
        g = topology.knn_graph(x, 99)
        assert all(len(nbrs) == 4 for nbrs in neighbor_lists(g))

    def test_errors(self, rng):
        with pytest.raises(OutOfRange):
            topology.knn_graph(np.zeros((3, 1)), 0)
        with pytest.raises(OutOfRange):
            topology.knn_graph(np.zeros((1, 1)), 1)


class TestRowBlocks:
    def test_data_has_ties_at_the_kth_place_in_every_block(self, rng):
        x = block_edge_grid(rng, 2)
        d2 = full_sq_dists(x)
        np.fill_diagonal(d2, np.inf)
        d2.sort(axis=1)
        tied = np.flatnonzero(d2[:, 3] == d2[:, 4])
        assert set(tied // topology.ROW_BLOCK) == {0, 1, 2}

    def test_radius_graph_matches_full_matrix(self, rng):
        coords = block_edge_grid(rng, 2)
        for eps in (1.0, 1.5, 2.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IsolatedNodesWarning)
                g = topology.build_spatial_graph(coords, eps)
            indptr, indices = full_radius_graph(coords, eps)
            assert np.array_equal(g.indptr, indptr)
            assert np.array_equal(g.indices, indices)

    def test_auto_epsilon_matches_full_matrix(self, rng):
        for dims in (2, 3):
            coords = block_edge_grid(rng, dims)
            assert topology.auto_epsilon(coords) == full_auto_epsilon(coords)

    def test_knn_matches_full_matrix(self, rng):
        x = block_edge_grid(rng, 2)
        n = len(x)
        for k in (1, 4, 9, 40):
            g = topology.knn_graph(x, k)
            assert np.array_equal(g.indices.reshape(n, k), full_knn_indices(x, k))


class TestNeighborGraphValidation:
    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            csr_graph([(1,), (0,)], n=3)

    def test_self_loop_rejected(self):
        with pytest.raises(OutOfRange):
            csr_graph([(0,), (0,)])

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(OutOfRange):
            csr_graph([(1,), (2,)])


class TestAugment:
    """The augmented row sample_pairs puts in its payload."""

    def test_mixes_toward_a_neighbor(self, rng):
        feats = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        g = csr_graph([(1, 2), (0,), (0,)])
        probe = np.random.default_rng(99)
        j = [1, 2][int(probe.integers(np.array([2, 1, 1]))[0])]
        r = float(probe.uniform(0.0, 0.4, 3)[0])
        payload, _ = topology.sample_pairs(g, feats, 1, 0.4, np.random.default_rng(99))
        assert np.array_equal(payload[0], (1.0 - r) * feats[0] + r * feats[j])

    def test_p_u_bounds(self, rng):
        feats = np.zeros((2, 1))
        g = csr_graph([(1,), (0,)])
        for bad in (0.0, 1.5, -0.1):
            with pytest.raises(OutOfRange):
                topology.sample_pairs(g, feats, 1, bad, rng)


class TestSamplePairs:
    def test_layout_and_replayability(self):
        """Three array draws, in the documented order, on any bit generator.

        With k = 1 every neighbour draw has a bound of 1.
        """
        n, n_neg, p_u = 7, 3, 0.3
        feats = np.random.default_rng(5).normal(size=(n, 4))
        feats[0, 1] = -0.0
        for k in (1, 3):
            graph = topology.knn_graph(feats, k)
            for bit_generator in (np.random.PCG64, np.random.MT19937):
                rng, clone = np.random.Generator(bit_generator(11)), np.random.Generator(bit_generator(11))
                payload, partners = topology.sample_pairs(graph, feats, n_neg, p_u, rng)
                anchors, want, h, want_payload = sample_pairs_oracle(n, neighbor_lists(graph), feats, n_neg, p_u, clone)
                # row i of the table holds anchor i's pairs, the augmented one (h = 1) first
                assert partners.shape == (n, 1 + n_neg)
                assert np.array_equal(anchors, np.repeat(np.arange(n), 1 + n_neg))
                assert np.array_equal(partners.ravel(), want)
                assert np.array_equal(h.reshape(n, -1) == 1, np.broadcast_to(np.arange(1 + n_neg) == 0, partners.shape))
                assert payload.tobytes() == want_payload.tobytes()
                # the generator is left where the three draws leave it
                assert rng.random() == clone.random()

    def test_errors(self, rng):
        graph = topology.knn_graph(np.arange(3.0)[:, None], 1)
        with pytest.raises(ShapeMismatch):
            topology.sample_pairs(graph, np.zeros((4, 2)), 1, 0.5, rng)
        with pytest.raises(OutOfRange):
            topology.sample_pairs(graph, np.zeros((1, 2)), 1, 0.5, rng)


@given(
    st.integers(2, 12),
    st.integers(1, 4),
    st.integers(0, 2 ** 31 - 1),
)
def test_sample_pairs_invariants(n, n_neg, seed):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, 3))
    graph = topology.knn_graph(feats, min(3, n - 1))
    payload, partners = topology.sample_pairs(graph, feats, n_neg, 0.4, rng)
    assert partners.shape == (n, 1 + n_neg)
    assert np.array_equal(partners[:, 0], n + np.arange(n))
    neg = partners[:, 1:]
    assert np.all((neg >= 0) & (neg < n))
    assert np.all(neg != np.arange(n)[:, None])
    assert payload.shape == (n, 3)
