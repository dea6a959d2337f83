import os
import re

import numpy as np
import pytest

from topofuse import dataio, network, topology
from topofuse.errors import IoFailure, MissingFile, OutOfRange, ShapeMismatch, StaleCache

from _oracles import csr_graph, normalized_adjacency_oracle


def _cfg(**kv):
    base = dict(d_emb=4, n_mlp=1, tau=1)
    base.update(kv)
    return dataio.config_from_dict(base)


def _graph_line(n):
    coords = np.column_stack([np.arange(float(n)), np.zeros(n)])
    return topology.build_spatial_graph(coords, 1.0)


def _dense(a_hat):
    """The n x n matrix of a normalized adjacency, read back through its product."""
    return a_hat @ np.eye(a_hat.n)


class TestNormalizedAdjacency:
    def test_path_graph_hand_values(self):
        a_hat = _dense(network.normalized_adjacency(_graph_line(3)))
        # degrees of A + I are [2, 3, 2]
        s6 = 1.0 / np.sqrt(6.0)
        expected = np.array([[0.5, s6, 0.0], [s6, 1.0 / 3.0, s6], [0.0, s6, 0.5]])
        assert np.allclose(a_hat, expected, atol=1e-15)

    def test_symmetric_with_unit_spectral_radius(self, rng):
        coords = rng.uniform(0, 4, size=(20, 2))
        a_hat = _dense(network.normalized_adjacency(topology.build_spatial_graph(coords, 1.5)))
        assert np.array_equal(a_hat, a_hat.T)
        evals = np.linalg.eigvalsh(a_hat)
        assert evals.max() <= 1.0 + 1e-12

    def test_regular_graph_rows_sum_to_one(self):
        # 4-cycle: every node has degree 2, so A + I is 3-regular
        g = csr_graph([(1, 3), (0, 2), (1, 3), (0, 2)])
        a_hat = _dense(network.normalized_adjacency(g))
        assert np.allclose(a_hat.sum(axis=1), 1.0, atol=1e-15)

    def test_matches_per_edge_loop(self):
        # nodes 3 and 5 are isolated; 0 -> 4, 1 -> 2 and 6 -> 4 are one-way
        nbrs = [(1, 4), (0, 2), (), (), (0,), (), (4,)]
        assert np.array_equal(_dense(network.normalized_adjacency(csr_graph(nbrs))), normalized_adjacency_oracle(nbrs))

    def test_gcn_forward_and_backward_match_the_dense_product(self, rng):
        # node 0 links to every even node (a hub), 3 and 7 have no neighbour,
        # and 9 -> 10 is one-way
        n = 12
        nbrs = [tuple(range(2, n, 2)), (5,), (0,), (), (0, 5), (1, 4), (0,), (), (0,), (10,), (0,), ()]
        dense = normalized_adjacency_oracle(nbrs)
        a_hat = network.normalized_adjacency(csr_graph(nbrs))
        layers = network.init_params(rng, 6, None, _cfg(d_emb=5)).gnn_tra
        x = rng.normal(size=(n, 6))
        y, cache = network.gcn_forward(x, a_hat, layers)
        hidden = np.maximum(dense @ x @ layers[0].w + layers[0].b, 0.0)
        assert np.allclose(y, dense @ hidden @ layers[1].w + layers[1].b, rtol=0.0, atol=1e-12)

        dy = rng.normal(size=y.shape)
        for layer in layers:
            layer.zero_grad()
        network._stack_backward(dy, layers, cache)
        dhidden = (dense.T @ (dy @ layers[1].w.T)) * (hidden > 0.0)
        assert np.allclose(layers[1].gw, (dense @ hidden).T @ dy, rtol=0.0, atol=1e-12)
        assert np.allclose(layers[0].gw, (dense @ x).T @ dhidden, rtol=0.0, atol=1e-12)
        assert np.allclose(layers[0].gb, dhidden.sum(axis=0), rtol=0.0, atol=1e-12)


class TestInitParams:
    def test_shapes_sum_mode(self, rng):
        cfg = _cfg(n_mlp=2)
        p = network.init_params(rng, 7, 3, cfg)
        assert [l.w.shape for l in p.gnn_tra] == [(7, 4), (4, 4)]
        assert [l.w.shape for l in p.gnn_mor] == [(3, 4), (4, 4)]
        assert [l.w.shape for l in p.fusion] == [(4, 4), (4, 4)]
        assert [l.w.shape for l in p.decoder] == [(4, 7)]
        assert p.theta == cfg.theta and p.fusion_mode == "sum" and p.has_mor

    def test_shapes_concat_mode(self, rng):
        p = network.init_params(rng, 5, 2, _cfg(fusion_mode="concat"))
        assert p.fusion[0].w.shape == (8, 4)

    def test_no_mor(self, rng):
        p = network.init_params(rng, 5, None, _cfg())
        assert p.gnn_mor is None and not p.has_mor
        assert p.fusion[0].w.shape == (4, 4)

    def test_glorot_bounds_and_zero_bias(self, rng):
        p = network.init_params(rng, 9, 4, _cfg())
        for _, layer in p.named_layers():
            fan_in, fan_out = layer.w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(layer.w).max() <= limit
            assert np.array_equal(layer.b, np.zeros(fan_out))


class TestForward:
    def test_matches_manual_relu_stack(self, rng):
        n, g, m = 5, 6, 3
        cfg = _cfg(n_mlp=2, theta=0.7)
        params = network.init_params(rng, g, m, cfg)
        x_tra = rng.normal(size=(n, g))
        x_mor = rng.normal(size=(n, m))
        a_hat = network.normalized_adjacency(_graph_line(n))
        es, _ = network.forward_all(params, x_tra, x_mor, a_hat)

        def stack(x, layers, use_graph):
            h = x
            for li, layer in enumerate(layers):
                agg = a_hat @ h if use_graph else h
                h = agg @ layer.w + layer.b
                if li < len(layers) - 1:
                    h = np.maximum(h, 0.0)
            return h

        y_tra = stack(x_tra, params.gnn_tra, True)
        y_mor = stack(x_mor, params.gnn_mor, True)
        z = stack(0.7 * y_tra + (1.0 - 0.7) * y_mor, params.fusion, False)
        x_hat = stack(z, params.decoder, False)
        assert np.array_equal(es.y_tra, y_tra)
        assert np.array_equal(es.y_mor, y_mor)
        assert np.array_equal(es.z, z)
        assert np.array_equal(es.x_hat, x_hat)

    def test_identity_fusion_layer_exposes_theta_blend(self, rng):
        d = 3
        y_tra = rng.normal(size=(4, d))
        y_mor = rng.normal(size=(4, d))
        params = network.ModelParams(
            gnn_tra=[],
            gnn_mor=[],
            fusion=[network.Dense(np.eye(d), np.zeros(d))],
            decoder=[],
            theta=0.25,
            fusion_mode="sum",
        )
        z, _ = network.fuse_forward(y_tra, y_mor, params)
        assert np.allclose(z, 0.25 * y_tra + 0.75 * y_mor, atol=1e-15)

    def test_concat_fusion_shapes_and_backward_split(self, rng):
        n, d = 4, 3
        params = network.ModelParams(
            gnn_tra=[],
            gnn_mor=[],
            fusion=[network.Dense(rng.normal(size=(2 * d, d)), np.zeros(d))],
            decoder=[],
            theta=0.9,
            fusion_mode="concat",
        )
        y_tra = rng.normal(size=(n, d))
        y_mor = rng.normal(size=(n, d))
        z, cache = network.fuse_forward(y_tra, y_mor, params)
        assert z.shape == (n, d)
        dt, dm = network.fuse_backward(rng.normal(size=(n, d)), params, cache)
        assert dt.shape == (n, d) and dm.shape == (n, d)

    def test_modality_mismatch_raises(self, rng):
        params = network.init_params(rng, 5, None, _cfg())
        a_hat = network.normalized_adjacency(_graph_line(3))
        with pytest.raises(ShapeMismatch):
            network.forward_all(params, np.zeros((3, 5)), np.zeros((3, 2)), a_hat)
        params2 = network.init_params(rng, 5, 2, _cfg())
        with pytest.raises(ShapeMismatch):
            network.forward_all(params2, np.zeros((3, 5)), None, a_hat)

    def test_wrong_feature_width_raises(self, rng):
        params = network.init_params(rng, 5, None, _cfg())
        a_hat = network.normalized_adjacency(_graph_line(3))
        with pytest.raises(ShapeMismatch):
            network.forward_all(params, np.zeros((3, 4)), None, a_hat)


class TestBackward:
    def test_all_upstream_paths_match_finite_differences(self, rng):
        n, g, m = 5, 4, 3
        cfg = _cfg(n_mlp=2, d_emb=3)
        params = network.init_params(rng, g, m, cfg)
        x_tra = rng.normal(size=(n, g))
        x_mor = rng.normal(size=(n, m))
        a_hat = network.normalized_adjacency(_graph_line(n))
        r_z = rng.normal(size=(n, 3))
        r_xh = rng.normal(size=(n, g))

        def scalar_loss(p):
            es, _ = network.forward_all(p, x_tra, x_mor, a_hat)
            return float((es.z * r_z).sum() + (es.x_hat * r_xh).sum())

        params.zero_grads()
        _, caches = network.forward_all(params, x_tra, x_mor, a_hat)
        network.backward_all(params, caches, dz=r_z, dxhat=r_xh)

        h = 1e-5
        worst = 0.0
        for _, layer in params.named_layers():
            for arr, grad in ((layer.w, layer.gw), (layer.b, layer.gb)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    old = arr[idx]
                    arr[idx] = old + h
                    fp = scalar_loss(params)
                    arr[idx] = old - h
                    fm = scalar_loss(params)
                    arr[idx] = old
                    fd = (fp - fm) / (2 * h)
                    worst = max(worst, abs(grad[idx] - fd) / max(1.0, abs(fd)))
        assert worst < 1e-6

    def test_only_mlp_stacks_return_an_input_gradient(self, rng):
        params = network.init_params(rng, 4, None, _cfg(n_mlp=2))
        a_hat = network.normalized_adjacency(_graph_line(3))
        y, gcn_cache = network.gcn_forward(rng.normal(size=(3, 4)), a_hat, params.gnn_tra)
        assert network._stack_backward(rng.normal(size=y.shape), params.gnn_tra, gcn_cache) is None
        z, mlp_cache = network._stack_forward(y, params.fusion, None)
        r = rng.normal(size=z.shape)
        dy = network._stack_backward(r, params.fusion, mlp_cache)
        hidden = (r @ params.fusion[1].w.T) * (mlp_cache["pre"][0] > 0.0)
        assert np.array_equal(dy, hidden @ params.fusion[0].w.T)

    def test_dropping_the_input_gradient_keeps_the_layer_gradients(self, rng):
        layers = [network._glorot(rng, 5, 5), network._glorot(rng, 5, 2)]
        z, cache = network._stack_forward(rng.normal(size=(7, 5)), layers, None)
        dout = rng.normal(size=z.shape)
        grads = []
        for input_grad in (True, False):
            for layer in layers:
                layer.zero_grad()
            dx = network._stack_backward(dout, layers, cache, input_grad=input_grad)
            assert (dx is None) == (not input_grad)
            grads.append([(layer.gw.tobytes(), layer.gb.tobytes()) for layer in layers])
        assert grads[0] == grads[1]

    def test_grads_accumulate_until_zeroed(self, rng):
        params = network.init_params(rng, 4, None, _cfg())
        x = rng.normal(size=(3, 4))
        a_hat = network.normalized_adjacency(_graph_line(3))
        _, caches = network.forward_all(params, x, None, a_hat)
        dz = rng.normal(size=(3, 4))
        network.backward_all(params, caches, dz=dz)
        once = params.decoder[0].gw.copy()
        network.backward_all(params, caches, dz=dz)
        assert np.allclose(params.decoder[0].gw, 2.0 * once, atol=1e-12)
        params.zero_grads()
        assert np.array_equal(params.decoder[0].gw, np.zeros_like(once))

    def test_stale_cache_rejected(self, rng):
        params = network.init_params(rng, 4, None, _cfg(n_mlp=2))
        x = rng.normal(size=(3, 4))
        a_hat = network.normalized_adjacency(_graph_line(3))
        _, caches = network.forward_all(params, x, None, a_hat)
        params.fusion.pop()
        with pytest.raises(StaleCache):
            network.backward_all(params, caches, dz=np.zeros((3, 4)))


class TestDropout:
    def test_zero_rate_is_identity(self, rng):
        assert network.dropout_mask((3, 3), 0.0, rng) is None

    def test_mask_values_and_rate(self):
        rng = np.random.default_rng(0)
        mask = network.dropout_mask((200, 50), 0.1, rng)
        vals = np.unique(mask)
        assert set(np.round(vals, 12)) <= {0.0, round(1.0 / 0.9, 12)}
        drop_rate = (mask == 0).mean()
        assert 0.07 < drop_rate < 0.13


def _named(params):
    params.gene_ids = [f"g{i}" for i in range(params.decoder[0].w.shape[1])]
    params.epsilon_used = 1.25
    return params


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, rng):
        params = _named(network.init_params(rng, 6, 3, _cfg(n_mlp=2, fusion_mode="concat")))
        path = tmp_path / "ckpt.npz"
        network.save_checkpoint(params, str(path))
        back = network.load_checkpoint(str(path))
        assert back.theta == params.theta and back.fusion_mode == "concat"
        assert back.gene_ids == params.gene_ids
        assert back.epsilon_used == 1.25
        orig = dict(params.named_layers())
        loaded = dict(back.named_layers())
        assert orig.keys() == loaded.keys()
        for name in orig:
            assert orig[name].w.tobytes() == loaded[name].w.tobytes()
            assert orig[name].b.tobytes() == loaded[name].b.tobytes()
            assert loaded[name].w.dtype == loaded[name].b.dtype == np.float64

    def test_loaded_params_reproduce_forward(self, tmp_path, rng):
        params = _named(network.init_params(rng, 5, None, _cfg()))
        x = rng.normal(size=(4, 5))
        a_hat = network.normalized_adjacency(_graph_line(4))
        es, _ = network.forward_all(params, x, None, a_hat)
        path = tmp_path / "ckpt.npz"
        network.save_checkpoint(params, str(path))
        back = network.load_checkpoint(str(path))
        assert back.gnn_mor is None
        es2, _ = network.forward_all(back, x, None, a_hat)
        assert np.array_equal(es.z, es2.z) and np.array_equal(es.x_hat, es2.x_hat)

    def test_two_saves_write_the_same_bytes(self, tmp_path, rng):
        params = _named(network.init_params(rng, 6, 3, _cfg()))
        network.save_checkpoint(params, str(tmp_path / "a.npz"))
        network.save_checkpoint(params, str(tmp_path / "b.npz"))
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_params_must_name_their_genes(self, tmp_path, rng):
        params = network.init_params(rng, 6, None, _cfg())
        with pytest.raises(ShapeMismatch):
            network.save_checkpoint(params, str(tmp_path / "ckpt.npz"))
        params.gene_ids = ["g0"]
        with pytest.raises(ShapeMismatch):
            network.save_checkpoint(params, str(tmp_path / "ckpt.npz"))

    def test_params_must_record_their_radius(self, tmp_path, rng):
        params = _named(network.init_params(rng, 6, None, _cfg()))
        params.epsilon_used = None
        with pytest.raises(OutOfRange, match="radius"):
            network.save_checkpoint(params, str(tmp_path / "ckpt.npz"))

    def _saved(self, tmp_path, rng):
        path = tmp_path / "ckpt.npz"
        network.save_checkpoint(_named(network.init_params(rng, 6, 3, _cfg())), str(path))
        return path

    def _refused(self, path, error):
        with pytest.raises(error) as info:
            network.load_checkpoint(str(path))
        assert str(path) in str(info.value)
        return str(info.value)

    def test_load_errors(self, tmp_path):
        self._refused(tmp_path / "none.npz", MissingFile)
        path = tmp_path / "ckpt.npz"
        path.write_bytes(b"\x00\x01 not an archive\n")
        self._refused(path, IoFailure)
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))  # a bare .npy array is no checkpoint either
        self._refused(path, IoFailure)

    def test_truncated_file(self, tmp_path, rng):
        path = self._saved(tmp_path, rng)
        data = path.read_bytes()
        for size in (len(data) // 2, len(data) - 30, 3):
            path.write_bytes(data[:size])
            self._refused(path, IoFailure)

    def test_wrong_format(self, tmp_path, rng):
        path = self._saved(tmp_path, rng)
        with np.load(path) as npz:
            arrays = dict(npz)
        for fmt in ("topofuse-ckpt-v1", "topofuse-ckpt-v2", "other-format"):
            arrays["format"] = np.array(fmt)
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
            message = self._refused(path, StaleCache)
            assert fmt in message and "retrain" in message
        del arrays["format"]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        self._refused(path, StaleCache)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda a: a.pop("decoder.0.w"),
            lambda a: a.pop("gnn_tra.1.b"),
            lambda a: a.update({"fusion.0.w": a["fusion.0.w"].astype(str)}),
            lambda a: a.update({"fusion.0.b": a["fusion.0.b"][:-1]}),
            lambda a: a.pop("gene_ids"),
            lambda a: a.update({"theta": np.array("0.9")}),
            lambda a: a.pop("epsilon_used"),
        ],
        ids=["no-decoder", "no-bias", "text-tensor", "short-bias", "no-genes", "text-theta", "no-radius"],
    )
    def test_malformed_archive(self, tmp_path, rng, edit):
        path = self._saved(tmp_path, rng)
        with np.load(path) as npz:
            arrays = dict(npz)
        edit(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        self._refused(path, StaleCache)

    def test_v1_json_says_retrain(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format": "topofuse-ckpt-v1", "theta": 0.9, "tensors": {}}\n')
        assert "retrain" in self._refused(path, StaleCache)

    def test_object_array_is_never_unpickled(self, tmp_path, rng):
        marker = tmp_path / "unpickled"

        class Payload:
            def __reduce__(self):
                return (os.mkdir, (str(marker),))

        path = self._saved(tmp_path, rng)
        with np.load(path) as npz:
            arrays = dict(npz)
        arrays["gene_ids"] = np.array([Payload()], dtype=object)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        self._refused(path, IoFailure)
        assert not marker.exists()


class TestCheckGenes:
    def test_same_genes_and_unnamed_params_pass(self, rng):
        params = network.init_params(rng, 3, None, _cfg())
        network.check_genes(params, ["a", "b", "c"])
        params.gene_ids = ["a", "b", "c"]
        network.check_genes(params, ["a", "b", "c"])

    @pytest.mark.parametrize(
        "given, where",
        [
            (["a", "x", "c"], "gene column 1 is 'b' in the model and 'x' in the data"),
            (["a", "b"], "gene column 2 is 'c' in the model and absent (2 genes) in the data"),
            (["a", "b", "c", "d"], "gene column 3 is absent (3 genes) in the model and 'd' in the data"),
        ],
    )
    def test_first_difference_is_named(self, rng, given, where):
        params = network.init_params(rng, 3, None, _cfg())
        params.gene_ids = ["a", "b", "c"]
        with pytest.raises(StaleCache, match=re.escape(where)):
            network.check_genes(params, given)
