import copy
import math
import os
import warnings

import numpy as np
import pytest

from topofuse import dataio, network, objective, preprocess, topology, worker
from topofuse.errors import NonFiniteLoss, OutOfRange, ShapeMismatch

from _oracles import binary_entropy, pair_prior_oracle, step_oracle, topo_dz_oracle


class TestKappa:
    def test_hand_values(self):
        assert objective.kappa([0.0, 0.0], [1.0, 0.0], 1.0) == 0.25
        # nu = 0.05: exponent -(1.05 / 0.05) = -21, base 1 + 0.05/0.05 = 2
        assert objective.kappa([0.0], [math.sqrt(0.05)], 0.05) == pytest.approx(
            2.0**-21, rel=1e-12
        )

    def test_self_similarity_is_one(self, rng):
        a = rng.normal(size=7)
        assert objective.kappa(a, a, 0.3) == 1.0

    def test_monotone_decreasing_in_distance(self):
        xs = np.linspace(0.0, 5.0, 40)
        vals = [objective.kappa([0.0], [x], 0.7) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_invalid_nu(self):
        with pytest.raises(OutOfRange):
            objective.kappa([0.0], [1.0], 0.0)


class TestTopoPrior:
    def test_augmented_boost_and_cap(self):
        y0, y1 = np.array([0.0]), np.array([1.0])
        assert objective.topo_prior(y0, y1, 0, math.log(2.0), 1.0) == 0.25
        assert objective.topo_prior(y0, y1, 1, math.log(2.0), 1.0) == pytest.approx(
            0.5, rel=1e-12
        )
        assert objective.topo_prior(y0, y0, 1, math.log(2.0), 1.0) == 1.0

    def test_h_must_be_binary(self):
        with pytest.raises(OutOfRange):
            objective.topo_prior(np.zeros(2), np.ones(2), 2, 0.0, 1.0)


class TestPairPrior:
    def test_entries_are_topo_prior_with_column_0_boosted(self, rng):
        y = rng.normal(size=(9, 3))
        partners = rng.integers(0, 9, size=(4, 3))
        t = objective.pair_prior(partners, y, 0.7, 0.4)
        assert t.shape == partners.shape
        for i in range(4):
            for k in range(3):
                p = partners[i, k]  # one-row arrays: numpy's power on arrays, as pair_prior's
                want = objective.topo_prior(y[i : i + 1], y[p : p + 1], int(k == 0), 0.7, 0.4)[0]
                assert t[i, k] == want

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    @pytest.mark.parametrize("layout", ["train", "vis"])
    def test_equals_the_per_pair_oracle_bit_for_bit(self, rng, layout, alpha):
        c = 1 + topology.N_NEG
        n = 3 * (objective.PAIR_BLOCK // c) + 7  # the last anchor block is a partial one
        assert n % (objective.PAIR_BLOCK // c) != 0
        if layout == "train":  # base rows then view rows; column 0 is anchor i's view row n + i
            y = rng.normal(size=(2 * n, 5))
            partners = rng.integers(0, 2 * n, size=(n, c))
            partners[:, 0] = n + np.arange(n)
        else:  # the visualization's: one row per anchor, any row as a partner
            y = rng.normal(size=(n, 5))
            partners = rng.integers(0, n, size=(n, c))
        t = objective.pair_prior(partners, y, alpha, 0.8)
        assert t.shape == partners.shape
        assert t.tobytes() == pair_prior_oracle(partners, y, alpha, 0.8).tobytes()


class TestTopoLoss:
    def test_single_pair_hand_value(self):
        # nu=1, d^2 = sqrt(2)-1 gives S = 1/2, so a t=1 pair costs ln 2
        x = math.sqrt(math.sqrt(2.0) - 1.0)
        z = np.array([[0.0], [x]])
        loss, dz = objective.topo_loss(np.array([[1]]), np.array([[1.0]]), z, 1.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        # dL/dd2 = t * p / (nu * u) = 2 / sqrt(2); dz_i = 2 * dL/dd2 * (z_i - z_j)
        assert dz[0, 0] == pytest.approx(2.0 * math.sqrt(2.0) * -x, rel=1e-12)
        assert dz[1, 0] == -dz[0, 0]

    def test_prior_nu_separate_from_latent_nu(self):
        y = np.array([[0.0], [1.0]])
        z = np.array([[0.0], [1.0]])
        pair = np.array([[1]])
        loss, _ = objective.topo_loss(pair, objective.pair_prior(pair, y, 0.0, 1.0), z, 0.5)
        # t = 0.25 from nu=1 (alpha = 0 leaves the positive unboosted); S = 3^-3 from nu=0.5
        s = 27.0**-1.0
        assert loss == pytest.approx(-(0.25 * math.log(s) + 0.75 * math.log(1 - s)), abs=1e-12)

    def test_high_target_pulls_low_target_pushes(self, rng):
        z = rng.normal(size=(4, 3))
        for t, sign in ((np.array([[0.95]]), 1.0), (np.array([[0.02]]), -1.0)):
            _, dz = objective.topo_loss(np.array([[1]]), t, z, 1.0)
            assert sign * float(dz[0] @ (z[0] - z[1])) > 0.0

    def test_gradient_matches_finite_differences(self, rng):
        n, d = 6, 3
        z = rng.normal(size=(n, d))
        partners = np.array([[3, 5], [4, 0], [5, 4], [0, 1], [1, 2], [2, 3]])
        t = rng.uniform(0.2, 0.8, size=partners.shape)

        def f(zv):
            loss, _ = objective.topo_loss(partners, t, zv, 0.8)
            return loss

        _, dz = objective.topo_loss(partners, t, z, 0.8)
        h = 1e-6
        worst = 0.0
        for i in range(n):
            for c in range(d):
                zp = z.copy()
                zp[i, c] += h
                zm = z.copy()
                zm[i, c] -= h
                fd = (f(zp) - f(zm)) / (2 * h)
                worst = max(worst, abs(dz[i, c] - fd) / max(1.0, abs(fd)))
        assert worst < 1e-7

    def test_clamp_floors_the_value(self):
        far = np.array([[0.0], [1e6]])
        pair = np.array([[1]])
        loss_hi_t, _ = objective.topo_loss(pair, np.array([[1.0]]), far, 1.0)
        assert loss_hi_t == pytest.approx(-math.log(1e-7), abs=1e-12)
        near = np.array([[0.0], [0.0]])
        loss_lo_t, _ = objective.topo_loss(pair, np.array([[0.0]]), near, 1.0)
        assert loss_lo_t == pytest.approx(-math.log(1e-7), abs=1e-12)
        loss_hi, _ = objective.topo_loss(pair, np.array([[1.0]]), near, 1.0)
        assert loss_hi == pytest.approx(-math.log1p(-1e-7), abs=1e-15)

    def test_attraction_survives_the_value_clamp(self):
        # S underflows past the clamp floor, yet a live target must still
        # pull the pair together: the 1/S factor cancels the kernel tail.
        z = np.array([[0.0], [1e6]])
        _, dz = objective.topo_loss(np.array([[1]]), np.array([[0.5]]), z, 1.0)
        u = 1.0 + 1e12
        expected = 2.0 * (0.5 * 2.0 / u) * -1e6
        assert dz[0, 0] == pytest.approx(expected, rel=1e-9)
        assert dz[0, 0] < 0.0

    def test_loss_at_matching_similarities_is_entropy_floor(self, rng):
        z = rng.normal(size=(5, 2))
        partners = np.array([[2], [3], [4]])
        d2 = ((z[:3] - z[partners[:, 0]]) ** 2).sum(axis=1)
        t = (1.0 + d2) ** -2.0
        loss, _ = objective.topo_loss(partners, t[:, None], z, 1.0)
        assert loss == pytest.approx(binary_entropy(t), abs=1e-9)

    def test_scatter_matches_add_at(self, rng):
        # random tables with repeated partners, an all-zero column and two equal
        # rows, whose pairs contribute signed zeros; column 0 holds the views
        # n + i, as in training, or dataset rows, as in the visualization
        n, c = 7, 4
        for views in (True, False):
            z = rng.normal(size=(2 * n if views else n, 3))
            z[:, 1] = 0.0
            z[5] = z[2]
            for _ in range(10):
                partners = rng.integers(0, n, size=(n, c))
                partners[2, 1:3] = 5
                partners[5, 2] = 2
                if views:
                    partners[:, 0] = n + np.arange(n)
                t = rng.uniform(0.0, 1.0, size=(n, c))
                _, dz = objective.topo_loss(partners, t, z, 0.7)
                want = topo_dz_oracle(np.repeat(np.arange(n), c), partners.ravel(), z, t.ravel(), 0.7, objective.S_CLAMP)
                assert np.array_equal(dz, want)
                assert np.array_equal(np.signbit(dz), np.signbit(want))

    def test_shape_errors(self):
        z = np.zeros((3, 2))
        pair = np.array([[1]])
        with pytest.raises(ShapeMismatch):
            objective.topo_loss(pair, np.zeros(1), z, 1.0)
        # a partner past the rows, a negative partner, a table longer than z
        for partners in ([[1], [4]], [[1], [-1]], [[1], [2], [0], [1]]):
            with pytest.raises(ShapeMismatch):
                objective.topo_loss(np.array(partners), np.full((len(partners), 1), 0.5), z, 1.0)

    def test_nonpositive_nu(self):
        z = np.zeros((2, 1))
        for nu in (0.0, -1.0):
            with pytest.raises(OutOfRange):
                objective.topo_loss(np.array([[1]]), np.array([[0.5]]), z, nu)


class TestReconLoss:
    def test_hand_value_and_gradient(self):
        x = np.zeros((2, 2))
        x_hat = np.array([[0.0, 0.0], [3.0, 4.0]])
        loss, grad = objective.recon_loss(x, x_hat)
        assert loss == 12.5
        assert np.array_equal(grad, x_hat)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            objective.recon_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestAdam:
    def test_first_step_is_signed_learning_rate(self, rng):
        cfg = dataio.config_from_dict({"d_emb": 3, "n_mlp": 1})
        params = network.init_params(rng, list("abcd"), 2, cfg)
        before = {name: (l.w.copy(), l.b.copy()) for name, l in params.named_layers()}
        for _, layer in params.named_layers():
            layer.gw[...] = 1.0
            layer.gb[...] = 1.0
        objective.Adam([layer for _, layer in params.named_layers()], lr=0.05).step()
        # bias correction makes the first step lr * g / (|g| + eps)
        step = 0.05 * 1.0 / (np.sqrt(1.0) + 1e-8)
        for name, layer in params.named_layers():
            w0, b0 = before[name]
            assert np.array_equal(layer.w, w0 - step)
            assert np.array_equal(layer.b, b0 - step)

    def test_zero_lr_freezes_params(self, rng):
        cfg = dataio.config_from_dict({"d_emb": 3, "n_mlp": 1})
        params = network.init_params(rng, list("abcd"), None, cfg)
        w0 = params.decoder[0].w.copy()
        params.decoder[0].gw[...] = 5.0
        objective.Adam([layer for _, layer in params.named_layers()], lr=0.0).step()
        assert np.array_equal(params.decoder[0].w, w0)


def _toy_training(rng, n=24, g=6, m=3, side=6):
    # two expression blobs laid out on a grid
    tra = rng.normal(size=(n, g))
    tra[: n // 2, :2] += 2.5
    mor = rng.normal(size=(n, m))
    pre = preprocess.PreprocessedData(
        tra=tra,
        gene_ids=[f"g{i:04d}" for i in range(g)],
        mor=mor,
    )
    coords = np.column_stack([np.arange(n) % side, np.arange(n) // side]).astype(np.float64)
    graph = topology.build_spatial_graph(coords, 1.0)
    return pre, graph


class TestTrain:
    def test_zero_lr_returns_initial_network_output(self, rng):
        pre, graph = _toy_training(rng)
        cfg = dataio.config_from_dict({"lr": 0.0, "epochs": 3, "seed": 11, "d_emb": 4, "k_tr": 3, "k_mo": 3})
        state, es = objective.train(pre, graph, cfg)
        fresh = network.init_params(np.random.default_rng(11), pre.gene_ids, pre.mor.shape[1], cfg)
        a_hat = network.normalized_adjacency(graph)
        es0, _ = network.forward_all(fresh, pre.tra, pre.mor, a_hat)
        assert np.array_equal(es.z, es0.z)
        assert np.array_equal(es.x_hat, es0.x_hat)
        assert len(state.history) == 3

    def test_trained_model_saves_and_reloads_as_built(self, rng, tmp_path):
        pre, graph = _toy_training(rng)
        cfg = dataio.config_from_dict({"epochs": 2, "d_emb": 4, "k_tr": 3, "k_mo": 3, "epsilon_radius": 1.0})
        state, _ = objective.train(pre, graph, cfg)
        assert state.params.gene_ids == pre.gene_ids and state.params.config is cfg
        path = str(tmp_path / "ckpt.npz")
        network.save_checkpoint(state.params, path)  # nothing is assigned after training
        back = network.load_checkpoint(path)
        assert back.gene_ids == pre.gene_ids and back.config == cfg
        for (name, layer), (_, loaded) in zip(state.params.named_layers(), back.named_layers(), strict=True):
            assert layer.w.tobytes() == loaded.w.tobytes() and layer.b.tobytes() == loaded.b.tobytes(), name

    def test_zero_lambda_total_is_pure_topology(self, rng):
        pre, graph = _toy_training(rng)
        cfg = dataio.config_from_dict({"lambda_": 0.0, "epochs": 4, "seed": 2, "d_emb": 4, "k_tr": 3, "k_mo": 3})
        state, _ = objective.train(pre, graph, cfg)
        for h in state.history:
            assert h["total"] == h["l_topo_tra"] + h["l_topo_mor"]
            assert h["l_recon"] >= 0.0

    def test_single_modality_history_has_no_mor_entry(self, rng):
        pre, graph = _toy_training(rng)
        pre.mor = None
        cfg = dataio.config_from_dict({"epochs": 2, "seed": 3, "d_emb": 4, "k_tr": 3})
        state, es = objective.train(pre, graph, cfg)
        assert state.history[0]["l_topo_mor"] is None
        assert es.y_mor is None

    def test_loss_decreases(self, rng):
        pre, graph = _toy_training(rng, n=60, side=10)
        cfg = dataio.config_from_dict({"epochs": 80, "seed": 4, "d_emb": 8, "k_tr": 5, "k_mo": 5})
        state, es = objective.train(pre, graph, cfg)
        totals = [h["total"] for h in state.history]
        assert np.mean(totals[-10:]) < np.mean(totals[:10])
        assert np.all(np.isfinite(es.z))

    def test_deterministic_given_seed(self, rng):
        pre, graph = _toy_training(rng)
        cfg = dataio.config_from_dict({"epochs": 6, "seed": 7, "d_emb": 4, "k_tr": 3, "k_mo": 3})
        _, es1 = objective.train(pre, graph, cfg)
        _, es2 = objective.train(pre, graph, cfg)
        assert np.array_equal(es1.z, es2.z)

    def test_divergent_run_raises(self, rng):
        pre, graph = _toy_training(rng)
        cfg = dataio.config_from_dict({"lr": 1e150, "epochs": 4, "seed": 5, "d_emb": 4, "k_tr": 3, "k_mo": 3})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonFiniteLoss):
                objective.train(pre, graph, cfg)

    def test_views_run_no_decoder(self, rng, monkeypatch):
        calls = []
        real = network.decode_forward

        def counting(z, params):
            calls.append(z.shape)
            return real(z, params)

        # `_step` calls the decoder itself, `forward_all` the final pass's
        for module in (network, objective):
            monkeypatch.setattr(module, "decode_forward", counting)
        pre, graph = _toy_training(rng)
        cfg = dataio.config_from_dict({"epochs": 3, "seed": 7, "d_emb": 4, "k_tr": 3, "k_mo": 3})
        objective.train(pre, graph, cfg)
        # one base pass per epoch plus the final pass
        assert len(calls) == 4

    def test_propagations_per_epoch(self, rng, monkeypatch):
        calls = []
        real = network.NormalizedAdjacency.__matmul__

        def counting(a_hat, h):
            calls.append(h.shape[1])
            return real(a_hat, h)

        monkeypatch.setattr(network.NormalizedAdjacency, "__matmul__", counting)
        pre, graph = _toy_training(rng)
        counts = []
        for epochs in (1, 2):
            calls.clear()
            cfg = dataio.config_from_dict({"epochs": epochs, "seed": 7, "d_emb": 4, "k_tr": 3, "k_mo": 3})
            objective.train(pre, graph, cfg)
            counts.append(len(calls))
        # per epoch: the base forward 4 (two layers per modality); per modality its
        # view's forward 2, the frozen prior 1 + 1 (its first aggregates are the
        # cached ones) and the view's backward 2; the base backward 2
        assert counts[1] - counts[0] == 18

    def test_modality_graphs_are_built_once(self, rng, monkeypatch):
        calls = []
        real = objective.knn_graph

        def counting(x, k):
            calls.append(x.shape)
            return real(x, k)

        monkeypatch.setattr(objective, "knn_graph", counting)
        pre, graph = _toy_training(rng)
        cfg = dataio.config_from_dict({"epochs": 25, "seed": 7, "d_emb": 4, "k_tr": 3, "k_mo": 3})
        objective.train(pre, graph, cfg)
        assert calls == [pre.tra.shape, pre.mor.shape]

    def test_prior_never_follows_the_trained_weights(self, rng, monkeypatch):
        real = objective.topo_loss

        def priors_seen(lr):
            seen = []

            def recording(batch, t, *args):
                seen.append(t.copy())
                return real(batch, t, *args)

            monkeypatch.setattr(objective, "topo_loss", recording)
            cfg = dataio.config_from_dict({"lr": lr, "epochs": 12, "seed": 7, "d_emb": 4, "k_tr": 3, "k_mo": 3})
            state, _ = objective.train(pre, graph, cfg)
            return seen, state

        pre, graph = _toy_training(rng)
        frozen, still = priors_seen(0.0)
        trained, moved = priors_seen(0.01)
        assert len(trained) == len(frozen) == 2 * 12
        assert all(np.array_equal(a, b) for a, b in zip(trained, frozen))
        # the encoders did move, so a prior taken from them would differ
        for name in ("gnn_tra", "gnn_mor"):
            assert not np.array_equal(getattr(moved.params, name)[0].w, getattr(still.params, name)[0].w)

    def test_graph_size_mismatch(self, rng):
        pre, graph = _toy_training(rng)
        line = np.column_stack([np.arange(5.0), np.zeros(5)])
        small = topology.build_spatial_graph(line, 1.0)
        with pytest.raises(ShapeMismatch):
            objective.train(pre, small, dataio.config_from_dict({"epochs": 1}))


class TestStepOrder:
    @pytest.mark.parametrize("mor, lambda_", [(True, 0.01), (False, 0.01), (True, 0.0)], ids=["mor", "no-mor", "lambda-0"])
    def test_step_equals_the_decoder_first_oracle_bit_for_bit(self, rng, monkeypatch, mor, lambda_):
        pre, graph = _toy_training(rng)
        if not mor:
            pre.mor = None
        real, steps = objective._step, []

        def compared(data, params, encoders, arrays, a_hat, cfg):
            twin = copy.deepcopy(params)
            want = step_oracle(data, twin, arrays, a_hat, cfg.lambda_, cfg.nu)
            got = real(data, params, encoders, arrays, a_hat, cfg)
            assert repr(got) == repr(want)  # repr tells every float apart, -0.0 from 0.0 too
            for (name, a), (_, b) in zip(params.named_layers(), twin.named_layers()):
                assert a.gw.tobytes() == b.gw.tobytes() and a.gb.tobytes() == b.gb.tobytes(), name
            steps.append(got)
            return got

        monkeypatch.setattr(objective, "_step", compared)
        cfg = dataio.config_from_dict(
            {"epochs": 3, "seed": 7, "d_emb": 4, "n_mlp": 2, "k_tr": 3, "k_mo": 3, "lambda_": lambda_}
        )
        objective.train(pre, graph, cfg)
        assert len(steps) == 3


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestForkedFeeder:
    @pytest.mark.parametrize("mor, epochs", [(True, 6), (False, 6), (True, 1)], ids=["mor", "no-mor", "one-epoch"])
    def test_forked_and_inline_training_give_the_same_bytes(self, rng, forked, two_cpus, mor, epochs):
        pre, graph = _toy_training(rng)
        if not mor:
            pre.mor = None
        cfg = dataio.config_from_dict({"epochs": epochs, "seed": 7, "d_emb": 4, "k_tr": 3, "k_mo": 3})
        inline, es_inline = objective.train(pre, graph, cfg)
        worker.allow(1)
        remote, es_remote = objective.train(pre, graph, cfg)
        assert len(forked) == (epochs > 1)  # one epoch is drawn here, with no child
        _assert_reaped(forked)
        assert repr(inline.history) == repr(remote.history)
        for (name, a), (_, b) in zip(inline.params.named_layers(), remote.params.named_layers()):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b), name
        for field in ("y_tra", "y_mor", "z", "x_hat"):
            a, b = getattr(es_inline, field), getattr(es_remote, field)
            assert (a is None and b is None) or np.array_equal(a, b), field

    def test_an_error_in_the_feeders_draw_reaches_the_trainer(self, rng, monkeypatch, forked, spare_cpu):
        real, calls = objective.sample_pairs, []

        def third_epoch_fails(n, *args):
            calls.append(n)
            if len(calls) > 4:  # two modalities per epoch
                raise OutOfRange("no pairs for epoch 3")
            return real(n, *args)

        monkeypatch.setattr(objective, "sample_pairs", third_epoch_fails)
        pre, graph = _toy_training(rng)
        cfg = dataio.config_from_dict({"epochs": 6, "seed": 7, "d_emb": 4, "k_tr": 3, "k_mo": 3})
        with pytest.raises(OutOfRange, match="no pairs for epoch 3"):
            objective.train(pre, graph, cfg)
        assert len(calls) == 2 and len(forked) == 1  # the trainer drew epoch 1 only
        _assert_reaped(forked)

    def test_a_divergent_run_kills_and_reaps_the_feeder(self, rng, forked, spare_cpu):
        pre, graph = _toy_training(rng)
        cfg = dataio.config_from_dict({"lr": 1e150, "epochs": 40, "seed": 5, "d_emb": 4, "k_tr": 3, "k_mo": 3})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonFiniteLoss, match="at epoch [2-9]"):
                objective.train(pre, graph, cfg)
        assert len(forked) == 1
        _assert_reaped(forked)
