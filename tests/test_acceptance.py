"""Acceptance gate: nine numbered criteria, one PASS/FAIL line each.

The lines are echoed in the terminal summary by the conftest hook. Criteria
6, 8 and 9 share one session-scoped end-to-end CLI run (synthetic dataset,
two full `report` invocations with --threads 1).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import topofuse
from _oracles import (
    ari_pair_oracle,
    binary_entropy,
    mrre_classic_scale,
)
from topofuse import dataio, downstream, evaluate, network, objective, preprocess, synth, topology

RESULTS = []

# The CLI runs in a child process whose cwd is a temp directory, so a
# relative PYTHONPATH entry such as `src` would resolve there. Putting the
# absolute directory that holds the imported package first makes the child
# run the same tree that criterion 9 then loads in-process.
_PKG_FILE = Path(topofuse.__file__).resolve()
_PKG_ROOT = str(_PKG_FILE.parents[1])


def _record(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _python(args, cwd):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_PKG_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"{args}: {proc.stderr}"
    return proc


def _cli(args, cwd):
    return _python(["-m", "topofuse", *args], cwd)


@pytest.fixture(scope="session")
def e2e(tmp_path_factory):
    """Synthetic dataset plus two identical single-threaded report runs."""
    base = tmp_path_factory.mktemp("e2e")
    data, run1, run2 = base / "data", base / "run1", base / "run2"
    # A stale installed copy must not stand in for the tree under test.
    child_file = Path(_python(["-c", "import topofuse; print(topofuse.__file__)"], base).stdout.strip()).resolve()
    assert child_file == _PKG_FILE, f"subprocess imports topofuse from {child_file}, test process from {_PKG_FILE}"
    _cli(["synth", "--out", str(data), "--seed", "42", "--threads", "1"], base)
    t0 = time.perf_counter()
    _cli(["report", "--data", str(data), "--out", str(run1), "--threads", "1"], base)
    seconds = time.perf_counter() - t0
    _cli(["report", "--data", str(data), "--out", str(run2), "--threads", "1"], base)
    return {"data": data, "run1": run1, "run2": run2, "seconds": seconds}


def test_criterion_1_gradient_fidelity():
    """Central finite differences over every parameter on a 6-spot instance."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n, g, m, d = 6, 4, 3, 5
    # nu=1 keeps every sampled pair inside the unclamped band, so the loss
    # is differentiable everywhere the checker probes.
    cfg = dataio.config_from_dict(
        {"d_emb": d, "nu": 1.0, "lambda_": 0.37, "k_tr": 2, "k_mo": 2, "r_u_tr": 0.3, "r_u_mo": 0.3, "n_mlp": 2}
    )
    x_tra = rng.normal(size=(n, g))
    x_mor = rng.normal(size=(n, m))
    coords = rng.uniform(0, 3, size=(n, 2))
    eps = float(np.median(np.linalg.norm(coords[:, None] - coords[None, :], axis=-1))) + 0.5
    a_hat = network.normalized_adjacency(topology.build_spatial_graph(coords, eps))

    params = network.init_params(rng, [f"g{i}" for i in range(g)], m, cfg)
    pay_tr, b_tr = topology.sample_pairs(topology.knn_graph(x_tra, cfg.k_tr), x_tra, topology.N_NEG, cfg.r_u_tr, rng)
    pay_mo, b_mo = topology.sample_pairs(topology.knn_graph(x_mor, cfg.k_mo), x_mor, topology.N_NEG, cfg.r_u_mo, rng)

    def forwards(p):
        es, c = network.forward_all(p, x_tra, x_mor, a_hat)
        es_t, c_t = network.forward_all(p, pay_tr, x_mor, a_hat)
        es_m, c_m = network.forward_all(p, x_tra, pay_mo, a_hat)
        return es, c, es_t, c_t, es_m, c_m

    # The prior is detached during training, so freeze it at the base point
    # to keep the finite-difference objective a pure function of the weights.
    es0, _, es_t0, _, es_m0, _ = forwards(params)

    def prior(partners, y_full):
        # column 0 of each table row is the augmented partner, the one h = 1 boosts
        h = np.arange(partners.shape[1]) == 0
        return objective.topo_prior(y_full[:n, None], y_full[partners], h, cfg.alpha, cfg.nu)

    t_tr = prior(b_tr, np.vstack([es0.y_tra, es_t0.y_tra]))
    t_mo = prior(b_mo, np.vstack([es0.y_mor, es_m0.y_mor]))

    def loss_at(p):
        es, _, es_t, _, es_m, _ = forwards(p)
        l_tr, _ = objective.topo_loss(b_tr, t_tr, np.vstack([es.z, es_t.z]), cfg.nu)
        l_mo, _ = objective.topo_loss(b_mo, t_mo, np.vstack([es.z, es_m.z]), cfg.nu)
        l_rec, _ = objective.recon_loss(x_tra, es.x_hat)
        return l_tr + l_mo + cfg.lambda_ * l_rec

    params.zero_grads()
    es, c, es_t, c_t, es_m, c_m = forwards(params)
    _, dxhat = objective.recon_loss(x_tra, es.x_hat)
    dz_base = np.zeros_like(es.z)
    for batch, es_v, c_v, t_bar in ((b_tr, es_t, c_t, t_tr), (b_mo, es_m, c_m, t_mo)):
        z_full = np.vstack([es.z, es_v.z])
        _, dz_full = objective.topo_loss(batch, t_bar, z_full, cfg.nu)
        dz_base += dz_full[:n]
        network.backward_all(params, c_v, dz=dz_full[n:])
    network.backward_all(params, c, dz=dz_base, dxhat=cfg.lambda_ * dxhat)

    h = 1e-5
    worst = 0.0
    count = 0
    for _, layer in params.named_layers():
        for arr, grad in ((layer.w, layer.gw), (layer.b, layer.gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                fp = loss_at(params)
                arr[idx] = old - h
                fm = loss_at(params)
                arr[idx] = old
                fd = (fp - fm) / (2 * h)
                worst = max(worst, abs(grad[idx] - fd) / max(1.0, abs(fd)))
                count += 1
    seconds = time.perf_counter() - t0
    ok = worst < 1e-4 and seconds < 10.0
    _record(1, "gradient fidelity", ok, f"{count} params, worst rel err {worst:.3g}, {seconds:.2f}s")


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(2)
    worst_ari = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        a = rng.integers(0, int(rng.integers(1, 6)), n)
        b = rng.integers(0, int(rng.integers(1, 6)), n)
        worst_ari = max(worst_ari, abs(evaluate.ari(a, b) - ari_pair_oracle(a.tolist(), b.tolist())))
    anti = abs(evaluate.ari([0, 0, 1, 1], [0, 1, 0, 1]) + 0.5)

    # Integer coordinates keep every squared distance exact, so signed
    # permutations plus integer shifts are float-exact isometries.
    worst_iso = 0.0
    ident_ok = True
    for _ in range(100):
        m = int(rng.integers(8, 30))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, max(2, (m - 1) // 2)))
        high = rng.normal(size=(m, d + 1))
        low = rng.integers(-40, 41, size=(m, d)).astype(np.float64)
        ident_ok = ident_ok and evaluate.mrre(low, low.copy(), k) == 0.0
        perm = rng.permutation(d)
        signs = rng.choice([-1.0, 1.0], size=d)
        shift = rng.integers(-20, 21, size=d).astype(np.float64)
        moved = low[:, perm] * signs + shift
        worst_iso = max(worst_iso, abs(evaluate.mrre(high, low, k) - evaluate.mrre(high, moved, k)))
    ok = worst_ari <= 1e-12 and anti <= 1e-12 and ident_ok and worst_iso == 0.0
    _record(
        2,
        "metric oracles",
        ok,
        f"ari oracle gap {worst_ari:.2e}, ari antitype gap {anti:.2e}, "
        f"mrre identity {'0' if ident_ok else 'nonzero'}, isometry gap {worst_iso:.2e}",
    )


def test_criterion_3_kernel_and_prior():
    rng = np.random.default_rng(3)
    self_ok = all(objective.kappa(v, v, nu) == 1.0 for v in rng.normal(size=(5, 4)) for nu in (0.05, 1.0))
    grid = np.linspace(0.0, 5.0, 200)
    mono_ok = True
    for nu in (0.05, 0.5, 1.0):
        vals = [objective.kappa(np.zeros(2), np.array([d, 0.0]), nu) for d in grid]
        mono_ok = mono_ok and bool(np.all(np.diff(vals) < 0.0))
    prior_gap = 0.0
    for _ in range(50):
        a, b = rng.normal(size=(2, 3))
        prior_gap = max(prior_gap, abs(objective.topo_prior(a, b, 1, 0.0, 0.5) - objective.kappa(a, b, 0.5)))

    # Lower bound: with alpha=0 and matching kernels the target equals the
    # latent similarity, so the loss must hit the binary-entropy floor.
    n, d = 8, 3
    feats = rng.normal(size=(n, d))
    payload, partners = topology.sample_pairs(topology.knn_graph(feats, 3), feats, topology.N_NEG, 0.3, rng)
    z_full = np.vstack([feats, payload]) * 0.5
    d2 = ((z_full[:n, None] - z_full[partners]) ** 2).sum(axis=-1).ravel()
    assert d2.min() > 1e-6, "degenerate pair would sit on the clamp boundary"
    t = objective.pair_prior(partners, z_full, 0.0, 1.0)
    loss, _ = objective.topo_loss(partners, t, z_full, 1.0)
    bound = binary_entropy((1.0 + d2) ** -2.0)
    gap = abs(loss - bound)
    above = True
    for scale in (0.01, 0.1, 1.0):
        loss_p, _ = objective.topo_loss(partners, t, z_full + rng.normal(scale=scale, size=z_full.shape), 1.0)
        above = above and loss_p >= bound - 1e-12
    ok = self_ok and mono_ok and prior_gap <= 1e-15 and gap <= 1e-9 and above
    _record(
        3,
        "kernel and prior",
        ok,
        f"kappa(a,a)=1 {self_ok}, strictly decreasing {mono_ok}, "
        f"prior gap {prior_gap:.1e}, entropy-floor gap {gap:.2e}",
    )


def test_criterion_4_em_soundness():
    worst_drop = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-6, 6, size=(3, 2))
        z = np.vstack([c + rng.normal(size=(20, 2)) for c in centers])
        means0 = z[rng.choice(len(z), 3, replace=False)]
        model = downstream.em_fit(z, 3, means0)
        diffs = np.diff(model.loglik_history)
        if diffs.size:
            worst_drop = max(worst_drop, float(max(0.0, -diffs.min())))
    rng = np.random.default_rng(0)
    z1 = np.concatenate([rng.normal(0.0, 1.0, 40), rng.normal(20.0, 1.0, 40)])[:, None]
    truth = np.repeat([0, 1], 40)
    model = downstream.gmm_cluster(z1, 2, rng=np.random.default_rng(1))
    blob_ari = evaluate.ari(truth, model.labels)
    ok = worst_drop <= 1e-9 and blob_ari == 1.0
    _record(4, "EM soundness", ok, f"worst log-lik drop {worst_drop:.2e} over 50 runs, two-blob ARI {blob_ari}")


def test_criterion_5_lasso_soundness():
    rng = np.random.default_rng(5)
    centers = rng.uniform(-8, 8, size=(3, 5))
    labels = np.repeat([0, 1, 2], 30)
    z = centers[labels] + rng.normal(scale=0.5, size=(90, 5))
    res = downstream.deconvolve(z, labels, 0.1)
    kkt_ok = res.kkt < 1e-6 and res.converged

    res0 = downstream.deconvolve(z, labels, 0.0)
    ls_gap = 0.0
    for i in range(len(z)):
        w_ls, *_ = np.linalg.lstsq(res0.basis, z[i], rcond=None)
        ls_gap = max(ls_gap, float(np.abs(res0.weights[i] - w_ls).max()))

    # Exactly orthonormal design: cluster means are the identity basis, so
    # the solution is the componentwise soft threshold at l1/2.
    v = np.array([[0.0, 0.25, 0.0], [0.0, 0.0, 0.25], [0.25, 0.0, 0.0]])
    zo = np.vstack([[np.eye(3)[c] + v[c], np.eye(3)[c] - v[c]] for c in range(3)])
    lo = np.repeat([0, 1, 2], 2)
    l1 = 0.3
    reso = downstream.deconvolve(zo, lo, l1)
    assert np.array_equal(reso.basis, np.eye(3))
    soft = np.sign(zo) * np.maximum(np.abs(zo) - l1 / 2.0, 0.0)
    ortho_gap = float(np.abs(reso.weights - soft).max())

    ok = kkt_ok and ls_gap <= 1e-6 and ortho_gap <= 1e-9
    _record(
        5,
        "lasso soundness",
        ok,
        f"kkt {res.kkt:.1e} converged {res.converged}, lstsq gap {ls_gap:.1e}, soft-threshold gap {ortho_gap:.1e}",
    )


def test_criterion_6_synthetic_end_to_end(e2e):
    metrics = json.loads((e2e["run1"] / "report.json").read_text())["metrics"]
    ari_v, mrre_v = metrics["ari"], metrics["mrre"]
    # The 0.35 bar in units of the harmonic-sum normalizer maps onto the
    # single-term normalizer this package reports; both forms are checked.
    mrre_classic = mrre_v * mrre_classic_scale(200, 10)
    seconds = e2e["seconds"]
    ok = ari_v >= 0.80 and mrre_v <= 4.5 and mrre_classic <= 0.35 and seconds < 60.0
    _record(
        6,
        "synthetic end-to-end",
        ok,
        f"ARI {ari_v:.4f} (>=0.80), MRRE {mrre_v:.4f} (<=4.5; classic-scale {mrre_classic:.4f} <=0.35), "
        f"report in {seconds:.1f}s (<60s)",
    )


def test_criterion_7_modality_bias_mitigation():
    details = []
    ok = True
    for seed in range(5):
        ds, truth = synth.generate(synth.SynthSpec(signal_mor=0.0, seed=seed))
        cfg = dataio.config_from_dict({"seed": seed})
        pre = preprocess.preprocess_dataset(ds, cfg)
        graph = topology.build_spatial_graph(ds.coords, topology.auto_epsilon(ds.coords))
        _, emb = objective.train(pre, graph, cfg)

        def median_contribution(mat):
            mc = evaluate.modality_contribution([mat], truth["labels"], seed=seed)
            return mc.summary[next(iter(mc.summary))]["median"]

        tra_in = median_contribution(pre.tra)
        mor_in = median_contribution(pre.mor)
        ratio_in = tra_in / mor_in
        ratio_emb = median_contribution(emb.y_tra) / median_contribution(emb.y_mor)
        ok = ok and tra_in > mor_in and ratio_emb < ratio_in
        details.append(f"seed {seed}: {ratio_in:.2f}->{ratio_emb:.2f}")
    _record(7, "modality-bias mitigation", ok, "tra/mor median ratio " + ", ".join(details))


def test_criterion_8_determinism(e2e):
    same_emb = (e2e["run1"] / "embedding.csv").read_bytes() == (e2e["run2"] / "embedding.csv").read_bytes()
    same_rep = (e2e["run1"] / "report.json").read_bytes() == (e2e["run2"] / "report.json").read_bytes()
    ok = same_emb and same_rep
    _record(8, "determinism", ok, f"embedding.csv identical {same_emb}, report.json identical {same_rep}")


def test_criterion_9_denoising(e2e):
    data = e2e["data"]
    ds = dataio.load_dataset(
        str(data / "tra.csv"), str(data / "coords.csv"), mor_path=str(data / "mor.csv"), labels_path=str(data / "labels.csv")
    )
    cfg = dataio.RunConfig()
    pre = preprocess.preprocess_dataset(ds, cfg)
    params = network.load_checkpoint(str(e2e["run1"] / "ckpt.npz"))
    graph = topology.build_spatial_graph(ds.coords, topology.auto_epsilon(ds.coords))
    x_hat = downstream.denoise(params, pre, graph)

    truth_cols, _, truth = dataio.read_matrix_csv(str(data / "truth_tra.csv"), "truth")
    pos_truth = {g: i for i, g in enumerate(truth_cols)}
    pos_raw = {g: i for i, g in enumerate(ds.gene_ids)}
    truth_sel = truth[:, [pos_truth[g] for g in pre.gene_ids]]
    noisy_sel = ds.tra[:, [pos_raw[g] for g in pre.gene_ids]]

    def mean_gene_corr(a, b):
        vals = []
        for j in range(a.shape[1]):
            if a[:, j].std() == 0 or b[:, j].std() == 0:
                continue
            vals.append(np.corrcoef(a[:, j], b[:, j])[0, 1])
        return float(np.mean(vals))

    c_hat = mean_gene_corr(x_hat, truth_sel)
    c_noisy = mean_gene_corr(noisy_sel, truth_sel)
    gap = c_hat - c_noisy
    ok = gap >= 0.05
    _record(9, "denoising", ok, f"corr(denoised,truth) {c_hat:.4f} vs corr(noisy,truth) {c_noisy:.4f}, gap {gap:+.4f}")
