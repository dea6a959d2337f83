"""Topology-preserving fusion objective and full-batch training loop.

The similarity kernel is a heavy-tailed power law; the topology loss is a
binary cross entropy between kernel similarities in the latent space and a
prior built from per-modality embeddings. The prior side is treated as a
constant: no gradient flows through it. In training those embeddings come
from a fixed prior network, the encoders as initialized, so each modality's
target structure comes from its own data and never follows the fitted model.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field

import numpy as np

from .dataio import RunConfig
from .errors import NonFiniteLoss, OutOfRange, ShapeMismatch
from .network import (
    Dense,
    EmbeddingSet,
    ModelParams,
    backward_all,
    decode_forward,
    dropout_mask,
    encode_aggregates,
    forward_all,
    fuse_forward,
    gcn_forward,
    init_params,
    normalized_adjacency,
)
from .preprocess import PreprocessedData
from .topology import N_NEG, NeighborGraph, knn_graph, sample_pairs
from .worker import feed

S_CLAMP = 1e-7
DROPOUT_P = 0.1
PAIR_BLOCK = 1024  # pairs per block of the temporaries in pair_prior and topo_loss


def kappa(a: np.ndarray, b: np.ndarray, nu: float) -> np.ndarray:
    """Similarity (1 + ||a-b||^2 / nu) ** (-(nu+1)/nu), row by row over the last axis."""
    if nu <= 0:
        raise OutOfRange("nu must be positive")
    d2 = ((np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) ** 2).sum(axis=-1)
    return (1.0 + d2 / nu) ** (-(nu + 1.0) / nu)


def topo_prior(y_i: np.ndarray, y_j: np.ndarray, h: np.ndarray | int, alpha: float, nu: float) -> np.ndarray:
    """Target similarity per row: kernel value, boosted by e^alpha where h = 1, capped at 1."""
    h = np.asarray(h)
    if not np.all((h == 0) | (h == 1)):
        raise OutOfRange("h must be 0 or 1")
    return np.minimum((1.0 + h * (np.exp(alpha) - 1.0)) * kappa(y_i, y_j, nu), 1.0)


def pair_prior(partners: np.ndarray, y: np.ndarray, alpha: float, nu: float) -> np.ndarray:
    """The topology loss's target per entry of the (n, c) partner table `partners`.

    Entry (i, k) is `topo_prior` of rows i and partners[i, k] of `y`; column
    0, the positive, gets the e^alpha boost.
    """
    n, c = partners.shape
    h, step = np.arange(c) == 0, max(PAIR_BLOCK // c, 1)
    t = np.empty((n, c))
    # blocks of about PAIR_BLOCK pairs bound the pair x feature temporaries; each anchor row broadcasts
    for lo in range(0, n, step):
        hi = min(lo + step, n)  # y may hold more rows than there are anchors
        t[lo:hi] = topo_prior(y[lo:hi, None], y[partners[lo:hi]], h, alpha, nu)
    return t


def topo_loss(partners: np.ndarray, t: np.ndarray, z: np.ndarray, nu: float) -> tuple[float, np.ndarray]:
    """Cross entropy between latent similarities and their targets `t`.

    `partners` is an (n, c) int table: row i pairs anchor i, row i of `z`,
    with c partner rows. `t`, shaped like `partners`, is each pair's target
    (`pair_prior`); it is a constant, so the loss is a pure function of z.
    Returns the scalar loss and the gradient for z.
    """
    if nu <= 0:
        raise OutOfRange("nu must be positive")
    n, c = partners.shape
    if n > z.shape[0] or (partners.size and (partners.min() < 0 or partners.max() >= z.shape[0])):
        raise ShapeMismatch("partner table runs past the embedding rows")
    if t.shape != partners.shape:
        raise ShapeMismatch("t must give one target per table entry")
    i, j = np.repeat(np.arange(n), c), partners.ravel()
    t = t.ravel()

    # Pair blocks bound the pair x feature temporaries; every row's arithmetic
    # is that of the whole batch at once.
    diff = z[i]
    d2 = np.empty(len(i))
    for start in range(0, len(i), PAIR_BLOCK):
        blk = slice(start, start + PAIR_BLOCK)
        d = diff[blk]
        d -= z[j[blk]]
        d2[blk] = (d * d).sum(axis=1)
    loss, dd2 = _pair_terms(d2, t, nu)
    dpair = diff
    dpair *= (2.0 * dd2)[:, None]
    # Anchor i's terms are its row's c consecutive pairs. Their sum in column
    # order heads one weighted bincount per column, before the partner terms
    # in pair order: every term adds in the order np.add.at over anchors and
    # then partners would, and bincount's zero start gives the same signed
    # zeros. A single bincount over all columns would hold m x d index and
    # weight arrays at once. The heads sit in dz's first n rows: each column
    # of them is copied into the weights before the bincount overwrites it.
    dz = np.empty_like(z)
    head = dz[:n]
    head[...] = dpair[::c]
    for k in range(1, c):
        head += dpair[k::c]
    idx = np.concatenate([np.arange(n), j])
    for col in range(z.shape[1]):
        dz[:, col] = np.bincount(idx, weights=np.concatenate([head[:, col], -dpair[:, col]]), minlength=z.shape[0])
    return loss, dz


def _pair_terms(d2: np.ndarray, t: np.ndarray, nu: float) -> tuple[float, np.ndarray]:
    """`topo_loss`'s loss and its derivative by each pair's squared distance `d2`, given the pairs' targets `t`."""
    p = (nu + 1.0) / nu
    u = 1.0 + d2 / nu
    log_s_raw = -p * np.log1p(d2 / nu)
    s_raw = np.exp(log_s_raw)
    lo, hi = S_CLAMP, 1.0 - S_CLAMP
    log_s = np.where(s_raw < lo, np.log(lo),
                     np.where(s_raw > hi, np.log1p(-lo), log_s_raw))
    log_1ms = np.where(s_raw > hi, np.log(lo),
                       np.where(s_raw < lo, np.log1p(-lo), np.log1p(-np.minimum(s_raw, hi))))
    loss = float(-(t * log_s + (1.0 - t) * log_1ms).sum())

    # Gradient of the unclamped cross entropy: the 1/S factor cancels the
    # kernel tail, leaving the heavy-tailed attraction t * p / (nu * u), so
    # far-apart pairs with a live target still move. Only the repulsion
    # ratio is capped at the clamp ceiling.
    s_cap = np.minimum(s_raw, hi)
    return loss, (p / nu) * (t / u - (1.0 - t) * s_cap / ((1.0 - s_cap) * u))


def recon_loss(x: np.ndarray, x_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared error summed over genes, averaged over spots."""
    if x.shape != x_hat.shape:
        raise ShapeMismatch(f"reconstruction shape {x_hat.shape} does not match input {x.shape}")
    n = x.shape[0]
    diff = x_hat - x
    loss = float((diff * diff).sum() / n)
    diff *= 2.0
    diff /= n
    return loss, diff


class Adam:
    """Standard Adam over a fixed list of Dense layers, updated in place."""

    def __init__(self, layers: list[Dense], lr: float, b1: float = 0.9, b2: float = 0.999, eps: float = 1e-8):
        self.layers = list(layers)
        self.lr = lr
        self.b1, self.b2, self.eps = b1, b2, eps
        self.t = 0
        self.m = [(np.zeros_like(layer.w), np.zeros_like(layer.b)) for layer in self.layers]
        self.v = [(np.zeros_like(layer.w), np.zeros_like(layer.b)) for layer in self.layers]

    def step(self):
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for layer, (mw, mb), (vw, vb) in zip(self.layers, self.m, self.v):
            for g, p, m, v in ((layer.gw, layer.w, mw, vw), (layer.gb, layer.b, mb, vb)):
                m *= self.b1
                m += (1.0 - self.b1) * g
                v *= self.b2
                v += (1.0 - self.b2) * g * g
                p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


@dataclass
class TrainState:
    params: ModelParams
    history: list = field(default_factory=list)


def train(data: PreprocessedData, spatial: NeighborGraph, cfg: RunConfig) -> tuple[TrainState, EmbeddingSet]:
    """Fit the fused autoencoder on one dataset.

    Per epoch and modality: sample an augmented view plus uniform negatives,
    embed the base and augmented inputs, and descend the topology loss plus
    lambda_ times the reconstruction loss with full-batch Adam. The modality
    kNN graphs are built once from the inputs, and the loss's prior comes from
    a frozen copy of the encoders taken right after initialization.

    Each epoch's `_draw` reads only the generator and frozen state, so
    `worker.feed` may make it one epoch ahead in a child; the parameters,
    history and embeddings are the same bytes either way.
    """
    n = data.n_spots
    if spatial.n != n:
        raise ShapeMismatch("spatial graph does not cover the dataset")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(rng, data.gene_ids, None if data.mor is None else data.mor.shape[1], cfg)
    a_hat = normalized_adjacency(spatial)

    mods = [("tra", data.tra, cfg.k_tr, cfg.r_u_tr)]
    if data.mor is not None:
        mods.append(("mor", data.mor, cfg.k_mo, cfg.r_u_mo))
    graphs = {name: knn_graph(x, k) for name, x, k, _ in mods}
    encoders = {name: getattr(params, "gnn_" + name) for name, *_ in mods}
    priors = {name: [Dense(layer.w.copy(), layer.b.copy()) for layer in layers] for name, layers in encoders.items()}
    draw = functools.partial(_draw, mods, graphs, priors, a_hat, cfg, rng)

    adam = Adam([layer for _, layer in params.named_layers()], cfg.lr)
    history = []
    with contextlib.closing(feed(draw, cfg.epochs)) as draws:
        for epoch in range(1, cfg.epochs + 1):
            losses, l_rec = _step(data, params, encoders, next(draws), a_hat, cfg)
            total = sum(losses.values()) + cfg.lambda_ * l_rec
            if not np.isfinite(total):
                raise NonFiniteLoss(f"loss became non-finite at epoch {epoch}")
            adam.step()
            history.append(
                {
                    "epoch": epoch,
                    "l_topo_tra": losses["tra"],
                    "l_topo_mor": losses.get("mor"),
                    "l_recon": l_rec,
                    "total": total,
                }
            )

    es_final, _ = forward_all(params, data.tra, data.mor, a_hat)
    for t in (es_final.z, es_final.x_hat):
        if not np.all(np.isfinite(t)):
            raise NonFiniteLoss("final embeddings are not finite")
    state = TrainState(params=params, history=history)
    return state, es_final


def _draw(mods, graphs, priors, a_hat, cfg, rng) -> list[np.ndarray]:
    """One epoch's part that reads only the generator and frozen state.

    Four arrays per modality, in `mods` order: its (n, 1 + N_NEG) partner
    table, the targets `t` the frozen prior network `priors` gives them, and
    the first aggregates a_hat @ x of the masked base input and of the masked
    augmented view. One dropout realization per modality serves both: a fresh
    mask per view would inject noise far larger than the augmentation shift
    and blank the prior.
    """
    batches = [sample_pairs(graphs[name], x, N_NEG, p_u, rng) for name, x, _, p_u in mods]
    masks = [dropout_mask(x.shape, DROPOUT_P, rng) for _, x, *_ in mods]
    arrays = []
    for name, x, *_ in mods:
        (payload, partners), mask = batches.pop(0), masks.pop(0)
        payload *= mask  # both are this epoch's own: mask in place
        mask *= x
        view = a_hat @ payload
        del payload  # each goes once its aggregate exists
        base = a_hat @ mask
        del mask
        # the prior sees the inputs the trained encoder sees, base rows then view rows
        y = np.concatenate([gcn_forward(agg, a_hat, priors[name])[0] for agg in (base, view)])
        arrays += [partners, pair_prior(partners, y, cfg.alpha, cfg.nu), base, view]
    return arrays


def _step(data, params, encoders, arrays, a_hat, cfg) -> tuple[dict, float]:
    """Accumulate one epoch's gradients into params from its `_draw` `arrays`.

    `encoders` maps each trained modality, in `_draw`'s order, to its
    layers. Returns the topology loss per modality and the reconstruction
    loss.
    """
    n = data.n_spots
    drawn = {name: arrays[4 * k : 4 * k + 4] for k, name in enumerate(encoders)}
    params.zero_grads()
    es, caches = encode_aggregates(params, drawn["tra"][2], drawn["mor"][2] if "mor" in drawn else None, a_hat)

    dz_base = np.zeros_like(es.z)
    losses = {}
    for name, (partners, t, _, view) in drawn.items():
        z, view_caches = _view_forward(params, es, caches, name, view, encoders[name], a_hat)
        losses[name], dz = topo_loss(partners, t, z, cfg.nu)
        dz_base += dz[:n]
        backward_all(params, view_caches, dz=dz[n:])
        del z, view_caches, dz  # before the next view's pass

    # The decoder runs after the views, so its n x genes output and gradient
    # are not held through them.
    x_hat, caches["dec"] = decode_forward(es.z, params)
    l_rec, dxhat = recon_loss(data.tra, x_hat)
    del x_hat
    if cfg.lambda_ > 0:
        dxhat *= cfg.lambda_
    backward_all(params, caches, dz=dz_base, dxhat=dxhat if cfg.lambda_ > 0 else None)
    return losses, l_rec


def _view_forward(params, es, caches, name, view, layers, a_hat):
    """The base rows of z stacked over those of a view of modality `name`, and the caches of the view's pass.

    A view re-runs only the encoder `layers` of the modality it perturbs; the
    other encoder's output and cache are the base pass's, and the decoder
    does not run because the view has no reconstruction term.
    """
    y_view, c_view = gcn_forward(view, a_hat, layers)
    ys = {"tra": es.y_tra, "mor": es.y_mor, name: y_view}
    z_view, c_fuse = fuse_forward(ys["tra"], ys["mor"], params)
    return np.concatenate([es.z, z_view]), {**caches, name: c_view, "fuse": c_fuse}
