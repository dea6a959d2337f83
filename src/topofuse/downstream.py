"""Analyses that run on a fitted embedding.

Gaussian-mixture clustering with diagonal covariances, spatial label
refinement, a 2-D visualization head trained with the same topology loss,
L1 deconvolution against cluster means, gene importance by column knockout,
cluster-graph connectivity and decoder-based denoising.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import RunConfig
from .errors import (
    DegenerateComponent,
    LengthMismatch,
    NonConvergenceWarning,
    NonFiniteLoss,
    OutOfRange,
    ShapeMismatch,
)
from .network import (
    ModelParams,
    _glorot,
    _stack_backward,
    _stack_forward,
    check_genes,
    forward_all,
    fuse_forward,
    gcn_forward,
    normalized_adjacency,
)
from .objective import Adam, pair_prior, topo_loss
from .preprocess import PreprocessedData
from .topology import N_NEG, NeighborGraph, knn_graph

GMM_RESTARTS = 10
GMM_MAX_ITER = 500
GMM_REL_TOL = 1e-12  # em_fit stops on a gain below this times |log-likelihood|
GMM_RIDGE = 1e-6
VIS_EPOCHS = 300
VIS_LR = 0.01
VIS_NU_LOW = 1.0
LASSO_KKT_TOL = 1e-6
LASSO_MAX_SWEEPS = 1000
REFINE_K = 6


@dataclass
class ClusterModel:
    k: int
    means: np.ndarray
    covariances: np.ndarray  # k x d diagonal variances, ridge included
    weights: np.ndarray
    labels: np.ndarray
    loglik_history: list

    def __post_init__(self):
        if np.any(np.diff(self.loglik_history) < 0):
            raise DegenerateComponent("log-likelihood decreased during EM")


@dataclass
class EMResult:
    means: np.ndarray
    covariances: np.ndarray
    weights: np.ndarray
    resp: np.ndarray
    history: list
    ok: bool


def _kmeanspp(z: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = z.shape[0]
    centers = [int(rng.integers(n))]
    d2 = ((z - z[centers[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers.append(idx)
        d2 = np.minimum(d2, ((z - z[idx]) ** 2).sum(axis=1))
    return z[centers].copy()


def em_fit(z: np.ndarray, k: int, means0: np.ndarray) -> EMResult:
    """Diagonal-covariance EM from the given means; ridge keeps variances alive.

    The ridge makes the M step inexact, so a step can lower the
    log-likelihood. The fit stops at the first step that raises it by less
    than GMM_REL_TOL x |log-likelihood|, a drop included, and returns the best
    iterate: its parameters, responsibilities and the non-decreasing history
    that led to it.
    """
    zz = z * z
    means = means0.copy()
    covs = np.tile(z.var(axis=0) + GMM_RIDGE, (k, 1))
    weights = np.full(k, 1.0 / k)
    history = []
    best = None
    for _ in range(GMM_MAX_ITER):
        # E step in log space: the Mahalanobis term as an expanded square
        inv = 1.0 / covs
        const = np.log(2.0 * np.pi * covs).sum(axis=1) + (means * means * inv).sum(axis=1)
        log_prob = -0.5 * (zz @ inv.T - 2.0 * (z @ (means * inv).T) + const) + np.log(weights)
        m = log_prob.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(log_prob - m).sum(axis=1))
        ll = float(lse.sum())
        gain = ll - history[-1] if history else np.inf
        if gain >= 0.0:
            history.append(ll)
            best = EMResult(means, covs, weights, np.exp(log_prob - lse[:, None]), history, ok=True)
        if gain < GMM_REL_TOL * abs(ll):
            break
        # M step from the iterate just scored
        resp = best.resp
        nk = resp.sum(axis=0)
        if np.any(nk < 1e-10):
            best.ok = False
            break
        weights = nk / len(z)
        means = (resp.T @ z) / nk[:, None]
        covs = (resp.T @ zz) / nk[:, None] - means * means + GMM_RIDGE
    return best


def gmm_cluster(z: np.ndarray, k: int, restarts: int = GMM_RESTARTS, rng: np.random.Generator | None = None) -> ClusterModel:
    """Best-of-restarts EM clustering; restarts that collapse are discarded."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < k:
        raise OutOfRange(f"need at least k={k} rows to fit {k} components")
    if k < 1:
        raise OutOfRange("k must be positive")
    rng = np.random.default_rng(0) if rng is None else rng
    best: EMResult | None = None
    for _ in range(max(1, restarts)):
        means0 = _kmeanspp(z, k, rng)
        res = em_fit(z, k, means0)
        if not res.ok:
            continue
        # Restarts that reach one optimum, each in its own component order, differ
        # by rounding only: a later one must win by more than em_fit's stop tolerance.
        if best is None or res.history[-1] - best.history[-1] > GMM_REL_TOL * abs(best.history[-1]):
            best = res
    if best is None:
        raise DegenerateComponent("every restart collapsed a component")
    labels = best.resp.argmax(axis=1)
    return ClusterModel(
        k=k,
        means=best.means,
        covariances=best.covariances,
        weights=best.weights,
        labels=labels,
        loglik_history=best.history,
    )


def refine_labels(labels: np.ndarray, coords: np.ndarray, k: int = REFINE_K) -> np.ndarray:
    """Majority vote over each spot and its k spatial nearest neighbors.

    Reads all votes from the input labeling; a tie keeps the original label.
    """
    labels = np.asarray(labels)
    coords = np.asarray(coords, dtype=np.float64)
    if len(labels) != coords.shape[0]:
        raise LengthMismatch("labels and coordinates disagree on length")
    n = len(labels)
    graph = knn_graph(coords, min(k, n - 1))
    ids, code = np.unique(labels, return_inverse=True)
    m = len(ids)
    # row i: the spot's own label and its k neighbours' labels, as codes
    voters = np.column_stack([code, code[graph.indices.reshape(n, -1)]])
    votes = np.bincount((np.arange(n)[:, None] * m + voters).ravel(), minlength=n * m).reshape(n, m)
    sole = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) == 1
    out = labels.copy()
    out[sole] = ids[votes[sole].argmax(axis=1)]
    return out


def _vis_pairs(graph: NeighborGraph, rng: np.random.Generator) -> np.ndarray:
    # topo_loss's partner table, all dataset rows: one kNN positive plus
    # uniform negatives per anchor. One array-bounded draw gives the values,
    # and leaves the generator in the state, of drawing each anchor's bounds
    # on its own in turn: its neighbour position, then N_NEG negatives over
    # the n - 1 other rows.
    n = graph.n
    highs = np.full((n, 1 + N_NEG), n - 1)
    highs[:, 0] = np.diff(graph.indptr)
    draws = rng.integers(0, highs)
    partners = draws + (draws >= np.arange(n)[:, None])  # negatives skip the anchor itself
    partners[:, 0] = graph.indices[graph.indptr[:-1] + draws[:, 0]]
    return partners


def _fit_vis(z: np.ndarray, cfg: RunConfig) -> tuple[np.ndarray, list]:
    """Map embeddings to 2-D with a small MLP trained on the topology loss.

    Returns the coordinates and the per-epoch loss history.
    """
    z = np.asarray(z, dtype=np.float64)
    d = z.shape[1]
    rng = np.random.default_rng([cfg.seed, 7])
    layers = [_glorot(rng, d, d), _glorot(rng, d, 2)]
    graph = knn_graph(z, cfg.k_tr)
    adam = Adam(layers, VIS_LR)
    history = []
    for _ in range(VIS_EPOCHS):
        partners = _vis_pairs(graph, rng)
        vi, cache = _stack_forward(z, layers, None)
        # alpha = 0: the kNN positive's prior gets no boost
        loss, dvi = topo_loss(partners, pair_prior(partners, z, 0.0, cfg.nu), vi, VIS_NU_LOW)
        if not np.isfinite(loss):
            raise NonFiniteLoss("visualization loss became non-finite")
        for layer in layers:
            layer.zero_grad()
        _stack_backward(dvi, layers, cache, input_grad=False)
        adam.step()
        history.append(loss)
    vi, _ = _stack_forward(z, layers, None)
    return vi, history


@dataclass
class DeconvolutionResult:
    cluster_ids: list
    basis: np.ndarray  # d x k cluster means
    weights: np.ndarray  # n x k
    impurity: np.ndarray  # per-spot population std of the weight row
    kkt: float
    converged: bool


def deconvolve(z: np.ndarray, labels: np.ndarray, l1: float) -> DeconvolutionResult:
    """Solve min_w ||z_i - B w||^2 + l1 ||w||_1 per spot by coordinate descent.

    B holds the cluster mean embeddings as columns (sorted by cluster id).
    Each sweep updates one weight column at a time for every spot still above
    LASSO_KKT_TOL; a spot that gets below it stops changing.
    """
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    if z.shape[0] != len(labels):
        raise LengthMismatch("labels and embeddings disagree on length")
    if not np.isfinite(l1) or l1 < 0:
        raise OutOfRange(f"l1 must be a finite number >= 0, got {l1}")
    cluster_ids = sorted(set(int(v) for v in labels))
    basis = np.column_stack([z[labels == c].mean(axis=0) for c in cluster_ids])
    col2 = (basis * basis).sum(axis=0)
    n, k = z.shape[0], basis.shape[1]
    weights = np.zeros((n, k))
    kkt = np.zeros(n)
    thr = l1 / 2.0
    live, r, w = np.arange(n), z.copy(), weights.copy()
    for _ in range(LASSO_MAX_SWEEPS):
        for j in np.flatnonzero(col2 >= 1e-30):
            b = basis[:, j]
            rho = r @ b + col2[j] * w[:, j]
            new = (np.maximum(rho - thr, 0.0) + np.minimum(rho + thr, 0.0)) / col2[j]
            r -= np.outer(new - w[:, j], b)
            w[:, j] = new
        grad = -2.0 * (r @ basis)
        step = np.where(w != 0.0, np.abs(grad + l1 * np.sign(w)), np.maximum(np.abs(grad) - l1, 0.0)).max(axis=1)
        weights[live], kkt[live] = w, step
        going = step >= LASSO_KKT_TOL
        if not going.any():
            break
        live, r, w = live[going], r[going], w[going]
    worst = float(kkt.max())
    converged = worst < LASSO_KKT_TOL
    if not converged:
        warnings.warn(NonConvergenceWarning(f"deconvolution stopped above tolerance (kkt={worst:.2e})"))
    return DeconvolutionResult(
        cluster_ids=cluster_ids,
        basis=basis,
        weights=weights,
        impurity=weights.std(axis=1),
        kkt=worst,
        converged=converged,
    )


def gene_shift_matrix(params: ModelParams, data: PreprocessedData, spatial: NeighborGraph) -> np.ndarray:
    """Per-spot embedding displacement when each gene column is zeroed.

    Zeroing gene g zeroes only column g of the first propagation agg = a_hat @ tra,
    so knockout g's first-layer pre-activation is the base pass's minus the
    rank-1 term outer(agg[:, g], W0[g]): no first-layer product is redone, and
    the result differs from a full pass by rounding only. A gene whose column
    is zero keeps the base pass's bytes and a shift of exactly 0. The
    morphology branch is the base pass's, and the decoder, whose output is
    unused, does not run for the knockouts.
    """
    check_genes(params, data.gene_ids)
    a_hat = normalized_adjacency(spatial)
    base, caches = forward_all(params, data.tra, data.mor, a_hat)
    agg, pre0 = caches["tra"]["aggs"][0], caches["tra"]["pre"][0]
    w0, rest = params.gnn_tra[0].w, params.gnn_tra[1:]
    n, g = data.tra.shape
    shifts = np.empty((n, g))
    for gene in range(g):
        y = pre0 - np.outer(agg[:, gene], w0[gene])
        if rest:
            y = gcn_forward(a_hat @ np.maximum(y, 0.0, out=y), a_hat, rest)[0]
        z, _ = fuse_forward(y, base.y_mor, params)
        shifts[:, gene] = np.sqrt(((z - base.z) ** 2).sum(axis=1))
    return shifts


def marker_tables(
    data: PreprocessedData,
    params: ModelParams,
    spatial: NeighborGraph,
    labels: np.ndarray,
    top_n: int = 10,
) -> dict:
    labels = np.asarray(labels)
    if len(labels) != data.n_spots:
        raise LengthMismatch("labels do not match the dataset")
    shifts = gene_shift_matrix(params, data, spatial)
    top_n = min(top_n, shifts.shape[1])
    tables = {}
    for c in sorted(set(int(v) for v in labels)):
        imp = shifts[labels == c].mean(axis=0)
        order = np.argsort(-imp, kind="stable")[:top_n]
        tables[c] = [(data.gene_ids[g], float(imp[g])) for g in order]
    return tables


@dataclass
class PagaGraph:
    cluster_ids: list
    connectivity: np.ndarray

    def __post_init__(self):
        c = self.connectivity
        if c.shape[0] != c.shape[1] or not np.allclose(c, c.T):
            raise ShapeMismatch("connectivity must be square and symmetric")
        if np.any(c < 0) or np.any(c > 1):
            raise OutOfRange("connectivity values must lie in [0, 1]")


def paga_connectivity(z: np.ndarray, labels: np.ndarray, k: int = 15) -> PagaGraph:
    """Observed/expected inter-cluster edge ratio on the kNN graph, clipped to [0, 1]."""
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    if z.shape[0] != len(labels):
        raise LengthMismatch("labels and embeddings disagree on length")
    cluster_ids = sorted(set(int(v) for v in labels))
    if len(cluster_ids) < 2:
        raise OutOfRange("need at least 2 clusters")
    n = z.shape[0]
    graph = knn_graph(z, min(k, n - 1))
    src, dst = graph.sources, graph.indices
    lo, hi = np.divmod(np.unique(np.minimum(src, dst) * n + np.maximum(src, dst)), n)
    total = len(lo)
    m = len(cluster_ids)
    code = np.searchsorted(cluster_ids, labels)
    sizes = np.bincount(code, minlength=m)
    ca, cb = code[lo], code[hi]
    counts = np.bincount(np.minimum(ca, cb) * m + np.maximum(ca, cb), minlength=m * m).reshape(m, m)
    # every cluster and the graph hold at least one member and edge, so expected > 0
    expected = total * np.outer(sizes, sizes) / (n * (n - 1) / 2.0)
    conn = np.triu(np.minimum(1.0, counts / expected), 1)
    conn += conn.T
    return PagaGraph(cluster_ids=cluster_ids, connectivity=conn)


def denoise(params: ModelParams, data: PreprocessedData, spatial: NeighborGraph) -> np.ndarray:
    """Decoder output of a dropout-free forward pass, one column per kept gene."""
    check_genes(params, data.gene_ids)
    a_hat = normalized_adjacency(spatial)
    es, _ = forward_all(params, data.tra, data.mor, a_hat)
    return es.x_hat
