"""Graph encoders, fusion MLP and linear decoder with explicit backprop.

Forward passes return caches; backward passes accumulate into per-layer
gradient buffers so several views of one epoch can share a single step.
"""

from __future__ import annotations

import os
import zipfile

import numpy as np

from .dataio import RunConfig, open_for_write
from .errors import IoFailure, MissingFile, OutOfRange, ShapeMismatch, StaleCache
from .topology import NeighborGraph

CKPT_FORMAT = "topofuse-ckpt-v3"


class Dense:
    """One affine layer plus its gradient buffers."""

    __slots__ = ("w", "b", "gw", "gb")

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = w
        self.b = b
        self.gw = np.zeros_like(w)
        self.gb = np.zeros_like(b)

    def zero_grad(self):
        self.gw[...] = 0.0
        self.gb[...] = 0.0


def _glorot(rng: np.random.Generator, n_in: int, n_out: int) -> Dense:
    lim = np.sqrt(6.0 / (n_in + n_out))
    return Dense(rng.uniform(-lim, lim, size=(n_in, n_out)), np.zeros(n_out))


class ModelParams:
    """All trainable tensors of the fused autoencoder.

    `gene_ids` names the expression columns the first layer and the decoder
    were trained on and `epsilon_used` the radius of the spatial graph they
    were trained on; both are None for parameters that never met a dataset.
    """

    def __init__(self, gnn_tra, gnn_mor, fusion, decoder, theta, fusion_mode, gene_ids=None, epsilon_used=None):
        self.gnn_tra = gnn_tra
        self.gnn_mor = gnn_mor
        self.fusion = fusion
        self.decoder = decoder
        self.theta = float(theta)
        self.fusion_mode = fusion_mode
        self.gene_ids = gene_ids
        self.epsilon_used = epsilon_used

    def named_layers(self):
        for i, layer in enumerate(self.gnn_tra):
            yield f"gnn_tra.{i}", layer
        if self.gnn_mor is not None:
            for i, layer in enumerate(self.gnn_mor):
                yield f"gnn_mor.{i}", layer
        for i, layer in enumerate(self.fusion):
            yield f"fusion.{i}", layer
        for i, layer in enumerate(self.decoder):
            yield f"decoder.{i}", layer

    def zero_grads(self):
        for _, layer in self.named_layers():
            layer.zero_grad()

    @property
    def has_mor(self) -> bool:
        return self.gnn_mor is not None


def init_params(rng: np.random.Generator, n_genes: int, n_mor: int | None, cfg: RunConfig) -> ModelParams:
    """Glorot-uniform weights, zero biases; draw order is fixed for replay."""
    d = cfg.d_emb
    gnn_tra = [_glorot(rng, n_genes, d), _glorot(rng, d, d)]
    gnn_mor = None
    if n_mor is not None:
        gnn_mor = [_glorot(rng, n_mor, d), _glorot(rng, d, d)]
    fuse_in = 2 * d if (cfg.fusion_mode == "concat" and n_mor is not None) else d
    fusion = []
    for i in range(cfg.n_mlp):
        fusion.append(_glorot(rng, fuse_in if i == 0 else d, d))
    decoder = [_glorot(rng, d, n_genes)]
    return ModelParams(gnn_tra, gnn_mor, fusion, decoder, cfg.theta, cfg.fusion_mode)


class NormalizedAdjacency:
    """A symmetric sparse n x n matrix, given in NeighborGraph's CSR layout plus
    one float64 weight per entry; `a_hat @ h` propagates the rows of h over it.

    Row i's entries, its own included, are indices[indptr[i]:indptr[i + 1]] in
    ascending order. The product visits them by slot: rows sorted by entry
    count, largest first, so slot s (each row's s-th entry) covers a prefix of
    that order, the rows with more than s entries. Time and memory grow with
    the entries, never with n times the largest row.
    """

    __slots__ = ("n", "_rank", "_slot_ptr", "_slot_cols", "_slot_weights")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray):
        self.n = n
        counts = np.diff(indptr)
        order = np.argsort(-counts, kind="stable")
        self._rank = np.argsort(order)  # row i's position in that order
        per_slot = (n - np.cumsum(np.bincount(counts)))[:-1]  # rows with more than s entries
        self._slot_ptr = np.concatenate([[0], np.cumsum(per_slot)])
        # entries slot by slot, each slot's rows in order
        slot = np.repeat(np.arange(len(per_slot)), per_slot)
        entry = indptr[order[np.arange(len(slot)) - self._slot_ptr[slot]]] + slot
        self._slot_cols, self._slot_weights = indices[entry], weights[entry][:, None]

    def __matmul__(self, h: np.ndarray) -> np.ndarray:
        if h.shape[0] != self.n:
            raise ShapeMismatch(f"adjacency has {self.n} rows, features {h.shape[0]}")
        ptr, cols, w = self._slot_ptr, self._slot_cols, self._slot_weights
        # every row holds its self loop, so slot 0 covers all rows
        out = h[cols[: ptr[1]]] * w[: ptr[1]]
        for lo, hi in zip(ptr[1:-1], ptr[2:]):
            term = h[cols[lo:hi]]
            term *= w[lo:hi]
            out[: hi - lo] += term
        return out[self._rank]


def normalized_adjacency(graph: NeighborGraph) -> NormalizedAdjacency:
    """D^{-1/2} (A + I) D^{-1/2} with D the degree of A + I, A the symmetrized graph."""
    n, src, dst = graph.n, graph.sources, graph.indices
    # one code per entry, self loops included, row-major: sorted, they give CSR
    # order; duplicates (edges listed both ways) are dropped
    code = np.sort(np.concatenate([src * n + dst, dst * n + src, np.arange(n) * (n + 1)]))
    rows, cols = np.divmod(code[np.diff(code, prepend=-1) != 0], n)
    counts = np.bincount(rows, minlength=n)
    dinv = 1.0 / np.sqrt(counts.astype(np.float64))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return NormalizedAdjacency(n, indptr, cols, dinv[rows] * dinv[cols])


def _stack_forward(x: np.ndarray, layers, a_hat: NormalizedAdjacency | None):
    """Shared forward for GCN stacks (a_hat given) and plain MLPs (a_hat None).

    A GCN stack's input `x` is its first layer's aggregate a_hat @ input.
    """
    h = x
    aggs, pre = [], []
    for li, layer in enumerate(layers):
        if h.shape[1] != layer.w.shape[0]:
            raise ShapeMismatch(
                f"layer {li} expects {layer.w.shape[0]} inputs, got {h.shape[1]}"
            )
        agg = h if a_hat is None or li == 0 else a_hat @ h
        aggs.append(agg)
        a = agg @ layer.w + layer.b
        pre.append(a)
        h = np.maximum(a, 0.0) if li < len(layers) - 1 else a
    cache = {"aggs": aggs, "pre": pre, "a_hat": a_hat, "n_layers": len(layers)}
    return h, cache


def _stack_backward(dout: np.ndarray, layers, cache, input_grad: bool = True) -> np.ndarray | None:
    """Accumulate the layers' gradients; return the gradient of the stack's input.

    Returns None instead, without computing it, for GCN stacks, whose input
    gradient no caller reads, and when `input_grad` is False.
    """
    if cache.get("n_layers") != len(layers):
        raise StaleCache("cache does not match the current layer stack")
    a_hat = cache["a_hat"]
    g = dout
    dx = None
    for li in reversed(range(len(layers))):
        layer = layers[li]
        if cache["aggs"][li].shape[1] != layer.w.shape[0]:
            raise StaleCache(f"cached activations do not fit layer {li}")
        layer.gw += cache["aggs"][li].T @ g
        layer.gb += g.sum(axis=0)
        if li == 0 and (a_hat is not None or not input_grad):
            return None
        dagg = g @ layer.w.T
        dx = dagg if a_hat is None else a_hat @ dagg  # a_hat is symmetric
        if li > 0:
            g = dx * (cache["pre"][li - 1] > 0.0)
    return dx


def gcn_forward(agg: np.ndarray, a_hat: NormalizedAdjacency, layers):
    """Graph convolutions of x from the first one's aggregate `agg = a_hat @ x`: relu between layers, linear last."""
    return _stack_forward(agg, layers, a_hat)


def fuse_forward(y_tra: np.ndarray, y_mor: np.ndarray | None, params: ModelParams):
    """Blend modality embeddings and push them through the fusion MLP."""
    if y_mor is None:
        y = y_tra
        mode = "single"
    elif params.fusion_mode == "concat":
        y = np.concatenate([y_tra, y_mor], axis=1)
        mode = "concat"
    else:
        if y_tra.shape != y_mor.shape:
            raise ShapeMismatch("modality embeddings must share a shape to be summed")
        y = params.theta * y_tra + (1.0 - params.theta) * y_mor
        mode = "sum"
    z, mlp_cache = _stack_forward(y, params.fusion, None)
    cache = {"mode": mode, "theta": params.theta, "mlp": mlp_cache, "d_tra": y_tra.shape[1]}
    return z, cache


def fuse_backward(dz: np.ndarray, params: ModelParams, cache):
    dy = _stack_backward(dz, params.fusion, cache["mlp"])
    mode = cache["mode"]
    if mode == "single":
        return dy, None
    if mode == "concat":
        d = cache["d_tra"]
        return dy[:, :d], dy[:, d:]
    return cache["theta"] * dy, (1.0 - cache["theta"]) * dy


def decode_forward(z: np.ndarray, params: ModelParams):
    return _stack_forward(z, params.decoder, None)


def decode_backward(dxhat: np.ndarray, params: ModelParams, cache) -> np.ndarray:
    return _stack_backward(dxhat, params.decoder, cache)


class EmbeddingSet:
    """Per-spot tensors produced by one full forward pass."""

    __slots__ = ("y_tra", "y_mor", "z", "x_hat")

    def __init__(self, y_tra, y_mor, z, x_hat):
        self.y_tra = y_tra
        self.y_mor = y_mor
        self.z = z
        self.x_hat = x_hat


def forward_all(params: ModelParams, x_tra: np.ndarray, x_mor: np.ndarray | None, a_hat: NormalizedAdjacency):
    """`forward_aggregates` of the inputs' first aggregates a_hat @ x."""
    return forward_aggregates(params, a_hat @ x_tra, None if x_mor is None else a_hat @ x_mor, a_hat)


def forward_aggregates(params: ModelParams, agg_tra: np.ndarray, agg_mor: np.ndarray | None, a_hat: NormalizedAdjacency):
    """One full pass whose encoders start from the first aggregates a_hat @ x of their inputs."""
    if params.has_mor != (agg_mor is not None):
        raise ShapeMismatch("model and inputs disagree about the morphology modality")
    y_tra, c_tra = gcn_forward(agg_tra, a_hat, params.gnn_tra)
    y_mor, c_mor = (None, None)
    if agg_mor is not None:
        y_mor, c_mor = gcn_forward(agg_mor, a_hat, params.gnn_mor)
    z, c_fuse = fuse_forward(y_tra, y_mor, params)
    x_hat, c_dec = decode_forward(z, params)
    caches = {"tra": c_tra, "mor": c_mor, "fuse": c_fuse, "dec": c_dec}
    return EmbeddingSet(y_tra, y_mor, z, x_hat), caches


def backward_all(params: ModelParams, caches, dz: np.ndarray, dxhat: np.ndarray | None = None):
    """Accumulate parameter gradients from latent and reconstruction signals."""
    if dxhat is not None:
        dz = dz + decode_backward(dxhat, params, caches["dec"])
    dt, dm = fuse_backward(dz, params, caches["fuse"])
    _stack_backward(dt, params.gnn_tra, caches["tra"])
    if params.has_mor:
        _stack_backward(dm, params.gnn_mor, caches["mor"])


def dropout_mask(shape: tuple, p: float, rng: np.random.Generator) -> np.ndarray | None:
    """Inverted-dropout multiplier: 0 with probability p, else 1/(1-p)."""
    if p <= 0.0:
        return None
    keep = rng.random(shape) >= p
    return keep / (1.0 - p)


def check_genes(params: ModelParams, gene_ids: list[str]):
    """Raise StaleCache unless `params` were trained on exactly `gene_ids`, in order.

    Parameters that name no genes pass.
    """
    trained, given = params.gene_ids, list(gene_ids)
    if trained is None or list(trained) == given:
        return
    pos = next((i for i, (a, b) in enumerate(zip(trained, given)) if a != b), min(len(trained), len(given)))

    def at(ids):
        return repr(ids[pos]) if pos < len(ids) else f"absent ({len(ids)} genes)"

    raise StaleCache(
        f"the model was trained on other genes than the data: gene column {pos} is {at(trained)}"
        f" in the model and {at(given)} in the data; retrain on this dataset and configuration"
    )


def save_checkpoint(params: ModelParams, path: str):
    """Write checkpoint v3: an uncompressed .npz of float64 tensors named like
    `gnn_tra.0.w`, plus `format`, `theta`, `fusion_mode`, `gene_ids` and
    `epsilon_used`.

    np.savez stamps its zip members with a fixed date, so equal parameters
    give equal bytes.
    """
    if params.gene_ids is None or len(params.gene_ids) != params.decoder[-1].w.shape[1]:
        raise ShapeMismatch("a checkpoint must name one gene per decoder output")
    if params.epsilon_used is None:
        raise OutOfRange("a checkpoint must record the spatial radius its model was trained on")
    arrays = {}
    for name, layer in params.named_layers():
        arrays[name + ".w"] = layer.w
        arrays[name + ".b"] = layer.b
    arrays["format"] = np.array(CKPT_FORMAT)
    arrays["theta"] = np.array(params.theta)
    arrays["fusion_mode"] = np.array(params.fusion_mode)
    arrays["gene_ids"] = np.array(params.gene_ids, dtype=str)
    arrays["epsilon_used"] = np.array(float(params.epsilon_used))
    with open_for_write(path, binary=True) as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str) -> ModelParams:
    """Read checkpoint v3 without unpickling anything; any other file raises, naming `path`."""
    if not os.path.isfile(path):
        raise MissingFile(f"checkpoint not found: {path}")
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
        if head.startswith(b"{"):
            raise StaleCache(
                f"checkpoint {path} is JSON (topofuse-ckpt-v1), which this version no longer reads;"
                " retrain to write ckpt.npz"
            )
        if head != b"PK\x03\x04":
            raise IoFailure(f"checkpoint {path} is not an .npz archive")
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as e:
        raise IoFailure(f"cannot read checkpoint {path}: {e}") from e

    def field(key, ndim, kind):
        a = arrays.get(key)
        if a is None or a.ndim != ndim or a.dtype.kind != kind:
            raise StaleCache(f"checkpoint {path} has no valid {key!r}; write it with save_checkpoint")
        return a

    fmt = field("format", 0, "U").item()
    if fmt != CKPT_FORMAT:
        raise StaleCache(f"checkpoint {path} has format {fmt!r}, not {CKPT_FORMAT!r}; retrain to write it")

    def take(group: str):
        layers = []
        # a missing first layer is an error except for the optional morphology encoder
        while f"{group}.{len(layers)}.w" in arrays or not layers and group != "gnn_mor":
            name = f"{group}.{len(layers)}"
            w, b = field(name + ".w", 2, "f"), field(name + ".b", 1, "f")
            if b.shape != w.shape[1:]:
                raise StaleCache(f"checkpoint {path}: {name}.b does not fit {name}.w")
            layers.append(Dense(w, b))
        return layers

    return ModelParams(
        take("gnn_tra"),
        take("gnn_mor") or None,
        take("fusion"),
        take("decoder"),
        field("theta", 0, "f").item(),
        field("fusion_mode", 0, "U").item(),
        gene_ids=field("gene_ids", 1, "U").tolist(),
        epsilon_used=field("epsilon_used", 0, "f").item(),
    )
