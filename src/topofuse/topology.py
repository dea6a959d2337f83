"""Neighborhood graphs and training pair sampling with feature augmentation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IsolatedNodesWarning, OutOfRange, ShapeMismatch

N_NEG = 5  # uniform negatives per anchor


@dataclass
class NeighborGraph:
    """Adjacency in compressed sparse rows (int64 arrays).

    Node i's neighbours, in ascending order, are indices[indptr[i]:indptr[i + 1]].
    A radius graph is symmetric; a kNN graph is directed, with exactly
    min(k, n - 1) out-neighbours per node.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        ptr = self.indptr
        if len(ptr) != self.n + 1 or ptr[0] != 0 or ptr[-1] != len(self.indices) or np.any(np.diff(ptr) < 0):
            raise ShapeMismatch("indptr does not split the neighbour indices into n rows")
        src = self.sources
        bad = np.flatnonzero((self.indices < 0) | (self.indices >= self.n) | (self.indices == src))
        if len(bad):
            raise OutOfRange(f"node {src[bad[0]]} has invalid neighbor {self.indices[bad[0]]}")

    @property
    def sources(self) -> np.ndarray:
        """Node of each entry of `indices`: edge e runs sources[e] -> indices[e]."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    @property
    def isolated(self) -> np.ndarray:
        """Nodes without any neighbour."""
        return np.flatnonzero(np.diff(self.indptr) == 0)


# Rows per distance block: a kernel holds a few ROW_BLOCK x n arrays, never n x n.
# Up to ROW_BLOCK rows the one block is x @ x.T, which numpy computes with syrk.
# Larger inputs use gemm row blocks. OpenBLAS gemm can differ from syrk in the
# last bits, so a near-tie between two neighbours could resolve the other way.
ROW_BLOCK = 256


def sq_dist_blocks(x: np.ndarray):
    """Yield (lo, d2) per block of ROW_BLOCK rows of x.

    d2[r, j] is the squared distance from x[lo + r] to x[j], computed as
    |x_i|^2 + |x_j|^2 - 2 x_i.x_j and clipped at 0; the self entry is inf.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    sq = (x * x).sum(axis=1)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        gram = x[lo:hi] @ x.T
        gram *= 2.0
        d2 = sq[lo:hi, None] + sq[None, :]
        d2 -= gram
        del gram
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        yield lo, d2


def nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest entries of each row of d2, in ascending column order.

    Equal values go to the lower column, as the first k of a stable sort of the
    whole row would.
    """
    # a sorted copy: a view would keep the whole ROW_BLOCK x n partition alive
    near = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
    kth = np.take_along_axis(d2, near, axis=1).max(axis=1)
    # where the k-th value is tied past the k-th place, argpartition's choice among
    # the tied columns is arbitrary: take the lowest columns instead
    for r in np.flatnonzero((d2 <= kth[:, None]).sum(axis=1) > k):
        cand = np.flatnonzero(d2[r] <= kth[r])
        near[r] = np.sort(cand[np.argsort(d2[r, cand], kind="stable")[:k]])
    return near


def build_spatial_graph(coords: np.ndarray, eps: float) -> NeighborGraph:
    """Symmetric radius graph: edge iff 0 < distance <= eps.

    Nodes without any neighbor trigger an IsolatedNodesWarning and are listed
    on the returned graph.
    """
    if eps <= 0:
        raise OutOfRange("epsilon radius must be positive")
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    counts = np.zeros(n + 1, dtype=np.int64)
    indices = [np.zeros(0, dtype=np.int64)]  # no rows: an empty graph
    for lo, d2 in sq_dist_blocks(coords):
        # coincident spots sit at distance 0 and never become neighbors
        within = (d2 <= eps * eps) & (d2 > 0.0)
        counts[lo + 1 : lo + 1 + len(d2)] = within.sum(axis=1)
        indices.append(np.nonzero(within)[1])
    graph = NeighborGraph(n=n, indptr=np.cumsum(counts), indices=np.concatenate(indices))
    if len(graph.isolated):
        warnings.warn(
            IsolatedNodesWarning(f"{len(graph.isolated)} node(s) have no spatial neighbor at eps={eps:g}")
        )
    return graph


def auto_epsilon(coords: np.ndarray) -> float:
    """Smallest radius at which the median spot has at least 4 neighbors.

    Coincident spots are not neighbors (see build_spatial_graph), so each spot's
    k-th smallest *positive* distance counts.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if n < 2:
        raise OutOfRange("need at least 2 spots to pick a radius")
    k = min(4, n - 1)
    kth = []
    for _, d2 in sq_dist_blocks(coords):
        d2[d2 == 0.0] = np.inf
        # copy the column: a view would keep each block's partitioned copy alive
        kth.append(np.partition(d2, k - 1, axis=1)[:, k - 1].copy())
    # lower median: the smallest radius covering at least half the spots
    eps = float(np.sort(np.sqrt(np.concatenate(kth)))[(n - 1) // 2])
    if not np.isfinite(eps):
        raise OutOfRange(
            f"epsilon_radius 'auto' found no radius: the median spot has fewer than {k} spots at other"
            " positions; set epsilon_radius"
        )
    return eps


def knn_graph(x: np.ndarray, k: int) -> NeighborGraph:
    """Directed k-nearest-neighbor graph; distance ties go to the lower index."""
    if k < 1:
        raise OutOfRange("k must be positive")
    n = len(x)
    if n < 2:
        raise OutOfRange("need at least 2 rows for a knn graph")
    k = min(k, n - 1)
    indices = np.concatenate([nearest(d2, k).ravel() for _, d2 in sq_dist_blocks(x)])
    return NeighborGraph(n=n, indptr=np.arange(n + 1) * k, indices=indices)


def sample_pairs(
    n: int,
    graph: NeighborGraph,
    features: np.ndarray,
    n_neg: int,
    p_u: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One augmented partner plus `n_neg` uniform negatives per anchor.

    Returns (payload, partners). `partners` is the (n, 1 + n_neg) table of
    objective.topo_loss: row i is anchor i, column 0 its augmented row
    n + i (payload row i), the other columns its negatives.

    Anchor i's augmented row is (1 - r) x_i + r x_j for a uniformly chosen
    neighbour j and r ~ U(0, p_u), so every node needs a neighbour, as every
    node of a kNN graph has. Three array draws make the batch, in order: the
    neighbour position of every anchor, their r, then the (n, n_neg)
    negatives over the n - 1 other rows. A seeded generator reproduces the
    batch exactly.
    """
    if n < 2:
        raise OutOfRange("need at least 2 rows to sample pairs")
    if features.shape[0] != n or graph.n != n:
        raise ShapeMismatch("features and graph must cover the same rows")
    if not 0 < p_u <= 1:
        raise OutOfRange("p_u must lie in (0, 1]")
    partner = graph.indices[graph.indptr[:-1] + rng.integers(np.diff(graph.indptr))]
    r = rng.uniform(0.0, p_u, n)
    neg = rng.integers(n - 1, size=(n, n_neg))
    payload = (1.0 - r)[:, None] * features + r[:, None] * features[partner]
    neg += neg >= np.arange(n)[:, None]  # skip the anchor itself
    return payload, np.column_stack([n + np.arange(n), neg])
