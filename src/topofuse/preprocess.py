"""Expression and morphology preprocessing.

Expression goes filter -> library-size log normalization -> highly variable
gene selection -> per-gene standardization. Morphology features are projected
onto their leading principal components. Variances are population (1/N)
throughout so results match closed-form hand counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import RunConfig, SpotDataset
from .errors import AllGenesFiltered, OutOfRange, RankDeficient, ShapeMismatch, ZeroLibrary

TARGET_SUM = 1e4
N_TOP_GENES = 3000
MOR_COMPONENTS = 50
_EIG_TOL = 1e-12


def filter_genes(tra: np.ndarray, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep genes expressed (nonzero) in at least `tau` spots.

    Returns the filtered matrix and the kept column indices, order preserved.
    """
    if tau < 0:
        raise OutOfRange("tau must be nonnegative")
    counts = (tra != 0).sum(axis=0)
    kept = np.flatnonzero(counts >= tau)
    if kept.size == 0:
        raise AllGenesFiltered(f"no gene is expressed in at least {tau} spots")
    return tra[:, kept], kept


def lognorm(tra: np.ndarray, target_sum: float = TARGET_SUM) -> np.ndarray:
    """Scale each spot to `target_sum` total counts, then ln(1 + x)."""
    if np.any(tra < 0):
        raise OutOfRange("expression entries must be nonnegative")
    lib = tra.sum(axis=1)
    zero = np.flatnonzero(lib <= 0)
    if zero.size:
        raise ZeroLibrary(f"spot row {int(zero[0])} has zero total counts")
    return np.log1p(target_sum * tra / lib[:, None])


def select_hvg(m: np.ndarray, n_top: int = N_TOP_GENES) -> np.ndarray:
    """Indices of the `n_top` highest-variance columns, ascending, ties to the lower index."""
    if n_top < 1:
        raise OutOfRange("n_top must be positive")
    var = m.var(axis=0)
    n_top = min(n_top, m.shape[1])
    order = np.argsort(-var, kind="stable")
    return np.sort(order[:n_top])


def standardize(m: np.ndarray) -> np.ndarray:
    """Center and scale columns to unit population std; flat columns go to zero."""
    stds = m.std(axis=0)
    out = m - m.mean(axis=0)
    live = stds >= 1e-12
    out[:, live] /= stds[live]
    out[:, ~live] = 0.0
    return out


def pca(m: np.ndarray, max_components: int) -> np.ndarray:
    """The scores of `m` on its leading principal components, up to `max_components` of them.

    Uses an exact symmetric eigendecomposition of the population covariance
    and keeps the components whose eigenvalue is at least _EIG_TOL. Each basis
    vector is signed so its largest-magnitude entry is positive. Raises
    RankDeficient when no component is kept.
    """
    n, d = m.shape
    if not 1 <= max_components <= min(n - 1, d):
        raise OutOfRange(f"max_components must lie in [1, min(N-1, D)] = [1, {min(n - 1, d)}]")
    centered = m - m.mean(axis=0)
    cov = centered.T @ centered / n
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")[:max_components]
    k = int((evals[order] >= _EIG_TOL).sum())
    if k == 0:
        raise RankDeficient("the matrix has numerical rank 0: no principal component to keep")
    basis = evecs[:, order[:k]]
    flip = basis[np.argmax(np.abs(basis), axis=0), np.arange(k)] < 0
    basis[:, flip] *= -1.0
    return centered @ basis


@dataclass
class PreprocessedData:
    """Model-ready matrices plus the gene ids of the expression columns."""

    tra: np.ndarray
    gene_ids: list[str]
    mor: np.ndarray | None = None

    @property
    def n_spots(self) -> int:
        return self.tra.shape[0]


def preprocess_dataset(ds: SpotDataset, cfg: RunConfig) -> PreprocessedData:
    filtered, kept = filter_genes(ds.tra, cfg.tau)
    logn = lognorm(filtered)
    hvg = select_hvg(logn, N_TOP_GENES)
    selected = logn[:, hvg]
    std = standardize(selected)
    gene_ids = [ds.gene_ids[kept[i]] for i in hvg]

    mor = None
    if ds.mor is not None:
        if ds.mor.shape[0] != ds.tra.shape[0]:
            raise ShapeMismatch("morphology rows do not match expression rows")
        mor = pca(ds.mor, min(MOR_COMPONENTS, ds.mor.shape[0] - 1, ds.mor.shape[1]))
    return PreprocessedData(tra=std, gene_ids=gene_ids, mor=mor)
