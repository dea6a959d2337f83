"""Output checks for the topofuse benchmark, computed apart from the program.

Nothing here imports topofuse. Every artifact is read back from its CSV or
JSON file, rows are joined by spot_id, and each quantity is recomputed from
its definition with plain numpy: ARI by counting pairs, MRRE from rank lists
built one row at a time, the lasso optimality (KKT) conditions, the planted
marker blocks from the noise-free truth, and the denoising correlation.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter

import numpy as np

# Preprocessing constants of the method (RunConfig defaults and preprocess):
# genes expressed in fewer than TAU spots are dropped, counts are scaled to
# TARGET_SUM per spot and log1p-transformed, the N_TOP_GENES most variable
# genes are kept and every gene is standardized to unit population std.
TAU = 50
TARGET_SUM = 1e4
N_TOP_GENES = 3000
# Defaults of the CLI's --mrre-k and --l1, which the workloads keep.
MRRE_K = 10
L1 = 0.1
# The solver stops at a worst KKT violation below 1e-6; recomputing the
# residual from the written weights moves it by rounding only.
KKT_TOL = 1e-5
# Equality of a recomputed metric with the reported one, up to the order of
# floating-point summation.
REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def read_table(path) -> tuple[list[str], list[str], np.ndarray]:
    """(column names, row ids, float matrix) of a CSV whose first column is the id."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cols = rows[0][1:]
    ids = [r[0] for r in rows[1:]]
    mat = np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64).reshape(len(ids), len(cols))
    return cols, ids, mat


def by_id(ids: list[str], table_ids: list[str], mat: np.ndarray, what: str) -> np.ndarray:
    """Rows of `mat` reordered to follow `ids`; the id sets must be equal."""
    require(len(set(table_ids)) == len(table_ids), f"{what}: duplicate spot ids")
    require(sorted(table_ids) == sorted(ids), f"{what}: spot ids differ from the dataset's")
    pos = {sid: i for i, sid in enumerate(table_ids)}
    return mat[[pos[sid] for sid in ids]]


def read_labels(path, ids: list[str], what: str) -> np.ndarray:
    _, lab_ids, mat = read_table(path)
    return np.rint(by_id(ids, lab_ids, mat, what)[:, 0]).astype(np.int64)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class Dataset:
    """A synthetic section as written by `topofuse synth`."""

    def __init__(self, root):
        self.genes, self.ids, self.counts = read_table(root / "tra.csv")
        self.planted = read_labels(root / "labels.csv", self.ids, "dataset labels.csv")
        truth_cols, truth_ids, truth = read_table(root / "truth_tra.csv")
        col = {g: j for j, g in enumerate(truth_cols)}
        self.truth = by_id(self.ids, truth_ids, truth, "truth_tra.csv")[:, [col[g] for g in self.genes]]
        self._pre = None

    def preprocessed(self) -> tuple[list[str], np.ndarray]:
        """Kept gene ids and the standardized log expression the model sees."""
        if self._pre is None:
            x = self.counts
            kept = np.flatnonzero((x != 0).sum(axis=0) >= TAU)
            x = x[:, kept]
            x = np.log1p(TARGET_SUM * x / x.sum(axis=1, keepdims=True))
            if x.shape[1] > N_TOP_GENES:
                top = np.sort(np.argsort(-x.var(axis=0), kind="stable")[:N_TOP_GENES])
                kept, x = kept[top], x[:, top]
            std = x.std(axis=0)
            live = std >= 1e-12
            x = np.where(live, (x - x.mean(axis=0)) / np.where(live, std, 1.0), 0.0)
            self._pre = ([self.genes[j] for j in kept], x)
        return self._pre

    def marker_blocks(self) -> dict[int, set[str]]:
        """Genes each planted domain raises above the baseline, read from the truth."""
        base = self.truth.min()
        blocks = {}
        for d in sorted(set(self.planted.tolist())):
            raised = self.truth[self.planted == d].mean(axis=0) > base
            blocks[d] = {g for g, up in zip(self.genes, raised) if up}
        return blocks


def ari_by_pairs(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index from explicit counts over all unordered spot pairs."""
    iu = np.triu_indices(len(a), 1)
    same_a = (a[:, None] == a[None, :])[iu]
    same_b = (b[:, None] == b[None, :])[iu]
    both, in_a, in_b, pairs = int((same_a & same_b).sum()), int(same_a.sum()), int(same_b.sum()), len(iu[0])
    expected = in_a * in_b / pairs
    denom = 0.5 * (in_a + in_b) - expected
    return 0.0 if denom == 0 else (both - expected) / denom


def _ranks(x: np.ndarray) -> np.ndarray:
    """ranks[i, j]: 1-based place of j among i's neighbors, ties to the lower index."""
    n = len(x)
    ranks = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        d2 = ((x - x[i]) ** 2).sum(axis=1)
        d2[i] = np.inf
        ranks[i, np.argsort(d2, kind="stable")] = np.arange(1, n + 1)
    return ranks


def mrre_by_ranks(high: np.ndarray, low: np.ndarray) -> float:
    """Mean relative rank error of each spot's k nearest high-space neighbors."""
    m = len(high)
    k = min(MRRE_K, (m - 1) // 2)
    rh, rl = _ranks(high), _ranks(low)
    np.fill_diagonal(rh, m + 1)
    near = rh <= k
    total = (np.abs(rh - rl)[near] / rh[near]).sum()
    return float(total / (m * abs(m - 2 * k) / k))


def check_labels(ds: Dataset, labels: np.ndarray, reported_ari: float) -> float:
    ari = ari_by_pairs(ds.planted, labels)
    require(close(ari, reported_ari), f"reported ARI {reported_ari!r} differs from the pair count {ari!r}")
    return ari


def check_embedding(ds: Dataset, emb_path, reported_mrre: float) -> float:
    _, ids, z = read_table(emb_path)
    z = by_id(ds.ids, ids, z, "embedding.csv")
    require(bool(np.isfinite(z).all()), "embedding.csv holds a non-finite value")
    mrre = mrre_by_ranks(ds.preprocessed()[1], z)
    require(close(mrre, reported_mrre), f"reported MRRE {reported_mrre!r} differs from the rank count {mrre!r}")
    return mrre


def check_deconvolution(ds: Dataset, emb_path, labels: np.ndarray, dec_path):
    """Every spot's weights satisfy the lasso KKT conditions for the cluster means."""
    _, ids, z = read_table(emb_path)
    z = by_id(ds.ids, ids, z, "embedding.csv")
    cols, dec_ids, dec = read_table(dec_path)
    dec = by_id(ds.ids, dec_ids, dec, "deconvolution.csv")
    clusters = sorted(set(labels.tolist()))
    require(cols == [f"w_{c}" for c in clusters] + ["weight_dispersion"], f"deconvolution.csv columns {cols}")
    w = dec[:, :-1]
    basis = np.column_stack([z[labels == c].mean(axis=0) for c in clusters])
    grad = -2.0 * (z - w @ basis.T) @ basis
    viol = np.where(w != 0.0, np.abs(grad + L1 * np.sign(w)), np.maximum(np.abs(grad) - L1, 0.0))
    require(float(viol.max()) <= KKT_TOL, f"deconvolution weights violate KKT by {viol.max():.3g}")
    require(bool(np.allclose(dec[:, -1], w.std(axis=1), rtol=0, atol=1e-12)), "weight_dispersion is not the row std")


def check_markers(ds: Dataset, labels: np.ndarray, markers_path) -> tuple[int, int]:
    """Every ranked gene of a cluster lies in its majority domain's marker block."""
    blocks = ds.marker_blocks()
    with open(markers_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    require(bool(rows), "markers.csv is empty")
    majority = {}
    for c in set(labels.tolist()):
        majority[c] = Counter(ds.planted[labels == c].tolist()).most_common(1)[0][0]
    hits = sum(r["gene_id"] in blocks[majority[int(r["cluster"])]] for r in rows)
    require(hits == len(rows), f"only {hits}/{len(rows)} marker genes lie in the planted block")
    require({int(r["cluster"]) for r in rows} == set(labels.tolist()), "markers.csv does not cover every cluster")
    return hits, len(rows)


def check_matrix(ds: Dataset, path, n_cols: int):
    """A finite spots x n_cols matrix covering every spot once."""
    cols, ids, mat = read_table(path)
    require(len(cols) == n_cols, f"{path.name} has {len(cols)} columns, expected {n_cols}")
    by_id(ds.ids, ids, mat, path.name)
    require(bool(np.isfinite(mat).all()), f"{path.name} holds a non-finite value")


def check_paga(labels: np.ndarray, cluster_ids: list, edges: list):
    """One edge per cluster pair, connectivities in [0, 1] (so symmetric)."""
    clusters = sorted(set(labels.tolist()))
    require(list(cluster_ids) == clusters, f"PAGA clusters {cluster_ids} differ from {clusters}")
    seen = Counter(frozenset((e["c"], e["d"])) for e in edges)
    want = {frozenset((a, b)) for i, a in enumerate(clusters) for b in clusters[i + 1:]}
    require(set(seen) == want and max(seen.values()) == 1, "PAGA edges do not list each cluster pair once")
    vals = [e["connectivity"] for e in edges]
    require(all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals), "PAGA connectivity outside [0, 1]")


def denoise_gap(ds: Dataset, denoised_path) -> tuple[float, float]:
    """Mean per-gene correlation with the truth: denoised output, and its gain over raw counts."""
    cols, ids, x_hat = read_table(denoised_path)
    x_hat = by_id(ds.ids, ids, x_hat, "denoised expression")
    require(bool(np.isfinite(x_hat).all()), "denoised expression holds a non-finite value")
    col = {g: j for j, g in enumerate(ds.genes)}
    sel = [col[g] for g in cols]

    def mean_corr(a, b):
        vals = [np.corrcoef(a[:, j], b[:, j])[0, 1] for j in range(a.shape[1]) if a[:, j].std() > 0 and b[:, j].std() > 0]
        return float(np.mean(vals))

    truth = ds.truth[:, sel]
    c_hat = mean_corr(x_hat, truth)
    return c_hat, c_hat - mean_corr(ds.counts[:, sel], truth)


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
