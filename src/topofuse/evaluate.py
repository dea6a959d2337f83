"""Agreement metrics and modality attribution.

ARI is computed from the contingency table with exact integer arithmetic.
MRRE compares neighbor ranks between two spaces. Modality contributions come
from a linear one-vs-rest SVM explained with exact linear Shapley values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, OutOfRange, ShapeMismatch, SingleClass
from .topology import nearest, sq_dist_blocks

SVM_EPOCHS = 200
SVM_C = 1.0
SVM_BATCH = 8


def ari(a, b) -> float:
    """Adjusted Rand index; 0 when the adjustment denominator vanishes."""
    a = np.asarray(a)
    b = np.asarray(b)
    if len(a) != len(b):
        raise LengthMismatch(f"labelings have lengths {len(a)} and {len(b)}")
    n = len(a)
    if n == 0:
        raise LengthMismatch("labelings are empty")
    ua = {v: i for i, v in enumerate(sorted(set(a.tolist())))}
    ub = {v: i for i, v in enumerate(sorted(set(b.tolist())))}
    table = np.zeros((len(ua), len(ub)), dtype=np.int64)
    for x, y in zip(a.tolist(), b.tolist()):
        table[ua[x], ub[y]] += 1
    sum_ij = int(sum(math.comb(int(v), 2) for v in table.ravel()))
    sum_a = int(sum(math.comb(int(v), 2) for v in table.sum(axis=1)))
    sum_b = int(sum(math.comb(int(v), 2) for v in table.sum(axis=0)))
    pairs = math.comb(n, 2)
    if pairs == 0:
        return 0.0
    expected = sum_a * sum_b / pairs
    maximum = 0.5 * (sum_a + sum_b)
    denom = maximum - expected
    if denom == 0:
        return 0.0
    return float((sum_ij - expected) / denom)


def mrre(x_high: np.ndarray, x_low: np.ndarray, k: int) -> float:
    """Mean relative rank error of the k high-space neighborhoods.

    Sums |r - r'| / r over each point's k nearest high-space neighbors and
    divides by M * |M - 2k| / k.
    """
    x_high = np.asarray(x_high, dtype=np.float64)
    x_low = np.asarray(x_low, dtype=np.float64)
    if x_high.shape[0] != x_low.shape[0]:
        raise LengthMismatch("spaces disagree on row count")
    m = x_high.shape[0]
    if m < k + 2:
        raise OutOfRange(f"need at least k+2={k + 2} points")
    if not 1 <= k < m / 2:
        raise OutOfRange("k must satisfy 1 <= k < M/2")

    # each row's k high-space neighbours in index order, with their ranks 1..k
    nbrs, r_high = [], []
    for _, d_high in sq_dist_blocks(x_high):
        near = nearest(d_high, k)
        by_rank = np.argsort(np.take_along_axis(d_high, near, axis=1), axis=1, kind="stable")
        nbrs.append(near)
        r_high.append(np.argsort(by_rank, axis=1) + 1)
    nbrs = np.concatenate(nbrs)
    r_high = np.concatenate(r_high)

    # low-space rank of j: 1 + the number of columns before it by (distance, index)
    cols = np.arange(m)
    r_low = np.ones_like(nbrs)
    for lo, d_low in sq_dist_blocks(x_low):
        rows = slice(lo, lo + len(d_low))
        for c in range(k):
            j = nbrs[rows, c : c + 1]
            d = np.take_along_axis(d_low, j, axis=1)
            r_low[rows, c] += (d_low < d).sum(axis=1) + ((d_low == d) & (cols < j)).sum(axis=1)
    # row by row, each row's terms in index order: the float total of a loop over rows
    total = 0.0
    for terms in np.abs(r_high - r_low) / r_high:
        total += terms.sum()
    return float(total / (m * abs(m - 2 * k) / k))


def fit_linear_svm(x: np.ndarray, y: np.ndarray, rng: np.random.Generator):
    """One-vs-rest linear SVM by minibatch Pegasos on the hinge + L2 objective.

    The intercept rides along as a constant feature. Each epoch shuffles the
    rows once and steps on consecutive batches of SVM_BATCH of them, all
    classes at once, with the step size 1 / (lambda * t) of batch t and
    lambda = 1 / (SVM_C * n) (Shalev-Shwartz et al., ICML 2007). Returns
    (weights: classes x features, biases, class values).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    n, f = x.shape
    classes = sorted(set(y.tolist()))
    if len(classes) < 2:
        raise SingleClass("need at least two classes")
    lam = 1.0 / (SVM_C * n)
    xa = np.column_stack([x, np.ones(n)])
    targets = np.stack([np.where(y == cls, 1.0, -1.0) for cls in classes], axis=1)
    wa = np.zeros((len(classes), f + 1))
    step = 0
    for _ in range(SVM_EPOCHS):
        order = rng.permutation(n)
        xs, ts = xa[order], targets[order]
        for lo in range(0, n, SVM_BATCH):
            x_b, t_b = xs[lo : lo + SVM_BATCH], ts[lo : lo + SVM_BATCH]
            step += 1
            eta = 1.0 / (lam * step)
            hit = t_b * (x_b @ wa.T) < 1.0
            wa *= 1.0 - eta * lam
            wa += (eta / len(x_b)) * (hit * t_b).T @ x_b
    return wa[:, :f], wa[:, f].copy(), classes


def svm_predict(x: np.ndarray, weights: np.ndarray, biases: np.ndarray) -> np.ndarray:
    return (x @ weights.T + biases).argmax(axis=1)


def linear_shap(x: np.ndarray, mu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """phi_j = w_j (x_j - mu_j); rows sum to f(x) - f(mu) exactly."""
    return (np.asarray(x) - np.asarray(mu)) * np.asarray(w)


@dataclass
class ModalityContribution:
    names: list
    per_spot: np.ndarray  # n x modalities, max |phi| inside each block
    summary: dict
    train_accuracy: float


def modality_contribution(
    mats: list, labels: np.ndarray, names: list | None = None, seed: int = 0
) -> ModalityContribution:
    """Max-|Shapley| per modality for a linear SVM on the column concatenation."""
    if not mats:
        raise LengthMismatch("need at least one modality matrix")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != n:
            raise ShapeMismatch("modalities disagree on row count")
    labels = np.asarray(labels)
    if len(labels) != n:
        raise LengthMismatch("labels do not match the rows")
    names = [f"m{i}" for i in range(len(mats))] if names is None else list(names)
    if len(names) != len(mats):
        raise LengthMismatch("names do not match the modalities")

    x = np.concatenate([np.asarray(m, dtype=np.float64) for m in mats], axis=1)
    rng = np.random.default_rng([seed, 17])
    weights, biases, classes = fit_linear_svm(x, labels, rng)
    pred = svm_predict(x, weights, biases)
    accuracy = float((np.asarray([classes[p] for p in pred]) == labels).mean())

    mu = x.mean(axis=0)
    phi = linear_shap(x, mu, weights[pred])
    spans = np.cumsum([0] + [m.shape[1] for m in mats])
    per_spot = np.column_stack(
        [np.abs(phi[:, spans[i]: spans[i + 1]]).max(axis=1) for i in range(len(mats))]
    )
    summary = {}
    for i, name in enumerate(names):
        col = per_spot[:, i]
        summary[name] = {
            "mean": float(col.mean()),
            "median": float(np.median(col)),
            "q25": float(np.percentile(col, 25)),
            "q75": float(np.percentile(col, 75)),
        }
    return ModalityContribution(names=names, per_spot=per_spot, summary=summary, train_accuracy=accuracy)
