"""Independent reference implementations used to cross-check the library.

Everything here is written from first principles on purpose: slow loops and
pair counting instead of the vectorized algebra used by the package.
"""

import math

import numpy as np


def ari_pair_oracle(a, b) -> float:
    """Adjusted Rand index by brute-force pair agreement counting."""
    n = len(a)
    together_both = together_a = together_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            together_a += same_a
            together_b += same_b
            together_both += same_a and same_b
    total = math.comb(n, 2)
    if total == 0:
        return 0.0
    expected = together_a * together_b / total
    maximum = 0.5 * (together_a + together_b)
    denom = maximum - expected
    if denom == 0:
        return 0.0
    return (together_both - expected) / denom


def rank_oracle(x: np.ndarray) -> np.ndarray:
    """ranks[i, j]: 1-based position of j among i's neighbors by distance.

    Ties go to the lower index, matching a stable sort over squared
    distances computed the naive way.
    """
    n = x.shape[0]
    ranks = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        d2 = [(float(((x[i] - x[j]) ** 2).sum()), j) for j in range(n) if j != i]
        d2.sort(key=lambda t: (t[0], t[1]))
        for pos, (_, j) in enumerate(d2, start=1):
            ranks[i, j] = pos
    return ranks


def mrre_oracle(x_high: np.ndarray, x_low: np.ndarray, k: int) -> float:
    """Rank-error sum over each point's k high-space neighbors."""
    m = x_high.shape[0]
    rh = rank_oracle(x_high)
    rl = rank_oracle(x_low)
    total = 0.0
    for i in range(m):
        for j in range(m):
            if j != i and rh[i, j] <= k:
                total += abs(rh[i, j] - rl[i, j]) / rh[i, j]
    return total / (m * abs(m - 2 * k) / k)


def mrre_classic_scale(m: int, k: int) -> float:
    """Ratio turning the single-term normalizer into the harmonic-sum one."""
    single = m * abs(m - 2 * k) / k
    harmonic = m * sum(abs(m - 2 * l) / l for l in range(1, k + 1))
    return single / harmonic


def undirected_knn_edges(x: np.ndarray, k: int) -> set:
    """Undirected edge set of the directed kNN graph, ties to lower index."""
    n = x.shape[0]
    edges = set()
    for i in range(n):
        d2 = [(float(((x[i] - x[j]) ** 2).sum()), j) for j in range(n) if j != i]
        d2.sort(key=lambda t: (t[0], t[1]))
        for _, j in d2[: min(k, n - 1)]:
            edges.add((min(i, j), max(i, j)))
    return edges


def block_edge_grid(rng, dims: int) -> np.ndarray:
    """2 * ROW_BLOCK + 3 integer points with duplicates on both sides of each row-block edge.

    Integer coordinates make every squared distance exact however it is summed,
    so the blocked kernels must match the full-matrix reference bit for bit, and
    equal distances are everywhere, so the lower-index tie-break decides.
    """
    from topofuse.topology import ROW_BLOCK

    b = ROW_BLOCK
    x = rng.integers(0, 9, size=(2 * b + 3, dims)).astype(np.float64)
    x[b] = x[b - 1]
    x[2 * b] = x[2 * b - 1]
    x[-1] = x[0]
    return x


def full_sq_dists(x: np.ndarray) -> np.ndarray:
    """Every squared distance at once, |x_i|^2 + |x_j|^2 - 2 x_i.x_j clipped at 0 (n x n)."""
    x = np.asarray(x, dtype=np.float64)
    sq = (x * x).sum(axis=1)[:, None] + (x * x).sum(axis=1)[None, :] - 2.0 * (x @ x.T)
    return np.maximum(sq, 0.0)


def full_neighbor_order(x: np.ndarray) -> np.ndarray:
    """Row i: every row index by squared distance from x[i], stable, i itself last."""
    d2 = full_sq_dists(x)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")


def full_radius_graph(coords: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the radius graph 0 < distance <= eps, from the full matrix."""
    d2 = full_sq_dists(coords)
    within = (d2 <= eps * eps) & (d2 > 0.0)
    np.fill_diagonal(within, False)
    return np.concatenate([[0], np.cumsum(within.sum(axis=1))]), np.nonzero(within)[1]


def full_auto_epsilon(coords: np.ndarray) -> float:
    """Lower median over spots of the distance to the min(4, n - 1)-th spot at another position."""
    n = len(coords)
    d2 = full_sq_dists(coords)
    np.fill_diagonal(d2, np.inf)
    d2[d2 == 0.0] = np.inf  # coincident spots are not neighbours
    kth = np.sort(np.sqrt(d2), axis=1)[:, min(4, n - 1) - 1]
    return float(np.sort(kth)[(n - 1) // 2])


def full_knn_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest rows in ascending index order, ties to the lower index (n x k)."""
    return np.sort(full_neighbor_order(x)[:, :k], axis=1)


def full_mrre(x_high: np.ndarray, x_low: np.ndarray, k: int) -> float:
    """MRRE from two n x n rank matrices, summing each row's terms in index order."""
    m = len(x_high)
    ra, rb = (np.argsort(full_neighbor_order(x), axis=1) + 1 for x in (x_high, x_low))
    total = 0.0
    for i in range(m):
        nbrs = np.flatnonzero(ra[i] <= k)
        total += (np.abs(ra[i, nbrs] - rb[i, nbrs]) / ra[i, nbrs]).sum()
    return float(total / (m * abs(m - 2 * k) / k))


def binary_entropy(t: np.ndarray) -> float:
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    inner = (t > 0) & (t < 1)
    ti = t[inner]
    out[inner] = -ti * np.log(ti) - (1.0 - ti) * np.log(1.0 - ti)
    return float(out.sum())


def vis_pairs_oracle(n: int, neighbors, n_neg: int, rng: np.random.Generator):
    """Visualization pairs drawn one bound at a time, anchor by anchor.

    Per anchor: its positive's neighbour index, then `n_neg` negatives drawn
    over the n - 1 other rows. Returns (anchors, partners).
    """
    anchors, partners = [], []
    for i in range(n):
        nbrs = neighbors[i]
        j = nbrs[int(rng.integers(len(nbrs)))]
        anchors.append(i)
        partners.append(j)
        for _ in range(n_neg):
            t = int(rng.integers(n - 1))
            if t >= i:
                t += 1
            anchors.append(i)
            partners.append(t)
    return np.asarray(anchors, dtype=np.int64), np.asarray(partners, dtype=np.int64)


def sample_pairs_oracle(n: int, neighbors, features: np.ndarray, n_neg: int, p_u: float, rng: np.random.Generator):
    """Training pairs from three array draws, assembled one anchor at a time.

    The draws, in order: a neighbour position for each anchor, r ~ U(0, p_u)
    for each anchor, then n x n_neg negatives over the n - 1 rows other than
    the anchor. Anchor i's payload row is (1 - r) x_i + r x_j. Returns
    (anchors, partners, h, payload).
    """
    picks = rng.integers(np.array([len(neighbors[i]) for i in range(n)], dtype=np.int64))
    rs = rng.uniform(0.0, p_u, n)
    negs = rng.integers(n - 1, size=(n, n_neg))
    anchors, partners, h, payload = [], [], [], []
    for i in range(n):
        j, r = neighbors[i][int(picks[i])], float(rs[i])
        payload.append((1.0 - r) * features[i] + r * features[j])
        anchors.append(i)
        partners.append(n + i)
        h.append(1)
        for t in negs[i].tolist():
            anchors.append(i)
            partners.append(t + 1 if t >= i else t)
            h.append(0)
    return np.asarray(anchors), np.asarray(partners), np.asarray(h), np.asarray(payload)


def pair_prior_oracle(partners: np.ndarray, y: np.ndarray, alpha: float, nu: float) -> np.ndarray:
    """`pair_prior` one pair at a time: `topo_prior` of anchor row i and row partners[i, k], h = 1 in column 0.

    Each pair is passed as two one-row arrays: numpy's power on a scalar may
    round otherwise than on an array (a SIMD loop), and `pair_prior` works on arrays.
    """
    from topofuse.objective import topo_prior

    t = np.empty(partners.shape)
    for i, row in enumerate(partners):
        for k, j in enumerate(row):
            t[i, k] = topo_prior(y[i : i + 1], y[j : j + 1], int(k == 0), alpha, nu)[0]
    return t


def gene_shift_oracle(params, data, spatial) -> np.ndarray:
    """Knockout displacements from one full forward pass per zeroed gene."""
    from topofuse import network

    a_hat = network.normalized_adjacency(spatial)
    base, _ = network.forward_all(params, data.tra, data.mor, a_hat)
    n, g = data.tra.shape
    shifts = np.empty((n, g))
    for gene in range(g):
        x = data.tra.copy()
        x[:, gene] = 0.0
        es, _ = network.forward_all(params, x, data.mor, a_hat)
        shifts[:, gene] = np.sqrt(((es.z - base.z) ** 2).sum(axis=1))
    return shifts


def em_oracle(z: np.ndarray, k: int, means0: np.ndarray, iters: int) -> tuple[list, list]:
    """Penalized log-likelihood and responsibilities of each of `iters` diagonal MAP EM iterates, never stopping early."""
    from topofuse.downstream import GMM_PRIOR

    n, d = z.shape
    means, covs, weights = means0.copy(), np.tile(z.var(axis=0) + 2.0 * GMM_PRIOR / n, (k, 1)), np.full(k, 1.0 / k)
    lls, resps = [], []
    for _ in range(iters):
        log_prob = np.empty((n, k))
        for c in range(k):
            diff = z - means[c]
            log_prob[:, c] = (
                -0.5 * (np.log(2.0 * np.pi * covs[c]).sum() + (diff * diff / covs[c]).sum(axis=1))
                + np.log(weights[c])
            )
        m = log_prob.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(log_prob - m).sum(axis=1))
        resp = np.exp(log_prob - lse[:, None])
        lls.append(float(lse.sum()) - GMM_PRIOR * float((1.0 / covs).sum()))
        resps.append(resp)
        nk = resp.sum(axis=0)
        weights, means = nk / n, (resp.T @ z) / nk[:, None]
        # each variance's exact MAP update under the prior density exp(-GMM_PRIOR / var)
        covs = np.array([(resp[:, c] @ (z - means[c]) ** 2 + 2.0 * GMM_PRIOR) / nk[c] for c in range(k)])
    return lls, resps


def topo_dz_oracle(anchors, partners, z: np.ndarray, t: np.ndarray, nu: float, clamp_eps: float) -> np.ndarray:
    """Latent gradient of the topology loss, scattered with two np.add.at calls."""
    diff = z[anchors] - z[partners]
    d2 = (diff * diff).sum(axis=1)
    p = (nu + 1.0) / nu
    u = 1.0 + d2 / nu
    s_cap = np.minimum(np.exp(-p * np.log1p(d2 / nu)), 1.0 - clamp_eps)
    dd2 = (p / nu) * (t / u - (1.0 - t) * s_cap / ((1.0 - s_cap) * u))
    dpair = (2.0 * dd2)[:, None] * diff
    dz = np.zeros_like(z)
    np.add.at(dz, anchors, dpair)
    np.add.at(dz, partners, -dpair)
    return dz


def csr_graph(neighbors, n: int | None = None):
    """NeighborGraph from per-node neighbour lists; `n` defaults to their count."""
    from topofuse import topology

    counts = [len(nbrs) for nbrs in neighbors]
    return topology.NeighborGraph(
        n=len(neighbors) if n is None else n,
        indptr=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        indices=np.array([j for nbrs in neighbors for j in nbrs], dtype=np.int64),
    )


def neighbor_lists(graph) -> list:
    """Per-node neighbour tuples of a NeighborGraph."""
    return [tuple(graph.indices[graph.indptr[i] : graph.indptr[i + 1]].tolist()) for i in range(graph.n)]


def normalized_adjacency_oracle(neighbors) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2}, symmetrizing A one neighbour at a time."""
    n = len(neighbors)
    a = np.zeros((n, n))
    for i, nbrs in enumerate(neighbors):
        for j in nbrs:
            a[i, j] = 1.0
            a[j, i] = 1.0
    a += np.eye(n)
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return a * dinv[:, None] * dinv[None, :]


def refine_labels_oracle(neighbors, labels) -> np.ndarray:
    """Per-spot majority over its own label and its neighbours' labels; a tie keeps the label."""
    out = labels.copy()
    for i, nbrs in enumerate(neighbors):
        votes = {}
        for lab in [labels[i]] + [labels[j] for j in nbrs]:
            votes[lab] = votes.get(lab, 0) + 1
        top = max(votes.values())
        winners = [lab for lab, c in votes.items() if c == top]
        if len(winners) == 1:
            out[i] = winners[0]
    return out


def paga_oracle(neighbors, labels) -> np.ndarray:
    """Observed/expected inter-cluster edge ratio, counting a set of undirected edges."""
    n = len(neighbors)
    cluster_ids = sorted(set(int(v) for v in labels))
    pairs = set()
    for i in range(n):
        for j in neighbors[i]:
            pairs.add((i, j) if i < j else (j, i))
    total = len(pairs)
    sizes = {c: int((labels == c).sum()) for c in cluster_ids}
    counts = {}
    for i, j in pairs:
        a, b = int(labels[i]), int(labels[j])
        if a != b:
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + 1
    m = len(cluster_ids)
    conn = np.zeros((m, m))
    possible = n * (n - 1) / 2.0
    for ai, a in enumerate(cluster_ids):
        for bi in range(ai + 1, m):
            b = cluster_ids[bi]
            expected = total * sizes[a] * sizes[b] / possible
            observed = counts.get((a, b) if a < b else (b, a), 0)
            v = 0.0 if expected <= 0 else min(1.0, observed / expected)
            conn[ai, bi] = conn[bi, ai] = v
    return conn


def pegasos_oracle(x: np.ndarray, y, rng: np.random.Generator, epochs: int, batch: int, c: float = 1.0):
    """One-vs-rest minibatch Pegasos, one class, row and feature at a time.

    Per epoch one permutation of the rows; per batch of `batch` consecutive
    rows of it, with t counting batches and eta = 1 / (lam t): every class's
    hinge hits against the weights before the step, then
    w = (1 - eta lam) w + eta / |batch| * sum of target * row over the hits.
    The intercept is a constant feature 1. Returns (weights, biases, classes).
    """
    x = np.asarray(x, dtype=np.float64)
    n, f = x.shape
    classes = sorted(set(np.asarray(y).tolist()))
    lam = 1.0 / (c * n)
    rows = [[float(v) for v in x[i]] + [1.0] for i in range(n)]
    w = [[0.0] * (f + 1) for _ in classes]
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n).tolist()
        for lo in range(0, n, batch):
            b = order[lo : lo + batch]
            t += 1
            eta = 1.0 / (lam * t)
            for k, cls in enumerate(classes):
                grad = [0.0] * (f + 1)
                for i in b:
                    target = 1.0 if y[i] == cls else -1.0
                    if target * sum(w[k][j] * rows[i][j] for j in range(f + 1)) < 1.0:
                        for j in range(f + 1):
                            grad[j] += target * rows[i][j]
                for j in range(f + 1):
                    w[k][j] = (1.0 - eta * lam) * w[k][j] + eta / len(b) * grad[j]
    w = np.array(w)
    return w[:, :f], w[:, f], classes


def per_sample_svm_oracle(x: np.ndarray, y, rng: np.random.Generator, epochs: int, c: float = 1.0):
    """One-vs-rest linear SVM by per-sample SGD: Pegasos with batches of one row.

    The fit the package used before it stepped on minibatches; kept to compare
    the objective values the two reach.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    n, f = x.shape
    classes = sorted(set(y.tolist()))
    lam = 1.0 / (c * n)
    xa = np.column_stack([x, np.ones(n)])
    targets = np.stack([np.where(y == cls, 1.0, -1.0) for cls in classes], axis=1)
    wa = np.zeros((len(classes), f + 1))
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            hit = targets[i] * (wa @ xa[i]) < 1.0
            wa *= 1.0 - eta * lam
            wa[hit] += (eta * targets[i][hit])[:, None] * xa[i]
    return wa[:, :f], wa[:, f], classes


def read_matrix_csv_oracle(path: str, what: str = "matrix"):
    """`dataio.read_matrix_csv` as the csv module's cell-by-cell loop alone, for every file."""
    import csv
    import os
    from array import array

    from topofuse.errors import DuplicateSpotId, InvalidDataset, IoFailure, MissingFile, NonNumericCell, RowCountMismatch

    if not os.path.isfile(path):
        raise MissingFile(f"{what} file not found: {path}")
    ids: list[str] = []
    values = array("d")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InvalidDataset(f"{what} file {path} is empty")
            if len(header) < 2:
                raise InvalidDataset(f"{what} file {path} needs an id column plus data columns")
            cols = header[1:]
            for r, row in enumerate(reader):
                if len(row) != len(header):
                    raise RowCountMismatch(
                        f"{what} row {r + 2} of {path} has {len(row)} fields, header has {len(header)}"
                    )
                ids.append(row[0])
                for c, cell in enumerate(row[1:]):
                    try:
                        v = float(cell)
                    except ValueError:
                        raise NonNumericCell(
                            f"{what} cell at row {row[0]!r}, column {cols[c]!r} is not numeric: {cell!r}"
                        ) from None
                    if not math.isfinite(v):
                        raise NonNumericCell(
                            f"{what} cell at row {row[0]!r}, column {cols[c]!r} is not finite: {cell!r}"
                        )
                    values.append(v)
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise InvalidDataset(f"{what} file {path} is not UTF-8 text: {e}") from e
    data = np.frombuffer(values, dtype=np.float64).reshape(len(ids), len(cols))
    seen = set()
    for sid in ids:
        if sid in seen:
            raise DuplicateSpotId(f"duplicate spot id {sid!r} in {path}")
        seen.add(sid)
    return cols, ids, data


def write_matrix_csv_oracle(path: str, row_ids, col_names, m: np.ndarray):
    """`dataio.write_matrix_csv` one cell at a time: the csv module quotes and writes every formatted value."""
    import csv

    from topofuse.dataio import FLOAT_FMT, open_for_write
    from topofuse.errors import RowCountMismatch

    if m.shape != (len(row_ids), len(col_names)):
        raise RowCountMismatch(f"matrix shape {m.shape} does not match ids for {path}")
    with open_for_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(["spot_id"] + list(col_names))
        for sid, row in zip(row_ids, m):
            w.writerow([sid] + [FLOAT_FMT % v for v in row])


def adjacency_product_oracle(neighbors, h: np.ndarray) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} @ h a row at a time, A symmetrized: each row adds its terms in ascending column order."""
    rows = [{i} for i in range(len(neighbors))]
    for i, nbrs in enumerate(neighbors):
        for j in nbrs:
            rows[i].add(j)
            rows[j].add(i)
    dinv = [1.0 / math.sqrt(len(r)) for r in rows]
    out = np.empty(h.shape)
    for i, r in enumerate(rows):
        cols = sorted(r)
        acc = h[cols[0]] * (dinv[i] * dinv[cols[0]])
        for j in cols[1:]:
            acc = acc + h[j] * (dinv[i] * dinv[j])
        out[i] = acc
    return out


def step_oracle(data, params, arrays, a_hat, lambda_: float, nu: float) -> tuple[dict, float]:
    """`objective._step` with the decoder first: the base pass decodes and takes the
    reconstruction loss, 2 (x_hat - x) / n its gradient, before the views.

    `arrays` are one `_draw`'s, four per modality. Returns the topology loss per
    modality and the reconstruction loss, and leaves the gradients in `params`.
    """
    from topofuse import network, objective

    n = data.n_spots
    names = ["tra", "mor"][: len(arrays) // 4]
    drawn = {name: arrays[4 * k : 4 * k + 4] for k, name in enumerate(names)}
    params.zero_grads()
    passes = {name: network.gcn_forward(drawn[name][2], a_hat, getattr(params, "gnn_" + name)) for name in names}
    ys = {"tra": passes["tra"][0], "mor": passes["mor"][0] if "mor" in passes else None}
    z, c_fuse = network.fuse_forward(ys["tra"], ys["mor"], params)
    x_hat, c_dec = network.decode_forward(z, params)
    diff = x_hat - data.tra
    l_rec, dxhat = float((diff * diff).sum() / n), 2.0 * diff / n
    caches = {"tra": passes["tra"][1], "mor": passes["mor"][1] if "mor" in passes else None, "fuse": c_fuse, "dec": c_dec}

    dz_base = np.zeros_like(z)
    losses = {}
    for name, (partners, t, _, view) in drawn.items():
        y_view, c_view = network.gcn_forward(view, a_hat, getattr(params, "gnn_" + name))
        ys_view = {**ys, name: y_view}
        z_view, c_fuse_view = network.fuse_forward(ys_view["tra"], ys_view["mor"], params)
        losses[name], dz_full = objective.topo_loss(partners, t, np.concatenate([z, z_view]), nu)
        dz_base += dz_full[:n]
        network.backward_all(params, {**caches, name: c_view, "fuse": c_fuse_view}, dz=dz_full[n:])
    network.backward_all(params, caches, dz=dz_base, dxhat=lambda_ * dxhat if lambda_ > 0 else None)
    return losses, l_rec
