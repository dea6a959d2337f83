"""Peak memory of the distance kernels and of training, measured with tracemalloc.

The normalized adjacency is the one n x n array a run may hold. The distance
kernels work on blocks of topology.ROW_BLOCK rows, so at N = 16 blocks plus a
partial one their peak is a few blocks, well under a quarter of n x n; any of
them building the full distance, order or rank matrix goes over.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from topofuse import dataio, evaluate, objective, preprocess, topology

N = 16 * topology.ROW_BLOCK + 5
NXN_BYTES = N * N * 8


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(3)
    return rng.normal(size=(N, 3)), rng.uniform(0.0, 60.0, size=(N, 2))


def _spatial(coords):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return topology.build_spatial_graph(coords, 1.5)


@pytest.mark.parametrize(
    "name, call",
    [
        ("knn_graph", lambda x, coords: topology.knn_graph(x, 7)),
        ("auto_epsilon", lambda x, coords: topology.auto_epsilon(coords)),
        ("build_spatial_graph", lambda x, coords: _spatial(coords)),
        ("mrre", lambda x, coords: evaluate.mrre(x, coords, 5)),
    ],
)
def test_distance_kernels_stay_below_a_quarter_of_n_by_n(points, name, call):
    peak = _peak_bytes(call, *points)
    assert peak < NXN_BYTES / 4, f"{name} peaked at {peak / NXN_BYTES:.2f} of one n x n float64 array"


def test_one_training_epoch_holds_one_n_by_n_array(points):
    _, coords = points
    rng = np.random.default_rng(4)
    genes = 4
    pre = preprocess.PreprocessedData(
        tra=rng.normal(size=(N, genes)),
        gene_ids=[f"g{i}" for i in range(genes)],
        gene_means=np.zeros(genes),
        gene_stds=np.ones(genes),
    )
    graph = _spatial(coords)
    cfg = dataio.RunConfig().replace(epochs=1, d_emb=4)
    peak = _peak_bytes(objective.train, pre, graph, cfg)
    # a_hat itself is one n x n array; a second would pass 2
    assert NXN_BYTES <= peak < 1.5 * NXN_BYTES, f"train peaked at {peak / NXN_BYTES:.2f} of one n x n array"
