"""Peak memory of the distance kernels, of training and of the graph
convolution, measured with tracemalloc.

No n x n array belongs in a run. The distance kernels work on blocks of
topology.ROW_BLOCK rows, so at N = 16 blocks plus a partial one their peak is
a few blocks, well under a quarter of n x n; any of them building the full
distance, order or rank matrix goes over. The normalized adjacency holds one
entry per edge and self loop, so training, the knockouts, denoising and a
propagation over a star graph stay under the same bar; storing the dense
matrix, or padding every row to the largest degree, goes over.

An epoch's working set is bounded at the benchmark's shapes (an 8 x 125
section, 200 genes, 12 morphology dims, d_emb 72): a draw frees each
modality's payload and mask once their aggregates exist and peaks below 3
times the bytes it returns; a step runs the decoder after the views and
frees each view's temporaries before the next, and peaks below 28 n x d_emb
float64 arrays. At n = 8000 the two peak at 55 and 99 MiB.

Under glibc the CLI keeps freed memory in its heap, so a training epoch
faults in no new pages; this is read from the kernel's minor-fault count of
`train` processes.
"""

import ctypes
import os
import platform
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from topofuse import dataio, downstream, evaluate, network, objective, preprocess, synth, topology, worker

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


def _spatial(coords, eps=1.5):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return topology.build_spatial_graph(coords, eps)


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


def _pre():
    rng, genes = np.random.default_rng(4), 4
    return preprocess.PreprocessedData(
        tra=rng.normal(size=(N, genes)),
        gene_ids=[f"g{i}" for i in range(genes)],
    )


def test_one_training_epoch_stays_below_a_quarter_of_n_by_n(points):
    _, coords = points
    cfg = dataio.config_from_dict({"epochs": 1, "d_emb": 4})
    peak = _peak_bytes(objective.train, _pre(), _spatial(coords), cfg)
    assert peak < NXN_BYTES / 4, f"train peaked at {peak / NXN_BYTES:.2f} of one n x n array"


# Bounds on one epoch's working set at the benchmark's shapes: an 8x125
# section, 200 genes, 12 morphology dims, d_emb 72. A draw peaks at 2.76 times
# the bytes it returns and a step at 23.0 n x d_emb float64 arrays. Holding
# each modality's payload and mask through the whole draw, and the decoder's
# output and gradient and each view's temporaries through the whole step,
# they peaked at 3.24 and 33.6.
DRAW_PEAK_PER_BYTE_RETURNED = 3.0
STEP_PEAK_IN_N_BY_D = 28.0


@pytest.fixture(scope="module")
def epoch_peaks():
    """Per `_draw` and `_step` call of a one-epoch `train`, its traced peak above its start, plus the draw's returned bytes."""
    ds, _ = synth.generate(synth.SynthSpec(n_domains=8, spots_per_domain=125, genes=200, mor_dims=12, seed=42))
    cfg = dataio.config_from_dict({"epochs": 1, "d_emb": 72})
    pre = preprocess.preprocess_dataset(ds, cfg)
    assert pre.tra.shape[1] == 200 and pre.mor.shape[1] == 12
    peaks = {}

    def measured(fn):
        def call(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args)
            peaks[fn.__name__] = tracemalloc.get_traced_memory()[1] - start
            if fn.__name__ == "_draw":
                peaks["returned"] = sum(a.nbytes for a in out)
            return out

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_draw", "_step"):
            mp.setattr(objective, name, measured(getattr(objective, name)))
        _peak_bytes(objective.train, pre, _spatial(ds.coords, topology.auto_epsilon(ds.coords)), cfg)
    return peaks, pre.n_spots * cfg.d_emb * 8


def test_an_epochs_draw_peaks_near_the_bytes_it_returns(epoch_peaks):
    peaks, _ = epoch_peaks
    ratio = peaks["_draw"] / peaks["returned"]
    assert ratio < DRAW_PEAK_PER_BYTE_RETURNED, f"_draw peaked at {ratio:.2f} times the {peaks['returned']} bytes it returns"


def test_an_epochs_step_peaks_below_a_bound_in_n_by_d_arrays(epoch_peaks):
    peaks, n_by_d = epoch_peaks
    ratio = peaks["_step"] / n_by_d
    assert ratio < STEP_PEAK_IN_N_BY_D, f"_step peaked at {ratio:.1f} n x d_emb float64 arrays"


@pytest.mark.parametrize("name", ["gene_shift_matrix", "denoise"])
def test_trained_model_analyses_stay_below_a_quarter_of_n_by_n(points, name):
    _, coords = points
    pre = _pre()
    params = network.init_params(np.random.default_rng(5), pre.gene_ids, None, dataio.config_from_dict({"d_emb": 4}))
    graph = _spatial(coords)
    peak = _peak_bytes(getattr(downstream, name), params, pre, graph)
    assert peak < NXN_BYTES / 4, f"{name} peaked at {peak / NXN_BYTES:.2f} of one n x n array"


def test_star_graph_propagation_stays_below_a_quarter_of_n_by_n():
    # spot 0 neighbours every other spot: the largest degree is N - 1
    indices = np.concatenate([np.arange(1, N), np.zeros(N - 1, dtype=np.int64)])
    star = topology.NeighborGraph(n=N, indptr=np.concatenate([[0], np.arange(N - 1, 2 * N - 1)]), indices=indices)
    h = np.random.default_rng(6).normal(size=(N, 4))
    peak = _peak_bytes(lambda: network.normalized_adjacency(star) @ h)
    assert peak < NXN_BYTES / 4, f"the star-graph propagation peaked at {peak / NXN_BYTES:.2f} of one n x n array"


def _minor_faults(out, *args) -> int:
    """Run `python -m topofuse ARGS --threads 1` and return its minor page faults."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(worker.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)}
    log = out / f"{args[0]}-{len(os.listdir(out))}.log"
    to_log = [(os.POSIX_SPAWN_OPEN, fd, str(log), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644) for fd in (1, 2)]
    argv = [sys.executable, "-m", "topofuse", *args, "--threads", "1"]
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=to_log)
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, log.read_text()
    return usage.ru_minflt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is set through glibc's mallopt")
def test_training_epochs_fault_in_no_new_pages(tmp_path):
    # glibc's default policy, which mmaps each temporary over 128 KB and trims
    # the heap, faulted in about 2,300 pages per epoch on this 4x50 section
    data = str(tmp_path / "data")
    _minor_faults(tmp_path, "synth", "--out", data)
    faults = {
        epochs: _minor_faults(tmp_path, "train", "--out", str(tmp_path / f"e{epochs}"), "--data", data,
                              "--set", f"epochs={epochs}")
        for epochs in (20, 60)
    }
    per_epoch = (faults[60] - faults[20]) / 40
    assert per_epoch < 10, f"{per_epoch:.1f} minor page faults per extra epoch ({faults})"


def _no_c_library(name):
    raise TypeError("LoadLibrary() argument 1 must be str, not None")  # CDLL(None) on Windows


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library], ids=["no-mallopt", "no-c-library"])
def test_heap_policy_is_skipped_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert worker.keep_freed_memory() is None
